// PromptEncoder assembles a prompt from cached token spans (the field
// name's quoted literal + ':' + the value's quoted literal, joined by
// JSON punctuation) instead of rendering and re-tokenising the row. These
// properties pin that the assembly is token-for-token the same as the
// reference path: the instruction-prefix encoding followed by
// encode_append(render_row_json(...)), and for a session follow-up turn
// encode_append(session_segment_label(...) + render_row_json(...)).

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "core/ggr.hpp"
#include "data/benchmark_suite.hpp"
#include "data/generators.hpp"
#include "query/prompt.hpp"
#include "serve/workload.hpp"
#include "util/rng.hpp"

namespace llmq::query {
namespace {

tokenizer::TokenSeq reference(const PromptTemplate& tmpl,
                              const table::Table& t, std::size_t row,
                              std::span<const std::size_t> fo) {
  const auto& tok = tokenizer::global_tokenizer();
  tokenizer::TokenSeq out = tok.encode(render_instruction_prefix(tmpl));
  tok.encode_append(render_row_json(t, row, fo), out);
  return out;
}

struct Case {
  std::size_t row;
  std::vector<std::size_t> order;
};

/// Every row of `t` under schema order, the GGR plan's per-row orders, and
/// `n_random` seeded random permutations per row.
std::vector<Case> cases(const table::Table& t, const table::FdSet& fds,
                        std::uint64_t seed, int n_random) {
  std::vector<Case> out;
  std::vector<std::size_t> schema_order(t.num_cols());
  std::iota(schema_order.begin(), schema_order.end(), 0);
  for (std::size_t r = 0; r < t.num_rows(); ++r)
    out.push_back({r, schema_order});
  const core::GgrResult plan = core::ggr(t, fds);
  for (std::size_t pos = 0; pos < plan.ordering.num_rows(); ++pos)
    out.push_back({plan.ordering.row_at(pos), plan.ordering.fields_at(pos)});
  util::Rng rng(seed);
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    for (int k = 0; k < n_random; ++k) {
      std::vector<std::size_t> fo = schema_order;
      rng.shuffle(fo);
      out.push_back({r, std::move(fo)});
    }
  }
  return out;
}

/// Each prompt is encoded twice: the first call fills the dictionary's
/// spans, the second reads them back.
void expect_identical(const PromptTemplate& tmpl, const table::Table& t,
                      const table::FdSet& fds, std::uint64_t seed,
                      int n_random, const std::string& what) {
  const PromptEncoder enc(tmpl);
  std::size_t mismatches = 0;
  for (const Case& c : cases(t, fds, seed, n_random)) {
    const tokenizer::TokenSeq want = reference(tmpl, t, c.row, c.order);
    const tokenizer::TokenSeq first = enc.encode(t, c.row, c.order);
    const tokenizer::TokenSeq cached = enc.encode(t, c.row, c.order);
    if (first != want || cached != want) {
      if (++mismatches <= 3)
        ADD_FAILURE() << what << ": row " << c.row << " prompt differs: "
                      << render_row_json(t, c.row, c.order);
    }
  }
  EXPECT_EQ(mismatches, 0u) << what;
}

/// Session follow-ups: for both session kinds and turns 1-4, what
/// SessionTurnEncoder appends after a session prefix must equal
/// encode_append(label + render_row_json) — the label's trailing newline
/// makes the row's brace the space-prefixed ` {` token, not `{`. Each
/// encoder serves every case twice, so the memoised label is read back.
void expect_turns_identical(const table::Table& t, const table::FdSet& fds,
                            std::uint64_t seed, int n_random,
                            const std::string& what) {
  const auto& tok = tokenizer::global_tokenizer();
  const tokenizer::TokenSeq session_prefix = tok.encode("prior turns ]");
  const std::vector<Case> all = cases(t, fds, seed, n_random);
  std::size_t mismatches = 0;
  for (const serve::SessionKind kind :
       {serve::SessionKind::Chat, serve::SessionKind::Agent}) {
    serve::SessionTurnEncoder turns(kind);
    for (int pass = 0; pass < 2; ++pass) {
      for (std::uint32_t turn = 1; turn <= 4; ++turn) {
        for (const Case& c : all) {
          tokenizer::TokenSeq want = session_prefix;
          tok.encode_append(serve::session_segment_label(kind, turn) +
                                render_row_json(t, c.row, c.order),
                            want);
          tokenizer::TokenSeq got = session_prefix;
          turns.append(turn, t, c.row, c.order, got);
          if (got != want && ++mismatches <= 3)
            ADD_FAILURE() << what << ": turn " << turn << " row " << c.row
                          << " differs: "
                          << render_row_json(t, c.row, c.order);
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << what;
}

TEST(PromptAssembly, MatchesRenderEncodeOnEveryGeneratorAndTemplate) {
  for (const std::string& key : data::dataset_keys()) {
    data::GenOptions g;
    g.n_rows = 40;
    g.seed = 7;
    const data::Dataset d = data::generate_dataset(key, g);
    std::size_t templates = 0;
    for (const data::QuerySpec& spec : data::benchmark_queries()) {
      if (spec.dataset != key) continue;
      std::vector<const data::StageSpec*> stages{&spec.stage1};
      if (spec.stage2) stages.push_back(&*spec.stage2);
      for (const data::StageSpec* st : stages) {
        const table::Table t =
            st->fields.empty() ? d.table : d.table.project(st->fields);
        expect_identical(PromptTemplate{spec.system_prompt, st->user_prompt},
                         t, d.fds, 11 + templates, 2,
                         spec.id + " (" + st->user_prompt.substr(0, 24) + ")");
        ++templates;
      }
    }
    EXPECT_GT(templates, 0u) << key << " has no query template";
  }
}

TEST(PromptAssembly, SessionTurnsMatchLabelPlusRenderEncodeOnEveryGenerator) {
  for (const std::string& key : data::dataset_keys()) {
    data::GenOptions g;
    g.n_rows = 24;
    g.seed = 5;
    const data::Dataset d = data::generate_dataset(key, g);
    expect_turns_identical(d.table, d.fds, 3, 2, key);
  }
}

TEST(PromptAssembly, MatchesRenderEncodeOnAdversarialCells) {
  // Field names and values that stress JSON escaping and the tokenizer's
  // whitespace/punctuation rules at span edges.
  const std::vector<std::string> names = {"plain", "with space", "q\"uote",
                                          " lead", "trail "};
  const std::vector<std::string> values = {
      "",         " ",           "  leading",  "trailing  ",  "a\"b",
      "back\\slash", "\\",       "\"",         "ctl\x01\x02\x1f", "tab\there",
      "new\nline", "\r\n",       "\x7f del",   "caf\xc3\xa9",  "x",
      "12345678901234", "mixed-CASE_words 42!", "{\"nested\":1}", "plain",
      " with space "};
  table::Table t(table::Schema::of_names(names));
  util::Rng rng(2024);
  for (std::size_t r = 0; r < 60; ++r) {
    std::vector<std::string> row;
    for (std::size_t c = 0; c < names.size(); ++c)
      row.push_back(values[rng.next_below(values.size())]);
    t.append_row(row);
  }
  const PromptTemplate tmpls[] = {
      {"", ""},
      {"System prompt ends in spaces   ", "query ends in a quote\""},
      {"sys\n", "user\t"}};
  std::uint64_t seed = 1;
  for (const PromptTemplate& tmpl : tmpls)
    expect_identical(tmpl, t, table::FdSet{}, seed++, 4, "adversarial");
  expect_turns_identical(t, table::FdSet{}, seed, 4, "adversarial turns");
}

TEST(PromptAssembly, EmptyFieldOrderIsAnEmptyObject) {
  table::Table t(table::Schema::of_names({"a"}));
  t.append_row({"v"});
  const PromptTemplate tmpl{"s", "u"};
  const std::vector<std::size_t> none;
  EXPECT_EQ(PromptEncoder(tmpl).encode(t, 0, none),
            reference(tmpl, t, 0, none));
  for (const serve::SessionKind kind :
       {serve::SessionKind::Chat, serve::SessionKind::Agent}) {
    serve::SessionTurnEncoder turns(kind);
    for (std::uint32_t turn = 1; turn <= 4; ++turn) {
      tokenizer::TokenSeq got;
      turns.append(turn, t, 0, none, got);
      EXPECT_EQ(got, tokenizer::global_tokenizer().encode(
                         serve::session_segment_label(kind, turn) +
                         render_row_json(t, 0, none)));
    }
  }
}

}  // namespace
}  // namespace llmq::query
