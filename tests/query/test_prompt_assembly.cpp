// PromptEncoder assembles a prompt from cached token spans (the field
// name's quoted literal + ':' + the value's quoted literal, joined by
// JSON punctuation) instead of rendering and re-tokenising the row. These
// properties pin that the assembly is token-for-token the same as the
// reference path: the instruction-prefix encoding followed by
// encode_append(render_row_json(...)).

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "core/ggr.hpp"
#include "data/benchmark_suite.hpp"
#include "data/generators.hpp"
#include "query/prompt.hpp"
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

/// Every row of `t` under schema order, the GGR plan's per-row orders, and
/// `n_random` seeded random permutations per row. Each prompt is encoded
/// twice: the first call fills the dictionary's spans, the second reads
/// them back.
void expect_identical(const PromptTemplate& tmpl, const table::Table& t,
                      const table::FdSet& fds, std::uint64_t seed,
                      int n_random, const std::string& what) {
  const PromptEncoder enc(tmpl);
  std::vector<std::vector<std::size_t>> orders;
  std::vector<std::size_t> rows;
  std::vector<std::size_t> schema_order(t.num_cols());
  std::iota(schema_order.begin(), schema_order.end(), 0);
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    rows.push_back(r);
    orders.push_back(schema_order);
  }
  const core::GgrResult plan = core::ggr(t, fds);
  for (std::size_t pos = 0; pos < plan.ordering.num_rows(); ++pos) {
    rows.push_back(plan.ordering.row_at(pos));
    orders.push_back(plan.ordering.fields_at(pos));
  }
  util::Rng rng(seed);
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    for (int k = 0; k < n_random; ++k) {
      std::vector<std::size_t> fo = schema_order;
      rng.shuffle(fo);
      rows.push_back(r);
      orders.push_back(std::move(fo));
    }
  }
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const tokenizer::TokenSeq want = reference(tmpl, t, rows[i], orders[i]);
    const tokenizer::TokenSeq first = enc.encode(t, rows[i], orders[i]);
    const tokenizer::TokenSeq cached = enc.encode(t, rows[i], orders[i]);
    if (first != want || cached != want) {
      if (++mismatches <= 3)
        ADD_FAILURE() << what << ": row " << rows[i] << " prompt differs: "
                      << render_row_json(t, rows[i], orders[i]);
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
}

TEST(PromptAssembly, EmptyFieldOrderIsAnEmptyObject) {
  table::Table t(table::Schema::of_names({"a"}));
  t.append_row({"v"});
  const PromptTemplate tmpl{"s", "u"};
  const std::vector<std::size_t> none;
  EXPECT_EQ(PromptEncoder(tmpl).encode(t, 0, none),
            reference(tmpl, t, 0, none));
}

}  // namespace
}  // namespace llmq::query
