// Seeded mutation sweeps over the parsers that read outside input:
// util::json_parse, table::from_csv, sql::parse, and
// serve::arrivals_from_trace. clang/libFuzzer is not a dependency, so a
// small in-tree mutator applies random insert / delete / replace /
// duplicate-span edits to valid seed inputs, deterministically from a
// fixed seed: a failure replays from its printed input. Every mutant must
// be either accepted or rejected the documented way — nullopt for JSON,
// the parser's own exception type elsewhere. A crash, a foreign exception
// type, or undefined behaviour (the sanitizer build runs this suite too)
// fails.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/workload.hpp"
#include "sql/parser.hpp"
#include "table/csv.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace llmq {
namespace {

constexpr int kMutantsPerSeed = 20000;

/// One to four random edits per call. Inserted and replacement bytes come
/// half from `alphabet` (the grammar's structural characters, which reach
/// deeper parser states) and half from all 256 byte values.
class Mutator {
 public:
  Mutator(std::uint64_t seed, std::string alphabet)
      : rng_(seed), alphabet_(std::move(alphabet)) {}

  std::string mutate(std::string s) {
    const std::uint64_t edits = 1 + rng_.next_below(4);
    for (std::uint64_t e = 0; e < edits; ++e) {
      const std::uint64_t op = rng_.next_below(4);
      if (s.empty() || op == 0) {  // insert one byte
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(
                                 rng_.next_below(s.size() + 1)),
                 pick());
        continue;
      }
      const std::size_t pos = rng_.next_below(s.size());
      const std::size_t len =
          1 + rng_.next_below(std::min<std::size_t>(16, s.size() - pos));
      if (op == 1) {
        s.erase(pos, len);
      } else if (op == 2) {
        s[pos] = pick();
      } else {  // duplicate a span somewhere else
        const std::string span = s.substr(pos, len);
        s.insert(rng_.next_below(s.size() + 1), span);
      }
    }
    return s;
  }

 private:
  char pick() {
    if (rng_.next_bool(0.5))
      return alphabet_[rng_.next_below(alphabet_.size())];
    return static_cast<char>(rng_.next_below(256));
  }

  util::Rng rng_;
  std::string alphabet_;
};

/// `s` with non-printable bytes as \xNN, for failure messages.
std::string printable(const std::string& s) {
  std::string out;
  for (const unsigned char c : s) {
    if (c >= 0x20 && c < 0x7f && c != '\\') {
      out += static_cast<char>(c);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", c);
      out += buf;
    }
  }
  return out;
}

/// Feed kMutantsPerSeed mutants of each seed to `check`, which returns an
/// empty string when the parser behaved and a diagnosis otherwise. Stops
/// at the first failure so one defect reports once.
template <typename Check>
void sweep(const std::vector<std::string>& seeds, const std::string& alphabet,
           Check&& check) {
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    ASSERT_EQ(check(seeds[i]), "") << "seed input " << i << " must pass";
    Mutator m(0xF022 + i, alphabet);
    for (int k = 0; k < kMutantsPerSeed; ++k) {
      const std::string input = m.mutate(seeds[i]);
      const std::string why = check(input);
      ASSERT_EQ(why, "") << "seed " << i << ", mutant " << k << ": \""
                         << printable(input) << "\"";
    }
  }
}

TEST(Fuzz, JsonParseRejectsWithNullopt) {
  const std::vector<std::string> seeds = {
      R"({"bench":"bench_micro","scale":0.02,"seed":42,"schema_version":2,)"
      R"("provenance":{"build_type":"release","hardware_threads":4},)"
      R"("sections":{"token_ops":[{"len":16,"lcp_us":0.0031,"isa":"avx2"}]}})",
      R"([1,-2.5e-3,1E+9,0,true,false,null,"",{},[],[[[]]]])",
      R"({"esc":"a\"b\\c\/d\b\f\n\r\t","u":"é中","k":{"n":[{}]}})",
  };
  sweep(seeds, "{}[]\":,\\-+.eE0123456789tfnulu", [](const std::string& in) {
    try {
      (void)util::json_parse(in);
    } catch (const std::exception& e) {
      return std::string("json_parse threw (must return nullopt): ") +
             e.what();
    }
    return std::string();
  });
}

TEST(Fuzz, CsvRejectsWithRuntimeError) {
  const std::vector<std::string> seeds = {
      "a,b,c\n1,2,3\n4,5,6\n",
      "title,note\r\n\"has,comma\",\"has \"\"quote\"\"\"\r\n\"multi\nline\","
      "\r\n",
      "x\n\n\"\"\n",
  };
  sweep(seeds, ",\"\r\nab1", [](const std::string& in) {
    try {
      const table::Table t = table::from_csv(in);
      for (std::size_t r = 0; r < t.num_rows(); ++r)
        if (t.row(r).size() != t.num_cols()) return std::string("ragged row");
    } catch (const std::runtime_error&) {
      // The documented rejection.
    } catch (const std::exception& e) {
      return std::string("from_csv threw a non-runtime_error: ") + e.what();
    }
    return std::string();
  });
}

TEST(Fuzz, SqlRejectsWithParseOrLexError) {
  const std::vector<std::string> seeds = {
      "SELECT movietitle FROM movies",
      "SELECT user_id, LLM('Did {a} address {b}?', a, b) AS ok FROM t "
      "WHERE a <> NULL",
      "SELECT t.movietitle FROM MOVIES WHERE LLM('Answer \"Yes\" or "
      "\"No\".', movieinfo, reviewcontent) = 'Yes'",
      "SELECT AVG(LLM('Rate 1 (bad) to 5 (good).', pr.*)) AS s FROM pr",
  };
  sweep(seeds, "'(),.*=<>_ SELECTFROMWHEREANDLLMAVGNOTNULLAS",
        [](const std::string& in) {
          try {
            (void)sql::parse(in);
          } catch (const sql::ParseError&) {
          } catch (const sql::LexError&) {
          } catch (const std::exception& e) {
            return std::string("sql::parse threw a foreign type: ") +
                   e.what();
          }
          return std::string();
        });
}

// Trace columns are numbers, not text, so this sweep mutates the vectors
// directly: non-finite or out-of-order timestamps and columns of the
// wrong length. An independent oracle says which traces are valid; the
// function must accept exactly those (copying every column through) and
// reject the rest with std::invalid_argument.
TEST(Fuzz, TraceArrivalsRejectWithInvalidArgument) {
  struct Trace {
    std::vector<double> times;
    std::vector<std::size_t> rows;
    std::vector<std::uint32_t> tenants;
    std::vector<llm::PriorityClass> classes;
  };
  const auto valid = [](const Trace& t) {
    if (t.rows.size() != t.times.size()) return false;
    if (!t.tenants.empty() && t.tenants.size() != t.times.size())
      return false;
    if (!t.classes.empty() && t.classes.size() != t.times.size())
      return false;
    for (std::size_t i = 0; i < t.times.size(); ++i) {
      if (!std::isfinite(t.times[i])) return false;
      if (i > 0 && t.times[i] < t.times[i - 1]) return false;
    }
    return true;
  };
  constexpr double kOdd[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             -1.0, 0.0, 1e300};

  util::Rng rng(0xF022);
  for (int k = 0; k < kMutantsPerSeed; ++k) {
    Trace t;
    const std::size_t n = 1 + rng.next_below(12);
    double now = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      now += rng.next_double();
      t.times.push_back(now);
      t.rows.push_back(rng.next_below(100));
      t.tenants.push_back(static_cast<std::uint32_t>(rng.next_below(4)));
      t.classes.push_back(
          static_cast<llm::PriorityClass>(rng.next_below(3)));
    }
    const std::uint64_t edits = 1 + rng.next_below(3);
    for (std::uint64_t e = 0; e < edits; ++e) {
      const std::size_t i = rng.next_below(t.times.size() + 1);
      switch (rng.next_below(6)) {
        case 0:  // odd timestamp
          if (i < t.times.size()) t.times[i] = kOdd[rng.next_below(6)];
          break;
        case 1:  // swap two timestamps (may unsort)
          if (i < t.times.size())
            std::swap(t.times[i], t.times[rng.next_below(t.times.size())]);
          break;
        case 2:  // drop one entry of one column
          switch (rng.next_below(4)) {
            case 0: if (!t.times.empty()) t.times.pop_back(); break;
            case 1: if (!t.rows.empty()) t.rows.pop_back(); break;
            case 2: if (!t.tenants.empty()) t.tenants.pop_back(); break;
            default: if (!t.classes.empty()) t.classes.pop_back(); break;
          }
          break;
        case 3:  // grow one column
          if (rng.next_bool(0.5))
            t.rows.push_back(0);
          else
            t.classes.push_back(llm::PriorityClass::Batch);
          break;
        case 4:  // empty optional column (always allowed)
          if (rng.next_bool(0.5))
            t.tenants.clear();
          else
            t.classes.clear();
          break;
        default:  // duplicate the last timestamp (ties are allowed)
          if (!t.times.empty()) {
            t.times.push_back(t.times.back());
            t.rows.push_back(0);
            if (!t.tenants.empty()) t.tenants.push_back(0);
            if (!t.classes.empty())
              t.classes.push_back(llm::PriorityClass::Standard);
          }
          break;
      }
    }

    const bool expect_ok = valid(t);
    try {
      const auto out =
          serve::arrivals_from_trace(t.times, t.rows, t.tenants, t.classes);
      ASSERT_TRUE(expect_ok) << "mutant " << k << " accepted an invalid trace";
      ASSERT_EQ(out.size(), t.times.size()) << "mutant " << k;
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i].time, t.times[i]) << "mutant " << k;
        EXPECT_EQ(out[i].row, t.rows[i]) << "mutant " << k;
        EXPECT_EQ(out[i].tenant, t.tenants.empty() ? 0u : t.tenants[i]);
        EXPECT_EQ(out[i].priority, t.classes.empty()
                                       ? llm::PriorityClass::Standard
                                       : t.classes[i]);
      }
    } catch (const std::invalid_argument&) {
      ASSERT_FALSE(expect_ok) << "mutant " << k << " rejected a valid trace";
    }
  }
}

}  // namespace
}  // namespace llmq
