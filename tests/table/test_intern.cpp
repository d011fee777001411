// Interned cells: every table stores value ids into a dictionary shared
// with the tables derived from it. These tests pin the id contract the
// planners rely on and that the string-level behaviour did not change.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "table/csv.hpp"
#include "table/table.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace llmq::table {
namespace {

Table random_table(std::uint64_t seed, std::size_t rows) {
  const std::vector<std::string> pool = {"",  "a",   "b",    "ab",  " a",
                                         "a ", "A",   "\"q\"", "x,y", "b"};
  Table t(Schema::of_names({"c0", "c1", "c2"}));
  util::Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r)
    t.append_row({pool[rng.next_below(pool.size())],
                  pool[rng.next_below(pool.size())],
                  pool[rng.next_below(4)]});
  return t;
}

TEST(Intern, IdEqualityIsStringEquality) {
  const Table t = random_table(1, 80);
  for (std::size_t r1 = 0; r1 < t.num_rows(); ++r1)
    for (std::size_t c1 = 0; c1 < t.num_cols(); ++c1)
      for (std::size_t r2 = 0; r2 < t.num_rows(); ++r2)
        for (std::size_t c2 = 0; c2 < t.num_cols(); ++c2)
          ASSERT_EQ(t.cell_id(r1, c1) == t.cell_id(r2, c2),
                    t.cell(r1, c1) == t.cell(r2, c2));
}

TEST(Intern, EachDistinctStringStoredOnce) {
  Table t(Schema::of_names({"a", "b"}));
  t.append_row({"x", "y"});
  t.append_row({"x", "x"});
  t.append_row({"y", "a"});  // "a" is also a field name
  // Field names "a", "b" and values "x", "y".
  EXPECT_EQ(t.dict().size(), 4u);
  EXPECT_EQ(t.cell_id(2, 1), t.field_id(0));
}

TEST(Intern, DerivedTablesShareTheDictionary) {
  const Table t = random_table(2, 30);
  const Table rows = t.take_rows({5, 1, 5});
  const Table cols = t.project(std::vector<std::size_t>{2, 0});
  const Table head = t.head(4);
  EXPECT_TRUE(rows.shares_dict(t));
  EXPECT_TRUE(cols.shares_dict(t));
  EXPECT_TRUE(head.shares_dict(t));
  EXPECT_EQ(&rows.dict(), &t.dict());
  EXPECT_EQ(rows.cell_id(0, 1), t.cell_id(5, 1));
  EXPECT_EQ(rows.cell_id(2, 1), t.cell_id(5, 1));
  EXPECT_EQ(cols.cell_id(7, 0), t.cell_id(7, 2));
  EXPECT_EQ(head.cell_id(3, 2), t.cell_id(3, 2));
  // Deriving adds no values.
  const std::size_t before = t.dict().size();
  (void)t.take_rows({0, 1});
  EXPECT_EQ(t.dict().size(), before);
}

TEST(Intern, IndependentTablesHaveTheirOwnDictionaries) {
  const Table a = random_table(3, 10);
  const Table b = random_table(3, 10);
  EXPECT_FALSE(a.shares_dict(b));
  EXPECT_EQ(a, b);
}

TEST(Intern, AppendTableRemapsAcrossDictionaries) {
  Table t(Schema::of_names({"k", "v"}));
  t.append_row({"one", "1"});
  Table u(Schema::of_names({"k", "v"}));
  // Interned in a different order, so the same strings get other ids.
  u.append_row({"2", "two"});
  u.append_row({"1", "one"});
  ASSERT_NE(u.cell_id(1, 1), t.cell_id(0, 0));
  t.append_table(u);
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.row(1), (std::vector<std::string>{"2", "two"}));
  EXPECT_EQ(t.row(2), (std::vector<std::string>{"1", "one"}));
  // Equal strings now share t's ids.
  EXPECT_EQ(t.cell_id(2, 1), t.cell_id(0, 0));
  EXPECT_EQ(t.cell_id(2, 0), t.cell_id(0, 1));
  EXPECT_FALSE(t.shares_dict(u));
}

TEST(Intern, AppendTableSameDictionaryKeepsIds) {
  Table t = random_table(4, 12);
  const Table sub = t.take_rows({3, 4});
  t.append_table(sub);
  EXPECT_EQ(t.cell_id(12, 0), t.cell_id(3, 0));
  EXPECT_EQ(t.cell_id(13, 2), t.cell_id(4, 2));
}

TEST(Intern, EqualityAcrossDictionaries) {
  Table a(Schema::of_names({"x", "y"}));
  a.append_row({"p", "q"});
  a.append_row({"q", "p"});
  Table b(Schema::of_names({"x", "y"}));
  b.append_row({"zzz", "q"});  // pre-seed b's dictionary in another order
  Table c(Schema::of_names({"x", "y"}));
  c.append_row({"p", "q"});
  c.append_row({"q", "p"});
  EXPECT_EQ(a, c);
  EXPECT_FALSE(a == b);
  Table d = b.take_rows({});  // empty, b's dictionary
  d.append_table(a);
  EXPECT_EQ(d, a);
  d.append_row({"p", "q"});
  EXPECT_FALSE(d == a);
}

TEST(Intern, RenameFieldKeepsCells) {
  Table t = random_table(5, 6);
  const Table before = t;
  t.rename_field(1, "renamed");
  EXPECT_EQ(t.schema().field(1).name, "renamed");
  EXPECT_EQ(t.schema().index_of("c1"), std::nullopt);
  for (std::size_t r = 0; r < t.num_rows(); ++r)
    EXPECT_EQ(t.row(r), before.row(r));
  EXPECT_EQ(t.dict().str(t.field_id(1)), "renamed");
}

TEST(Intern, CsvRoundTripUnchanged) {
  const Table t = random_table(6, 40);
  const std::string csv = to_csv(t);
  const Table back = from_csv(csv);
  EXPECT_FALSE(back.shares_dict(t));
  EXPECT_EQ(back, t);
  EXPECT_EQ(to_csv(back), csv);
}

TEST(Intern, CachedTokenCountsAndSpansMatchTheTokenizer) {
  const Table t = random_table(7, 25);
  const auto& tok = tokenizer::global_tokenizer();
  for (int pass = 0; pass < 2; ++pass) {  // fill, then read the cache
    for (ValueId id = 0; id < t.dict().size(); ++id) {
      const std::string& s = t.dict().str(id);
      EXPECT_EQ(t.dict().token_count(id), tok.count(s));
      tokenizer::TokenSeq span = {7u};  // appends after existing tokens
      t.dict().append_json_tokens(id, span);
      tokenizer::TokenSeq want = {7u};
      tok.encode_append("\"" + util::json_escape(s) + "\"", want);
      EXPECT_EQ(span, want) << s;
    }
  }
}

}  // namespace
}  // namespace llmq::table
