#include "table/csv.hpp"

#include <gtest/gtest.h>

namespace llmq::table {
namespace {

TEST(Csv, RoundTripSimple) {
  Table t(Schema::of_names({"a", "b"}));
  t.append_row({"1", "x"});
  t.append_row({"2", "y"});
  const auto back = from_csv(to_csv(t));
  EXPECT_EQ(back, t);
}

TEST(Csv, RoundTripQuoting) {
  Table t(Schema::of_names({"text", "note"}));
  t.append_row({"has,comma", "has\"quote"});
  t.append_row({"has\nnewline", "plain"});
  t.append_row({"", "empty left"});
  const auto back = from_csv(to_csv(t));
  EXPECT_EQ(back, t);
}

TEST(Csv, ParsesCrLf) {
  const auto t = from_csv("a,b\r\n1,2\r\n");
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.cell(0, 1), "2");
}

TEST(Csv, RaggedRowThrows) {
  EXPECT_THROW(from_csv("a,b\n1\n"), std::runtime_error);
}

TEST(Csv, UnterminatedQuoteThrows) {
  EXPECT_THROW(from_csv("a\n\"oops\n"), std::runtime_error);
}

TEST(Csv, DuplicateHeaderThrowsRuntimeError) {
  EXPECT_THROW(from_csv("a,b,a\n1,2,3\n"), std::runtime_error);
}

TEST(Csv, EmptyInputThrows) {
  EXPECT_THROW(from_csv(""), std::runtime_error);
}

TEST(Csv, HeaderOnly) {
  const auto t = from_csv("x,y,z\n");
  EXPECT_EQ(t.num_cols(), 3u);
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(Csv, FileRoundTrip) {
  Table t(Schema::of_names({"k", "v"}));
  t.append_row({"key", "value with, comma"});
  const std::string path = ::testing::TempDir() + "/llmq_csv_test.csv";
  write_csv_file(t, path);
  EXPECT_EQ(read_csv_file(path), t);
}

TEST(Csv, MissingFileThrows) {
  EXPECT_THROW(read_csv_file("/nonexistent/dir/file.csv"), std::runtime_error);
}

}  // namespace
}  // namespace llmq::table
