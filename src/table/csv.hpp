#pragma once
// RFC-4180-style CSV reader/writer for Table.
//
// Used by the examples to round-trip datasets to disk and by users who
// want to run the reordering planner over their own data.

#include <iosfwd>
#include <string>

#include "table/table.hpp"

namespace llmq::table {

/// Serialize with a header row. Quotes cells containing separators,
/// quotes, or newlines.
void write_csv(const Table& t, std::ostream& os);
std::string to_csv(const Table& t);
void write_csv_file(const Table& t, const std::string& path);

/// Parse; first row is the header. All fields typed Text.
/// Throws std::runtime_error on ragged rows, unterminated quotes, or a
/// header that names a field twice.
Table read_csv(std::istream& is);
Table from_csv(const std::string& text);
Table read_csv_file(const std::string& path);

}  // namespace llmq::table
