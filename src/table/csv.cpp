#include "table/csv.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace llmq::table {

namespace {

bool needs_quoting(const std::string& s) {
  return s.find_first_of(",\"\n\r") != std::string::npos;
}

void write_cell(const std::string& s, std::ostream& os) {
  if (!needs_quoting(s)) {
    os << s;
    return;
  }
  os << '"';
  for (char c : s) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

/// Parses one logical CSV record (handles quoted newlines). Returns false
/// at end of input with no record.
bool read_record(std::istream& is, std::vector<std::string>& cells) {
  cells.clear();
  std::string cell;
  bool in_quotes = false;
  bool any = false;
  int ch;
  while ((ch = is.get()) != std::char_traits<char>::eof()) {
    any = true;
    const char c = static_cast<char>(ch);
    if (in_quotes) {
      if (c == '"') {
        if (is.peek() == '"') {
          cell += '"';
          is.get();
        } else {
          in_quotes = false;
        }
      } else {
        cell += c;
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else if (c == '\r') {
      // swallow; \r\n handled by the \n branch
    } else if (c == '\n') {
      cells.push_back(std::move(cell));
      return true;
    } else {
      cell += c;
    }
  }
  if (in_quotes) throw std::runtime_error("CSV: unterminated quote");
  if (!any) return false;
  cells.push_back(std::move(cell));
  return true;
}

}  // namespace

void write_csv(const Table& t, std::ostream& os) {
  for (std::size_t c = 0; c < t.num_cols(); ++c) {
    if (c) os << ',';
    write_cell(t.schema().field(c).name, os);
  }
  os << '\n';
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    for (std::size_t c = 0; c < t.num_cols(); ++c) {
      if (c) os << ',';
      write_cell(t.cell(r, c), os);
    }
    os << '\n';
  }
}

std::string to_csv(const Table& t) {
  std::ostringstream oss;
  write_csv(t, oss);
  return oss.str();
}

void write_csv_file(const Table& t, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("CSV: cannot open for write: " + path);
  write_csv(t, f);
}

Table read_csv(std::istream& is) {
  std::vector<std::string> cells;
  if (!read_record(is, cells))
    throw std::runtime_error("CSV: empty input (no header)");
  // Schema throws std::invalid_argument on a duplicate name, a caller bug
  // elsewhere; here the names are input, so it is malformed CSV.
  Table t = [&] {
    try {
      return Table(Schema::of_names(cells));
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error(std::string("CSV: bad header: ") + e.what());
    }
  }();
  const std::size_t arity = t.num_cols();
  while (read_record(is, cells)) {
    if (cells.size() == 1 && cells[0].empty()) continue;  // trailing newline
    if (cells.size() != arity)
      throw std::runtime_error("CSV: ragged row (expected " +
                               std::to_string(arity) + " cells, got " +
                               std::to_string(cells.size()) + ")");
    t.append_row(std::move(cells));
    cells = {};
  }
  return t;
}

Table from_csv(const std::string& text) {
  std::istringstream iss(text);
  return read_csv(iss);
}

Table read_csv_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("CSV: cannot open for read: " + path);
  return read_csv(f);
}

}  // namespace llmq::table
