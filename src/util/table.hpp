// Aligned-column text tables.
//
// Every figure-reproduction bench prints its rows through TablePrinter so
// the terminal output reads like the paper's tables: a header row, aligned
// numeric columns, and an optional title/footnote. Numbers are formatted
// with a fixed precision chosen per column.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace mlcd::util {

/// Column alignment within a table.
enum class Align { kLeft, kRight };

/// Collects rows of strings and renders them with per-column alignment.
class TablePrinter {
 public:
  /// Creates a table with the given column headers. All columns default to
  /// right alignment except the first, which is left-aligned (labels).
  explicit TablePrinter(std::vector<std::string> headers);

  /// Overrides the alignment of column `index`.
  void set_align(std::size_t index, Align align);

  /// Appends a data row; must have exactly as many cells as headers.
  void add_row(std::vector<std::string> cells);

  /// Inserts a horizontal separator after the most recently added row.
  void add_separator();

  /// Renders the table to a string (trailing newline included).
  std::string render() const;

  /// Renders and writes to stdout.
  void print() const;

 private:
  struct Row {
    std::vector<std::string> cells;  // empty => separator
  };
  std::vector<std::string> headers_;
  std::vector<Align> aligns_;
  std::vector<Row> rows_;
};

/// Formats a double with `digits` decimal places ("12.35").
std::string fmt_fixed(double value, int digits);

/// Formats a double as "12.3x" speedup notation.
std::string fmt_speedup(double value, int digits = 2);

/// Formats a fraction as a percentage string ("81.5%").
std::string fmt_percent(double fraction, int digits = 1);

/// Formats dollars ("$123.45").
std::string fmt_dollars(double value, int digits = 2);

/// Formats hours ("12.3 h").
std::string fmt_hours(double value, int digits = 2);

}  // namespace mlcd::util
