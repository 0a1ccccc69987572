#include "data/csv.h"

#include <algorithm>

#include "util/file_io.h"
#include "util/string_util.h"

namespace kgpip {

namespace {

/// RFC-4180-style field splitter with quote support.
/// Returns one row of cells; advances *pos past the terminating newline.
Result<std::vector<std::string>> ParseRow(std::string_view text, size_t* pos,
                                          char delim) {
  std::vector<std::string> cells;
  std::string cell;
  bool in_quotes = false;
  size_t i = *pos;
  const size_t n = text.size();
  while (i < n) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text[i + 1] == '"') {
          cell += '"';
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      cell += c;
      ++i;
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      ++i;
      continue;
    }
    if (c == delim) {
      cells.push_back(std::move(cell));
      cell.clear();
      ++i;
      continue;
    }
    if (c == '\n' || c == '\r') {
      // Consume \r\n or lone terminator.
      ++i;
      if (c == '\r' && i < n && text[i] == '\n') ++i;
      break;
    }
    cell += c;
    ++i;
  }
  if (in_quotes) {
    return Status::ParseError("unterminated quoted CSV field near offset " +
                              std::to_string(i));
  }
  cells.push_back(std::move(cell));
  *pos = i;
  return cells;
}

bool IsNa(const std::string& cell, const CsvOptions& options) {
  if (cell.empty()) return true;
  return std::find(options.na_values.begin(), options.na_values.end(),
                   cell) != options.na_values.end();
}

std::string EscapeCell(const std::string& cell, char delim) {
  bool needs_quotes = cell.find(delim) != std::string::npos ||
                      cell.find('"') != std::string::npos ||
                      cell.find('\n') != std::string::npos;
  if (!needs_quotes) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

Result<Table> ReadCsvText(std::string_view text, const CsvOptions& options) {
  size_t pos = 0;
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> column_cells;

  if (options.has_header) {
    if (pos >= text.size()) {
      return Status::ParseError("empty CSV input");
    }
    KGPIP_ASSIGN_OR_RETURN(header, ParseRow(text, &pos, options.delimiter));
  }

  size_t row_index = 0;
  while (pos < text.size()) {
    // Skip fully blank trailing lines.
    if (text[pos] == '\n' || text[pos] == '\r') {
      ++pos;
      continue;
    }
    KGPIP_ASSIGN_OR_RETURN(std::vector<std::string> cells,
                           ParseRow(text, &pos, options.delimiter));
    if (header.empty()) {
      header.resize(cells.size());
      for (size_t i = 0; i < cells.size(); ++i) {
        header[i] = "col_" + std::to_string(i);
      }
    }
    if (cells.size() != header.size()) {
      return Status::ParseError(
          "row " + std::to_string(row_index) + " has " +
          std::to_string(cells.size()) + " cells, expected " +
          std::to_string(header.size()));
    }
    if (column_cells.empty()) column_cells.resize(header.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      if (IsNa(cells[i], options)) cells[i].clear();
      column_cells[i].push_back(std::move(cells[i]));
    }
    ++row_index;
  }

  Table table;
  if (column_cells.empty()) column_cells.resize(header.size());
  for (size_t i = 0; i < header.size(); ++i) {
    KGPIP_RETURN_IF_ERROR(table.AddColumn(
        Column::Categorical(header[i], std::move(column_cells[i]))));
  }
  return table;
}

Result<Table> ReadCsvFile(const std::string& path,
                          const CsvOptions& options) {
  KGPIP_ASSIGN_OR_RETURN(std::string text, util::ReadFile(path));
  KGPIP_ASSIGN_OR_RETURN(Table table, ReadCsvText(text, options));
  // Derive a dataset name from the file name.
  std::string name = path;
  size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  size_t dot = name.find_last_of('.');
  if (dot != std::string::npos) name = name.substr(0, dot);
  table.set_name(name);
  return table;
}

std::string WriteCsvText(const Table& table, char delimiter) {
  std::string out;
  for (size_t i = 0; i < table.num_columns(); ++i) {
    if (i > 0) out += delimiter;
    out += EscapeCell(table.column(i).name(), delimiter);
  }
  out += '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t i = 0; i < table.num_columns(); ++i) {
      if (i > 0) out += delimiter;
      const Column& c = table.column(i);
      if (c.IsMissing(r)) continue;
      if (c.type() == ColumnType::kNumeric) {
        out += StrFormat("%.10g", c.NumericAt(r));
      } else {
        out += EscapeCell(c.StringAt(r), delimiter);
      }
    }
    out += '\n';
  }
  return out;
}

}  // namespace kgpip
