#ifndef KGPIP_DATA_CSV_H_
#define KGPIP_DATA_CSV_H_

#include <string>
#include <string_view>

#include "data/table.h"
#include "util/status.h"

namespace kgpip {

/// Options for CSV parsing.
struct CsvOptions {
  char delimiter = ',';
  bool has_header = true;
  /// Cell values treated as missing in addition to empty cells.
  std::vector<std::string> na_values = {"NA", "N/A", "nan", "NaN", "null",
                                        "?"};
};

/// Parses CSV text into a Table. All columns come back as strings; callers
/// run `InferColumnTypes` (type_inference.h) to get typed columns, which is
/// the same two-phase flow pandas-style readers use.
Result<Table> ReadCsvText(std::string_view text, const CsvOptions& options);

/// Reads a CSV file from disk.
Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options);

/// Serializes a table to CSV text (with header).
std::string WriteCsvText(const Table& table, char delimiter = ',');

}  // namespace kgpip

#endif  // KGPIP_DATA_CSV_H_
