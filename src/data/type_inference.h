#ifndef KGPIP_DATA_TYPE_INFERENCE_H_
#define KGPIP_DATA_TYPE_INFERENCE_H_

#include "data/table.h"
#include "util/status.h"

namespace kgpip {

// Heuristics for inferring column types from string data and for
// detecting the supervised task from the target column — the paper's
// §3.6 preprocessing steps 1 ("detecting task type ... automatically
// based on the distribution of the target column") and 2 ("automatically
// inferring accurate data types of columns").

/// Converts string columns in-place into numeric / categorical / text
/// columns: numeric when almost every present cell parses as a number,
/// text when cells carry several tokens or too many distinct values,
/// categorical otherwise (thresholds in type_inference.cc).
Status InferColumnTypes(Table* table);

/// Decides the task from the target column: a non-numeric target or a
/// numeric target with few distinct integer values is classification.
Result<TaskType> DetectTask(const Table& table);

}  // namespace kgpip

#endif  // KGPIP_DATA_TYPE_INFERENCE_H_
