#ifndef KGPIP_ML_METRICS_H_
#define KGPIP_ML_METRICS_H_

#include <vector>

namespace kgpip::ml {

/// Macro-averaged F1 over the classes present in `y_true` — the paper's
/// classification metric ("We used Macro F1 for classification tasks to
/// account for data imbalance").
double MacroF1(const std::vector<double>& y_true,
               const std::vector<double>& y_pred, int num_classes);

/// Coefficient of determination — the paper's regression metric.
double R2Score(const std::vector<double>& y_true,
               const std::vector<double>& y_pred);

}  // namespace kgpip::ml

#endif  // KGPIP_ML_METRICS_H_
