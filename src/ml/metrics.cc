#include "ml/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace kgpip::ml {

double MacroF1(const std::vector<double>& y_true,
               const std::vector<double>& y_pred, int num_classes) {
  KGPIP_CHECK(y_true.size() == y_pred.size());
  if (y_true.empty() || num_classes <= 0) return 0.0;
  std::vector<long> tp(num_classes, 0), fp(num_classes, 0),
      fn(num_classes, 0);
  std::vector<bool> present(num_classes, false);
  for (size_t i = 0; i < y_true.size(); ++i) {
    int t = static_cast<int>(std::lround(y_true[i]));
    int p = static_cast<int>(std::lround(y_pred[i]));
    t = std::clamp(t, 0, num_classes - 1);
    p = std::clamp(p, 0, num_classes - 1);
    present[t] = true;
    if (t == p) {
      ++tp[t];
    } else {
      ++fn[t];
      ++fp[p];
    }
  }
  double f1_sum = 0.0;
  int counted = 0;
  for (int c = 0; c < num_classes; ++c) {
    if (!present[c]) continue;  // macro over classes present in y_true
    double denom = 2.0 * tp[c] + fp[c] + fn[c];
    f1_sum += denom > 0.0 ? 2.0 * tp[c] / denom : 0.0;
    ++counted;
  }
  return counted > 0 ? f1_sum / counted : 0.0;
}

double R2Score(const std::vector<double>& y_true,
               const std::vector<double>& y_pred) {
  KGPIP_CHECK(y_true.size() == y_pred.size());
  if (y_true.size() < 2) return 0.0;
  double mean = 0.0;
  for (double v : y_true) mean += v;
  mean /= static_cast<double>(y_true.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (size_t i = 0; i < y_true.size(); ++i) {
    ss_res += (y_true[i] - y_pred[i]) * (y_true[i] - y_pred[i]);
    ss_tot += (y_true[i] - mean) * (y_true[i] - mean);
  }
  if (ss_tot <= 0.0) return ss_res <= 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

}  // namespace kgpip::ml
