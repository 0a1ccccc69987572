#ifndef KGPIP_EMBED_TSNE_H_
#define KGPIP_EMBED_TSNE_H_

#include <cstdint>
#include <vector>

namespace kgpip::embed {

/// t-SNE options (exact, no Barnes-Hut — dataset counts here are tiny).
struct TsneOptions {
  double perplexity = 8.0;
  int iterations = 400;
  double learning_rate = 100.0;
  uint64_t seed = 29;
};

/// Embeds high-dimensional points into 2-D (the Figure 10 visualization).
/// Returns one (x, y) pair per input point.
std::vector<std::pair<double, double>> Tsne2D(
    const std::vector<std::vector<double>>& points,
    const TsneOptions& options = {});

}  // namespace kgpip::embed

#endif  // KGPIP_EMBED_TSNE_H_
