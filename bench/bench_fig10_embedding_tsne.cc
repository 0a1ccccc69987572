// Regenerates Figure 10: the t-SNE map of KGpip's content-based dataset
// embeddings for 38 Kaggle datasets labeled by domain. Prints the 2-D
// coordinates (plottable as-is), an ASCII scatter, and quantifies the
// clustering with a silhouette score plus domain-retrieval precision.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench/harness.h"
#include "embed/embedder.h"
#include "embed/sim_index.h"
#include "embed/tsne.h"
#include "util/stats.h"

namespace kgpip::bench {
namespace {

int Run(int argc, char** argv) {
  HarnessOptions options = ParseOptions(argc, argv);
  BenchmarkRegistry registry;
  auto specs = registry.Kaggle38Specs();

  embed::TableEmbedder embedder;
  std::vector<std::vector<double>> embeddings;
  std::vector<int> labels;
  std::map<std::string, int> domain_ids;
  for (const DatasetSpec& spec : specs) {
    embeddings.push_back(embedder.Embed(GenerateDataset(spec)));
    auto [it, unused] = domain_ids.emplace(
        DomainName(spec.domain), static_cast<int>(domain_ids.size()));
    labels.push_back(it->second);
  }

  embed::TsneOptions tsne_options;
  tsne_options.perplexity = 6.0;
  tsne_options.iterations = options.quick ? 150 : 500;
  tsne_options.seed = options.seed;
  auto map = embed::Tsne2D(embeddings, tsne_options);

  std::printf("Figure 10 data. t-SNE of KGpip dataset embeddings, 38 "
              "Kaggle datasets by domain.\n\n");
  std::printf("%-32s %-12s %9s %9s\n", "Dataset", "Domain", "x", "y");
  PrintRule(66);
  for (size_t i = 0; i < specs.size(); ++i) {
    std::printf("%-32s %-12s %9.2f %9.2f\n", specs[i].name.c_str(),
                DomainName(specs[i].domain), map[i].first, map[i].second);
  }

  // ASCII scatter (domains as letters).
  double min_x = 1e18, max_x = -1e18, min_y = 1e18, max_y = -1e18;
  for (const auto& [x, y] : map) {
    min_x = std::min(min_x, x);
    max_x = std::max(max_x, x);
    min_y = std::min(min_y, y);
    max_y = std::max(max_y, y);
  }
  const int kW = 72, kH = 24;
  std::vector<std::string> canvas(kH, std::string(kW, ' '));
  for (size_t i = 0; i < map.size(); ++i) {
    int cx = static_cast<int>((map[i].first - min_x) /
                              std::max(1e-9, max_x - min_x) * (kW - 1));
    int cy = static_cast<int>((map[i].second - min_y) /
                              std::max(1e-9, max_y - min_y) * (kH - 1));
    canvas[kH - 1 - cy][cx] = static_cast<char>('A' + labels[i]);
  }
  std::printf("\nASCII scatter (letter = domain):\n");
  for (const std::string& row : canvas) std::printf("|%s|\n", row.c_str());
  std::printf("Legend:");
  for (const auto& [name, id] : domain_ids) {
    std::printf("  %c=%s", 'A' + id, name.c_str());
  }
  std::printf("\n");

  // Quantitative clustering quality.
  std::vector<std::vector<double>> mapped;
  for (const auto& [x, y] : map) mapped.push_back({x, y});
  double sil_2d = SilhouetteScore(mapped, labels);
  double sil_hd = SilhouetteScore(embeddings, labels);
  std::printf("\nSilhouette by domain: %.2f (t-SNE 2-D), %.2f "
              "(original %zu-D)\n",
              sil_2d, sil_hd, embed::TableEmbedder::kDims);

  // Retrieval check: nearest neighbour shares the domain how often?
  embed::SimIndex index;
  for (size_t i = 0; i < specs.size(); ++i) {
    index.Add(std::to_string(i), embeddings[i]);
  }
  int hits = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    auto found = index.Search(embeddings[i], 2);
    if (!found.ok() || found->size() < 2) continue;
    size_t j = static_cast<size_t>(std::stoul((*found)[1].key));
    if (labels[j] == labels[i]) ++hits;
  }
  std::printf("Nearest-neighbour domain precision: %d/%zu (%.0f%%)\n",
              hits, specs.size(), 100.0 * hits / specs.size());
  std::printf("\nPaper reference: datasets from the same domains cluster "
              "together despite never being seen\nwhen learning the "
              "embeddings — no hand-crafted meta-features required.\n");
  return 0;
}

}  // namespace
}  // namespace kgpip::bench

int main(int argc, char** argv) { return kgpip::bench::Run(argc, argv); }
