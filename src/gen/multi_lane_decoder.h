#ifndef KGPIP_GEN_MULTI_LANE_DECODER_H_
#define KGPIP_GEN_MULTI_LANE_DECODER_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "gen/graph_generator.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "util/rng.h"

namespace kgpip::gen {

/// Softmax distributions for one sampling decision, computed once and
/// reused for both the sample and its log-probability (the tape path used
/// to run softmax twice per decision). Replicates the tape arithmetic
/// exactly:
///   - greedy (temperature <= 0): first-max-wins argmax over raw logits;
///     no RNG draw. The log-probability still comes from the *unscaled*
///     softmax, as `log_prob_of` always did.
///   - temperature == 1: `logits / 1.0 == logits` bitwise, so the sampling
///     weights ARE the unscaled probabilities — one softmax total.
///   - other temperatures: a second, tempered softmax feeds the sampler;
///     the log-probability still uses the unscaled one.
class DecisionDist {
 public:
  /// Pre-sizes the internal buffers so later Compute calls allocate
  /// nothing for rows up to `k` entries.
  void Reserve(size_t k) {
    probs_.reserve(k);
    tempered_.reserve(k);
  }

  /// Computes the distributions for a row of `k` logits.
  void Compute(const double* logits, size_t k, double temperature);

  /// Draws a pick. Consumes exactly one Uniform() when temperature > 0
  /// and nothing otherwise — the tape path's RNG schedule.
  int Sample(Rng* rng, double temperature) const;

  /// log(max(p_unscaled[pick], 1e-12)), the score the generator sums.
  double LogProbOf(int pick) const;

  /// Buffer growths past reserved capacity (0 in steady state).
  size_t alloc_events() const { return alloc_events_; }

 private:
  std::vector<double> probs_;     // unscaled softmax (always computed)
  std::vector<double> tempered_;  // tempered softmax (t not in {0, 1})
  size_t k_ = 0;
  size_t argmax_ = 0;
  bool tempered_valid_ = false;
  size_t alloc_events_ = 0;
};

/// The tape-free decoder behind GraphGenerator::Generate (one lane) and
/// GenerateTopK (k lanes): runs the forward arithmetic of the autograd
/// path on raw matrices in a reusable arena, never constructing a `Var`.
/// Every buffer is reserved at construction for `lane_capacity` lanes at
/// the generation cap, so warm decodes allocate nothing; growth past
/// capacity is counted in alloc_events (the `gen.generate_allocs`
/// metric).
///
/// Structure of arrays: lanes whose full decision histories are
/// identical share one *group* (one graph, one set of node states); each
/// step, ALL groups' rows are stacked into tall matrices so the message,
/// GRU-gate, readout, and decision-head panels run as one GEMM per
/// weight no matter how many groups are live. Lanes peel off into new
/// groups only when their sampled decisions diverge (different node
/// type, or a different ordered source sequence in the edge loop);
/// greedy decodes never split, and a single lane is one group
/// throughout.
///
/// Lane i's output is byte-identical to GraphGenerator::GenerateTape on
/// the stream rngs[i] (graph, log-prob, and RNG draws consumed):
///   - every batched GEMM/GRU/readout kernel is row-independent, so
///     stacking group rows cannot change any row's bytes;
///   - per-group row sums (readout) run in the tape's ascending order;
///   - groups without edges get +0.0 accumulator rows, bitwise the
///     tape's zero-message round;
///   - the edge logit and choose scores are constant within a step's
///     edge loop (they read states, readout and h_new, not edges), so
///     one evaluation per (group, staged type) replays the tape's
///     per-iteration recompute;
///   - lane L consumes draws only from rngs[L], in the tape's order
///     (node pick, then bernoulli/choose per edge iteration).
/// The equivalence suite and cross_check mode enforce this.
///
/// Not reentrant; GraphGenerator checks decoders out of a free list.
class MultiLaneDecoder {
 public:
  /// `lane_capacity` pre-sizes every buffer; DecodeLanes may exceed it
  /// (buffers grow and the growth is counted in alloc_events).
  MultiLaneDecoder(const GraphGenerator* model, size_t lane_capacity);

  /// Decodes `k` lanes. Lane i reads rngs[i] only and writes results[i].
  void DecodeLanes(const graph4ml::TypedGraph& seed,
                   const std::vector<double>& condition, Rng* rngs,
                   GeneratedGraph* results, size_t k, double temperature);

  /// Cumulative buffer growths; warm same-shape decodes add zero.
  size_t alloc_events() const;

 private:
  /// Lanes with identical decision histories: one shared graph.
  struct LaneGroup {
    std::vector<int> lanes;                   // ascending lane ids
    std::vector<int> node_types;              // includes the seed prefix
    std::vector<std::pair<int, int>> edges;   // group-local node indices
  };

  /// Reshapes `m`, counting a growth past capacity as an alloc event.
  void Shape(nn::Matrix* m, size_t rows, size_t cols) {
    if (rows * cols > m->CapacityElems()) ++alloc_events_;
    m->Reshape(rows, cols);
  }
  template <typename T>
  void Size(std::vector<T>* v, size_t n) {
    if (n > v->capacity()) ++alloc_events_;
    v->resize(n);
  }

  const double* InitRow(int type);
  void EnsureCondRow();
  /// All prop_rounds message-passing rounds over the stacked states.
  void PropagateAll(size_t num_groups, size_t n);
  /// Gated-sum readout + add-node logits for every group.
  void ReadoutAll(size_t num_groups, size_t n);

  const GraphGenerator* model_;
  size_t lane_capacity_;
  size_t alloc_events_ = 0;

  // Stacked per-node buffers: group g owns rows [g*n, (g+1)*n) — every
  // live group has the same node count n (all lanes add exactly one
  // node per step), which is what makes flat stacking possible.
  nn::Matrix states_all_;       // (G*n) x h
  nn::Matrix next_states_all_;  // (G*n) x h
  nn::Matrix acc_fwd_;          // (G*n) x h scatter accumulator
  nn::Matrix acc_bwd_;          // (G*n) x h
  nn::Matrix msg_concat_;       // E_all x 2h gathered pairs
  nn::Matrix msg_rows_;         // E_all x h transformed messages
  nn::GruScratch gru_;
  nn::Matrix gru_wx_, gru_bx_, gru_wh2_, gru_bh2_;  // packed panels
  nn::Matrix gru_xg_;           // (G*n) x 3h
  nn::Matrix gru_hg_;           // (G*n) x 2h
  nn::Matrix gates_, content_;  // (G*n) x h readout
  nn::Matrix h_graph_all_;      // G x h
  nn::Matrix node_logits_all_;  // G x (vocab+1)
  // Stacked decision heads, one row block per live (group, type) pair.
  nn::Matrix edge_concat_all_;    // P x 2h
  nn::Matrix edge_logit_all_;     // P x 1
  nn::Matrix choose_concat_all_;  // (P*n) x 2h
  nn::Matrix choose_scores_all_;  // (P*n) x 1
  // Shared per-decode caches (identical for every lane).
  nn::Matrix emb_row_, init_tmp_;
  nn::Matrix type_init_;  // vocab x h
  std::vector<char> type_init_valid_;
  nn::Matrix cond_in_, cond_row_;
  bool cond_row_valid_ = false;
  std::vector<double> condition_;
  // Sampling distributions: node per group, choose per (group, type).
  std::vector<DecisionDist> node_dists_;
  std::vector<DecisionDist> choose_dists_;
  std::vector<double> p_edge_;  // per pair
  // Group bookkeeping: two slot arrays swapped each step so inner
  // vectors keep their capacity across steps and decodes.
  std::vector<LaneGroup> groups_a_, groups_b_;
  size_t num_groups_ = 0;
  bool cur_is_a_ = true;
  // Per-lane scratch.
  std::vector<int> lane_pick_;             // sampled type this step
  std::vector<int> lane_pair_;             // (group, type) pair index
  std::vector<std::vector<int>> lane_srcs_;  // srcs added this step
  std::vector<double> lane_log_prob_;
  // Pair list scratch.
  std::vector<int> pair_group_, pair_type_;
  // Gather/scatter index scratch (global row indices).
  std::vector<size_t> gsrcs_, gdsts_;
};

}  // namespace kgpip::gen

#endif  // KGPIP_GEN_MULTI_LANE_DECODER_H_
