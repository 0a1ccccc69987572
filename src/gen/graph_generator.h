#ifndef KGPIP_GEN_GRAPH_GENERATOR_H_
#define KGPIP_GEN_GRAPH_GENERATOR_H_

#include <memory>
#include <vector>

#include "graph4ml/vocab.h"
#include "nn/layers.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/status.h"

namespace kgpip::gen {

class MultiLaneDecoder;

/// Configuration of the deep graph generative model (Li et al. 2018,
/// adapted for conditional generation from a seed subgraph — KGpip's
/// §3.5 modification).
struct GeneratorConfig {
  int vocab_size = 0;      // node-type count (+1 STOP handled internally)
  int hidden = 32;         // node-state width
  int prop_rounds = 2;     // message-passing rounds per decision
  int max_nodes = 12;      // generation cap
  int condition_dims = 0;  // dataset content-embedding width (0 = off)
  double learning_rate = 3e-3;
  /// Debug mode: every tape-free decode (each Generate, each GenerateTopK
  /// candidate) also runs the tape path on a copy of its RNG stream and
  /// checks the outputs are identical. Also enabled by setting the
  /// KGPIP_GEN_CROSSCHECK environment variable.
  bool cross_check = false;
  /// Examples per optimizer step. 1 reproduces the classic per-example
  /// SGD loop exactly; >1 computes the per-example gradients of each
  /// minibatch in parallel (one model replica per batch slot), sums them
  /// in example order, and applies one Adam step — bit-identical at any
  /// thread count.
  int batch_size = 1;
};

/// One training example: a node-ordered typed graph (node 0 is the seed /
/// dataset node; each later node connects to earlier ones) plus an
/// optional conditioning vector (the dataset's content embedding).
struct GraphExample {
  graph4ml::TypedGraph graph;
  std::vector<double> condition;
  /// Decisions for the first `given_nodes` nodes are not trained /
  /// generated; they form the conditioning seed subgraph.
  int given_nodes = 1;
};

/// A generated graph with its sequence log-probability (the "score" KGpip
/// attaches to each candidate pipeline).
struct GeneratedGraph {
  graph4ml::TypedGraph graph;
  double log_prob = 0.0;
};

/// DeepGMG-style generator: builds graphs node-by-node —
///   (1) add-node decision over node types (or STOP),
///   (2) add-edge decision,
///   (3) choose-node decision over existing nodes —
/// with node states updated by GRU message passing between decisions.
class GraphGenerator {
 public:
  GraphGenerator(const GeneratorConfig& config, uint64_t seed);
  ~GraphGenerator();

  /// One pass over the examples (shuffled); returns mean sequence loss.
  double TrainEpoch(const std::vector<GraphExample>& examples, Rng* rng);

  /// Generates one graph conditioned on a seed subgraph. `temperature`
  /// scales sampling entropy (0 = greedy argmax). Runs the tape-free
  /// MultiLaneDecoder as one lane on `rng` itself: the graph, its
  /// log-prob, and the draws taken from `rng` are byte-identical to
  /// GenerateTape. Decoders are checked out of a free list shared with
  /// GenerateTopK, so concurrent Generate and GenerateTopK calls on the
  /// *same* generator are safe (each caller decodes on private
  /// scratch).
  GeneratedGraph Generate(const graph4ml::TypedGraph& seed,
                          const std::vector<double>& condition, Rng* rng,
                          double temperature = 1.0) const;

  /// Reference decode on the autograd tape. Slow; kept as the ground
  /// truth the tape-free decoder is verified against (the equivalence
  /// tests, cross_check mode, and the tape rows of BENCH_gen).
  GeneratedGraph GenerateTape(const graph4ml::TypedGraph& seed,
                              const std::vector<double>& condition,
                              Rng* rng, double temperature = 1.0) const;

  /// Batched generation: decodes `k` candidates cooperatively. RNG
  /// streams are forked from `rng` by candidate index before dispatch.
  /// The k lanes are split into one contiguous shard per thread-pool
  /// lane; each shard runs a MultiLaneDecoder that batches the GRU
  /// panels and decision heads of every lane whose decision history is
  /// still identical (lanes peel off into their own groups as they
  /// diverge). Each lane consumes only its own stream, in the tape's
  /// order, and cross-lane batching is bitwise output-neutral, so
  /// candidate i is byte-identical to GenerateTape on fork i at any
  /// thread count and ISA level.
  std::vector<GeneratedGraph> GenerateTopK(
      const graph4ml::TypedGraph& seed,
      const std::vector<double>& condition, size_t k, Rng* rng,
      double temperature = 1.0) const;

  /// Log-probability the model assigns to a complete graph (teacher
  /// forcing without learning) — used for ranking and tests.
  double LogProb(const GraphExample& example) const;

  const GeneratorConfig& config() const { return config_; }

  /// Model weights as JSON (with config) and back.
  Json ToJson() const;
  Status LoadWeights(const Json& json);

 private:
  friend class MultiLaneDecoder;  // reads weights for tape-free forwards

  /// Runs propagation rounds over node states given current edges.
  nn::Var Propagate(const nn::Var& states,
                    const std::vector<std::pair<int, int>>& edges) const;
  /// Graph-level readout (gated sum).
  nn::Var Readout(const nn::Var& states) const;
  /// Initial state for a node of `type` (+ condition for dataset nodes).
  nn::Var InitNode(int type, const std::vector<double>& condition) const;

  /// Shared teacher-forced pass on the active tape; returns the summed
  /// loss over every decision (TrainEpoch, LogProb).
  nn::Var SequenceLoss(const GraphExample& example) const;

  /// Overwrites this model's parameter values with `other`'s (same
  /// config). Used to sync the per-slot training replicas.
  void CopyWeightsFrom(const GraphGenerator& other);

  /// Minibatch path of TrainEpoch: batch slot b runs its example on
  /// replica b (built for the epoch); the slot gradients are summed in
  /// slot order, one pool item per parameter, then one Adam step. Each
  /// batch's sums and step are timed in `gen.train_step_seconds`.
  double TrainEpochBatched(const std::vector<GraphExample>& examples,
                           const std::vector<size_t>& order);

  /// Sets `model`'s parameter grads to d(loss)/d(weights) for `example`
  /// (the master or a replica) on a checked-out tape; returns the loss.
  double Backprop(GraphGenerator& model, const GraphExample& example);
  /// Training tape free list: one tape per example in flight, each
  /// keeping its buffers for the next example it records. TrainEpoch
  /// empties it before returning.
  std::unique_ptr<nn::Tape> AcquireTape();
  void ReleaseTape(std::unique_ptr<nn::Tape> tape);

  /// Decodes `k` lanes (lane i reads rngs[i], writes results[i]) on a
  /// decoder checked out of the free list, or built when the list is
  /// empty; checkout means two threads never share decode scratch, no
  /// matter how many Generate/GenerateTopK calls are in flight. A reused
  /// decoder sized for fewer lanes grows. Returns the buffer growths.
  size_t DecodeOnFreeList(const graph4ml::TypedGraph& seed,
                          const std::vector<double>& condition, Rng* rngs,
                          GeneratedGraph* results, size_t k,
                          double temperature) const;
  /// cross_check mode: re-decodes lane i on the tape from `tape_rngs[i]`
  /// (a copy of its stream taken before the decode) and aborts unless
  /// results[i] matches byte for byte.
  void CheckAgainstTape(const graph4ml::TypedGraph& seed,
                        const std::vector<double>& condition, Rng* tape_rngs,
                        const GeneratedGraph* results, size_t k,
                        double temperature) const;

  GeneratorConfig config_;
  Rng init_rng_;
  nn::ParamStore store_;
  /// Built by the first TrainEpoch; replicas never get one.
  std::unique_ptr<nn::Adam> optimizer_;
  /// Free lists of training tapes and decoders (mutable scratch),
  /// guarded by scratch_mu_. Each grows lazily to the peak number of
  /// concurrent users and keeps its buffers across calls.
  mutable util::Mutex scratch_mu_{util::LockRank::kGenEngines,
                                  "gen.engines"};
  std::vector<std::unique_ptr<nn::Tape>> tapes_
      KGPIP_GUARDED_BY(scratch_mu_);
  mutable std::vector<std::unique_ptr<MultiLaneDecoder>> decoders_
      KGPIP_GUARDED_BY(scratch_mu_);

  nn::Var type_embedding_;  // (vocab) x hidden
  nn::Linear init_node_;    // hidden -> hidden (over the type embedding)
  nn::Linear cond_proj_;    // condition_dims -> hidden
  nn::Linear msg_fwd_;      // 2*hidden -> hidden
  nn::Linear msg_bwd_;      // 2*hidden -> hidden
  nn::GruCell update_;      // hidden -> hidden
  nn::Linear gate_;         // hidden -> hidden (readout gate)
  nn::Linear proj_;         // hidden -> hidden (readout content)
  nn::Linear add_node_;     // hidden -> vocab+1
  nn::Linear add_edge_;     // 2*hidden -> 1
  nn::Linear choose_node_;  // 2*hidden -> 1
};

}  // namespace kgpip::gen

#endif  // KGPIP_GEN_GRAPH_GENERATOR_H_
