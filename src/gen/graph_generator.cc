#include "gen/graph_generator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>

#include "gen/multi_lane_decoder.h"
#include "nn/fastmath.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace kgpip::gen {

using nn::Var;

GraphGenerator::~GraphGenerator() = default;

GraphGenerator::GraphGenerator(const GeneratorConfig& config, uint64_t seed)
    : config_(config), init_rng_(seed) {
  KGPIP_CHECK(config_.vocab_size > 0);
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- construction-time getenv on
  // a read-only environment.
  if (std::getenv("KGPIP_GEN_CROSSCHECK") != nullptr) {
    config_.cross_check = true;
  }
  const size_t h = static_cast<size_t>(config_.hidden);
  type_embedding_ = store_.Create(
      "type_embedding", static_cast<size_t>(config_.vocab_size), h,
      &init_rng_);
  init_node_ = nn::Linear(&store_, "init_node", h, h, &init_rng_);
  if (config_.condition_dims > 0) {
    cond_proj_ = nn::Linear(&store_, "cond_proj",
                            static_cast<size_t>(config_.condition_dims), h,
                            &init_rng_);
  }
  msg_fwd_ = nn::Linear(&store_, "msg_fwd", 2 * h, h, &init_rng_);
  msg_bwd_ = nn::Linear(&store_, "msg_bwd", 2 * h, h, &init_rng_);
  update_ = nn::GruCell(&store_, "update", h, h, &init_rng_);
  gate_ = nn::Linear(&store_, "gate", h, h, &init_rng_);
  proj_ = nn::Linear(&store_, "proj", h, h, &init_rng_);
  add_node_ = nn::Linear(&store_, "add_node", h,
                         static_cast<size_t>(config_.vocab_size) + 1,
                         &init_rng_);
  add_edge_ = nn::Linear(&store_, "add_edge", 2 * h, 1, &init_rng_);
  choose_node_ = nn::Linear(&store_, "choose_node", 2 * h, 1, &init_rng_);
}

Var GraphGenerator::Propagate(
    const Var& states, const std::vector<std::pair<int, int>>& edges) const {
  const size_t n = states.rows();
  Var current = states;
  for (int round = 0; round < config_.prop_rounds; ++round) {
    if (edges.empty()) {
      // Still run the GRU with zero messages so isolated nodes evolve.
      Var zero = Var::Constant(n, static_cast<size_t>(config_.hidden));
      current = update_.Forward(zero, current);
      continue;
    }
    std::vector<size_t> srcs, dsts;
    srcs.reserve(edges.size());
    dsts.reserve(edges.size());
    for (const auto& [s, d] : edges) {
      srcs.push_back(static_cast<size_t>(s));
      dsts.push_back(static_cast<size_t>(d));
    }
    // Forward messages: f([h_src, h_dst]) delivered to dst.
    Var h_src = GatherRows(current, srcs);
    Var h_dst = GatherRows(current, dsts);
    Var fwd = Tanh(msg_fwd_.Forward(ConcatCols(h_src, h_dst)));
    Var messages = ScatterAddRows(fwd, dsts, n);
    // Backward messages: f([h_dst, h_src]) delivered to src.
    Var bwd = Tanh(msg_bwd_.Forward(ConcatCols(h_dst, h_src)));
    messages = Add(messages, ScatterAddRows(bwd, srcs, n));
    current = update_.Forward(messages, current);
  }
  return current;
}

Var GraphGenerator::Readout(const Var& states) const {
  // Gated sum over node states.
  Var gates = Sigmoid(gate_.Forward(states));
  Var content = proj_.Forward(states);
  return SumRows(Mul(gates, content));
}

Var GraphGenerator::InitNode(int type,
                             const std::vector<double>& condition) const {
  Var emb = GatherRows(type_embedding_, {static_cast<size_t>(type)});
  Var out = init_node_.Forward(emb);
  if (type == graph4ml::PipelineVocab::kDatasetType &&
      config_.condition_dims > 0 && !condition.empty()) {
    Var cond =
        Var::Constant(1, static_cast<size_t>(config_.condition_dims));
    for (size_t i = 0; i < cond.cols() && i < condition.size(); ++i) {
      cond.mutable_value()(0, i) = condition[i];
    }
    out = Add(out, cond_proj_.Forward(cond));
  }
  return Tanh(out);
}

namespace {

/// Edges whose destination is node `node` (chains have exactly one).
std::vector<int> IncomingSources(const graph4ml::TypedGraph& graph,
                                 int node) {
  std::vector<int> sources;
  for (const auto& [src, dst] : graph.edges) {
    if (dst == node && src < node) sources.push_back(src);
    // Undirected fallback: treat (node, earlier) as an edge to `node`.
    if (src == node && dst < node) sources.push_back(dst);
  }
  return sources;
}

}  // namespace

Var GraphGenerator::SequenceLoss(const GraphExample& example) const {
  const graph4ml::TypedGraph& g = example.graph;
  const int total = static_cast<int>(g.num_nodes());
  const int given = std::max(1, std::min(example.given_nodes, total));

  // Seed states.
  Var states = InitNode(g.node_types[0], example.condition);
  for (int i = 1; i < given; ++i) {
    states = ConcatRows(states, InitNode(g.node_types[i],
                                         example.condition));
  }
  std::vector<std::pair<int, int>> edges;
  for (const auto& e : g.edges) {
    if (e.first < given && e.second < given) edges.push_back(e);
  }

  Var loss = Var::Constant(1, 1);
  for (int i = given; i <= total; ++i) {
    states = Propagate(states, edges);
    Var h_graph = Readout(states);
    Var node_logits = add_node_.Forward(h_graph);
    const int target_type =
        i < total ? g.node_types[static_cast<size_t>(i)]
                  : config_.vocab_size;  // STOP
    loss = Add(loss, SoftmaxCrossEntropy(node_logits, {target_type}));
    if (i == total) break;

    Var h_new = InitNode(g.node_types[static_cast<size_t>(i)],
                         example.condition);
    std::vector<int> sources = IncomingSources(g, i);
    for (int src : sources) {
      // "Add an edge?" -> yes.
      Var edge_logit = add_edge_.Forward(ConcatCols(h_graph, h_new));
      loss = Add(loss, BinaryCrossEntropyWithLogits(edge_logit, 1.0));
      // "To which node?" -> src.
      Var tiled = MatMul(Var::Constant(states.rows(), 1, 1.0), h_new);
      Var scores = choose_node_.Forward(ConcatCols(states, tiled));
      // scores is (n x 1); treat as one softmax row.
      loss = Add(loss, SoftmaxCrossEntropy(Transpose(scores), {src}));
      edges.emplace_back(src, i);
    }
    // "Add an edge?" -> no (stop adding edges for this node).
    Var stop_logit = add_edge_.Forward(ConcatCols(h_graph, h_new));
    loss = Add(loss, BinaryCrossEntropyWithLogits(stop_logit, 0.0));
    states = ConcatRows(states, h_new);
  }
  return loss;
}

double GraphGenerator::TrainEpoch(const std::vector<GraphExample>& examples,
                                  Rng* rng) {
  if (examples.empty()) return 0.0;
  KGPIP_TRACE_SPAN("gen.train_epoch");
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  static obs::Counter* epochs = metrics.GetCounter("gen.train_epochs");
  static obs::Histogram* epoch_seconds =
      metrics.GetHistogram("gen.train_epoch_seconds");
  static obs::Gauge* loss_gauge = metrics.GetGauge("gen.train_loss");
  Stopwatch watch;
  if (optimizer_ == nullptr) {
    optimizer_ = std::make_unique<nn::Adam>(&store_, config_.learning_rate);
  }
  std::vector<size_t> order = rng->Permutation(examples.size());
  double mean_loss = 0.0;
  if (config_.batch_size <= 1) {
    // Classic per-example SGD: loss → backward → step, one example at a
    // time. Inherently sequential (each step changes the weights the
    // next example sees), so it stays on the calling thread.
    double total_loss = 0.0;
    for (size_t idx : order) {
      total_loss += Backprop(*this, examples[idx]);
      optimizer_->Step();
    }
    mean_loss = total_loss / static_cast<double>(examples.size());
  } else {
    mean_loss = TrainEpochBatched(examples, order);
  }
  {
    // Training scratch lives for one epoch; a trained model keeps no
    // tape.
    util::MutexLock lock(scratch_mu_);
    tapes_.clear();
  }
  epochs->Increment();
  epoch_seconds->Record(watch.ElapsedSeconds());
  loss_gauge->Set(mean_loss);
  return mean_loss;
}

void GraphGenerator::CopyWeightsFrom(const GraphGenerator& other) {
  const std::vector<Var>& src = other.store_.params();
  const std::vector<Var>& dst = store_.params();
  KGPIP_CHECK(src.size() == dst.size());
  for (size_t i = 0; i < src.size(); ++i) {
    Var param = dst[i];  // cheap handle; shares the underlying node
    param.mutable_value() = src[i].value();
  }
}

double GraphGenerator::TrainEpochBatched(
    const std::vector<GraphExample>& examples,
    const std::vector<size_t>& order) {
  static obs::Histogram* step_seconds =
      obs::MetricsRegistry::Global().GetHistogram("gen.train_step_seconds");
  util::ThreadPool& pool = util::ThreadPool::Global();
  const size_t batch = static_cast<size_t>(config_.batch_size);
  // One replica per batch slot: slot b's example runs on replica b alone,
  // whichever thread picks it up, so no two examples ever share weights
  // or grads. Replicas carry no optimizer state.
  std::vector<std::unique_ptr<GraphGenerator>> replicas;
  for (size_t b = 0; b < std::min(batch, order.size()); ++b) {
    replicas.push_back(std::make_unique<GraphGenerator>(config_, /*seed=*/0));
  }
  const std::vector<Var>& params = store_.params();
  std::vector<double> losses(batch, 0.0);
  double total_loss = 0.0;
  for (size_t start = 0; start < order.size(); start += batch) {
    const size_t count = std::min(batch, order.size() - start);
    pool.ParallelFor(count, [&](size_t b) {
      GraphGenerator& replica = *replicas[b];
      replica.CopyWeightsFrom(*this);
      losses[b] = Backprop(replica, examples[order[start + b]]);
    });
    for (size_t b = 0; b < count; ++b) total_loss += losses[b];
    // The step: one pool item per parameter sums its slot gradients in
    // slot order, so every summed element is one fixed chain from +0.0
    // whatever thread ran which slot, and clears each slot for its next
    // example (Backward resets only the parameters its loss reaches). A
    // parameter a replica never reached has no grad yet and adds
    // nothing. Then one Adam step.
    Stopwatch step_watch;
    pool.ParallelFor(params.size(), [&](size_t p) {
      Var param = params[p];
      param.ZeroGrad();
      nn::Matrix& sum = param.node()->grad;
      for (size_t b = 0; b < count; ++b) {
        nn::Matrix& slot = replicas[b]->store_.params()[p].node()->grad;
        if (slot.size() != sum.size()) continue;
        for (size_t k = 0; k < sum.size(); ++k) {
          sum.data()[k] += slot.data()[k];
          slot.data()[k] = 0.0;
        }
      }
    });
    optimizer_->Step();
    step_seconds->Record(step_watch.ElapsedSeconds());
  }
  return total_loss / static_cast<double>(examples.size());
}

double GraphGenerator::Backprop(GraphGenerator& model,
                                const GraphExample& example) {
  std::unique_ptr<nn::Tape> tape = AcquireTape();
  double loss_value = 0.0;
  {
    nn::TapeScope scope(tape.get());
    Var loss = model.SequenceLoss(example);
    loss_value = loss.value()(0, 0);
    nn::Backward(loss);
    tape->Clear();
  }
  ReleaseTape(std::move(tape));
  return loss_value;
}

std::unique_ptr<nn::Tape> GraphGenerator::AcquireTape() {
  {
    util::MutexLock lock(scratch_mu_);
    if (!tapes_.empty()) {
      std::unique_ptr<nn::Tape> tape = std::move(tapes_.back());
      tapes_.pop_back();
      return tape;
    }
  }
  return std::make_unique<nn::Tape>();
}

void GraphGenerator::ReleaseTape(std::unique_ptr<nn::Tape> tape) {
  util::MutexLock lock(scratch_mu_);
  tapes_.push_back(std::move(tape));
}

double GraphGenerator::LogProb(const GraphExample& example) const {
  nn::Tape tape;
  nn::TapeScope scope(&tape);
  return -SequenceLoss(example).value()(0, 0);
}

GeneratedGraph GraphGenerator::GenerateTape(
    const graph4ml::TypedGraph& seed, const std::vector<double>& condition,
    Rng* rng, double temperature) const {
  GeneratedGraph out;
  out.graph = seed;
  KGPIP_CHECK(!seed.node_types.empty()) << "seed subgraph required";
  nn::Tape tape;
  nn::TapeScope scope(&tape);

  // One softmax per decision, shared between the sample and its
  // log-probability (DecisionDist); buffers live outside the decode loop
  // so a step allocates nothing for them after the first.
  DecisionDist node_dist, choose_dist;

  Var states = InitNode(out.graph.node_types[0], condition);
  for (size_t i = 1; i < out.graph.node_types.size(); ++i) {
    states = ConcatRows(states, InitNode(out.graph.node_types[i],
                                         condition));
  }
  std::vector<std::pair<int, int>> edges = out.graph.edges;

  while (static_cast<int>(out.graph.num_nodes()) < config_.max_nodes) {
    states = Propagate(states, edges);
    Var h_graph = Readout(states);
    nn::Matrix node_logits = add_node_.Forward(h_graph).value();
    node_dist.Compute(node_logits.data(), node_logits.cols(), temperature);
    int picked = node_dist.Sample(rng, temperature);
    out.log_prob += node_dist.LogProbOf(picked);
    if (picked == config_.vocab_size) break;  // STOP

    int new_index = static_cast<int>(out.graph.num_nodes());
    out.graph.node_types.push_back(picked);
    Var h_new = InitNode(picked, condition);

    // Edge loop: Bernoulli "add edge" then categorical "to which node".
    // The heads are re-run every iteration on purpose — this is the
    // naive reference the decoder's once-per-step heads are checked
    // against.
    int edge_budget = new_index;  // at most one edge per earlier node
    while (edge_budget-- > 0) {
      nn::Matrix edge_logit =
          add_edge_.Forward(ConcatCols(h_graph, h_new)).value();
      double p_edge = nn::FastSigmoid(edge_logit(0, 0));
      bool add = temperature <= 0.0 ? p_edge >= 0.5
                                    : rng->Bernoulli(p_edge);
      out.log_prob += std::log(std::max(add ? p_edge : 1.0 - p_edge,
                                        1e-12));
      if (!add) break;
      Var tiled = MatMul(Var::Constant(states.rows(), 1, 1.0), h_new);
      nn::Matrix scores =
          choose_node_.Forward(ConcatCols(states, tiled)).value()
              .Transposed();
      choose_dist.Compute(scores.data(), scores.cols(), temperature);
      int src = choose_dist.Sample(rng, temperature);
      out.log_prob += choose_dist.LogProbOf(src);
      bool duplicate = false;
      for (const auto& [s, d] : edges) {
        if (s == src && d == new_index) duplicate = true;
      }
      if (!duplicate) {
        edges.emplace_back(src, new_index);
        out.graph.edges.emplace_back(src, new_index);
      }
    }
    states = ConcatRows(states, h_new);
  }
  return out;
}

size_t GraphGenerator::DecodeOnFreeList(
    const graph4ml::TypedGraph& seed, const std::vector<double>& condition,
    Rng* rngs, GeneratedGraph* results, size_t k, double temperature) const {
  std::unique_ptr<MultiLaneDecoder> decoder;
  {
    util::MutexLock lock(scratch_mu_);
    if (!decoders_.empty()) {
      decoder = std::move(decoders_.back());
      decoders_.pop_back();
    }
  }
  // Construction happens outside the lock: it allocates the full decode
  // scratch and only touches this generator's (immutable-here) weights.
  if (decoder == nullptr) {
    decoder = std::make_unique<MultiLaneDecoder>(this, k);
  }
  const size_t allocs_before = decoder->alloc_events();
  decoder->DecodeLanes(seed, condition, rngs, results, k, temperature);
  const size_t grown = decoder->alloc_events() - allocs_before;
  util::MutexLock lock(scratch_mu_);
  decoders_.push_back(std::move(decoder));
  return grown;
}

void GraphGenerator::CheckAgainstTape(const graph4ml::TypedGraph& seed,
                                      const std::vector<double>& condition,
                                      Rng* tape_rngs,
                                      const GeneratedGraph* results,
                                      size_t k, double temperature) const {
  util::ThreadPool::Global().ParallelFor(k, [&](size_t i) {
    GeneratedGraph ref =
        GenerateTape(seed, condition, &tape_rngs[i], temperature);
    KGPIP_CHECK(results[i].graph.node_types == ref.graph.node_types)
        << "tape-free decode diverged from tape (node types)";
    KGPIP_CHECK(results[i].graph.edges == ref.graph.edges)
        << "tape-free decode diverged from tape (edges)";
    KGPIP_CHECK(results[i].log_prob == ref.log_prob)
        << "tape-free decode diverged from tape (log-prob)";
  });
}

GeneratedGraph GraphGenerator::Generate(const graph4ml::TypedGraph& seed,
                                        const std::vector<double>& condition,
                                        Rng* rng,
                                        double temperature) const {
  KGPIP_TRACE_SPAN("gen.generate");
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  static obs::Histogram* generate_seconds =
      metrics.GetHistogram("gen.generate_seconds");
  static obs::Counter* generate_allocs =
      metrics.GetCounter("gen.generate_allocs");
  Stopwatch watch;
  struct RecordOnExit {
    obs::Histogram* hist;
    Stopwatch* watch;
    ~RecordOnExit() { hist->Record(watch->ElapsedSeconds()); }
  } record{generate_seconds, &watch};
  Rng tape_rng = *rng;  // identical stream for the cross-check decode
  GeneratedGraph out;
  generate_allocs->Increment(static_cast<int64_t>(
      DecodeOnFreeList(seed, condition, rng, &out, 1, temperature)));
  if (config_.cross_check) {
    CheckAgainstTape(seed, condition, &tape_rng, &out, 1, temperature);
  }
  return out;
}

std::vector<GeneratedGraph> GraphGenerator::GenerateTopK(
    const graph4ml::TypedGraph& seed, const std::vector<double>& condition,
    size_t k, Rng* rng, double temperature) const {
  KGPIP_TRACE_SPAN("gen.generate_topk");
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  static obs::Histogram* topk_seconds =
      metrics.GetHistogram("gen.generate_topk_seconds");
  static obs::Counter* generate_allocs =
      metrics.GetCounter("gen.generate_allocs");
  if (k == 0) return {};
  Stopwatch watch;
  util::ThreadPool& pool = util::ThreadPool::Global();
  // Fork one stream per candidate *before* dispatch, and write results
  // by candidate index: output is then a function of (seed rng, k) only.
  // The k lanes are cut into one contiguous shard per pool lane; each
  // shard decodes on a MultiLaneDecoder that batches the network
  // evaluations of lanes whose decision histories are still identical.
  // Batching is bitwise output-neutral and lane i consumes only rngs[i]
  // in the tape's draw order, so the shard boundaries — which change
  // with the pool size — cannot change any byte of the output.
  std::vector<Rng> rngs = util::ForkRngs(rng, k);
  std::vector<Rng> tape_rngs;
  if (config_.cross_check) tape_rngs = rngs;  // pre-decode copies
  std::vector<GeneratedGraph> results(k);
  std::atomic<size_t> alloc_delta{0};
  const size_t shards = std::min(k, static_cast<size_t>(pool.num_lanes()));
  pool.ParallelFor(shards, [&](size_t s) {
    const size_t begin = s * k / shards;
    const size_t end = (s + 1) * k / shards;
    alloc_delta.fetch_add(
        DecodeOnFreeList(seed, condition, &rngs[begin], &results[begin],
                         end - begin, temperature),
        std::memory_order_relaxed);
  });
  if (config_.cross_check) {
    CheckAgainstTape(seed, condition, tape_rngs.data(), results.data(), k,
                     temperature);
  }
  generate_allocs->Increment(
      static_cast<int64_t>(alloc_delta.load(std::memory_order_relaxed)));
  topk_seconds->Record(watch.ElapsedSeconds());
  return results;
}

Json GraphGenerator::ToJson() const {
  Json out = Json::Object();
  Json config = Json::Object();
  config.Set("vocab_size", Json(config_.vocab_size));
  config.Set("hidden", Json(config_.hidden));
  config.Set("prop_rounds", Json(config_.prop_rounds));
  config.Set("max_nodes", Json(config_.max_nodes));
  config.Set("condition_dims", Json(config_.condition_dims));
  out.Set("config", std::move(config));
  out.Set("weights", store_.ToJson());
  return out;
}

Status GraphGenerator::LoadWeights(const Json& json) {
  const Json& config = json.Get("config");
  if (static_cast<int>(config.Get("vocab_size").AsInt()) !=
          config_.vocab_size ||
      static_cast<int>(config.Get("hidden").AsInt()) != config_.hidden) {
    return Status::InvalidArgument(
        "generator config mismatch; construct with matching config");
  }
  return store_.FromJson(json.Get("weights"));
}

}  // namespace kgpip::gen
