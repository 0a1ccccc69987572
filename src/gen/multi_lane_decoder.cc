#include "gen/multi_lane_decoder.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/inference.h"
#include "util/logging.h"

namespace kgpip::gen {

void DecisionDist::Compute(const double* logits, size_t k,
                           double temperature) {
  KGPIP_CHECK(k > 0);
  k_ = k;
  argmax_ = 0;
  for (size_t c = 1; c < k; ++c) {
    if (logits[c] > logits[argmax_]) argmax_ = c;
  }
  if (k > probs_.capacity()) ++alloc_events_;
  probs_.resize(k);
  nn::SoftmaxRow(logits, k, probs_.data());
  tempered_valid_ = false;
  if (temperature > 0.0 && temperature != 1.0) {
    if (k > tempered_.capacity()) ++alloc_events_;
    tempered_.resize(k);
    // Division (not reciprocal multiply): `logits[c] / t` is the tape
    // expression, and the two are not bit-equal in general.
    for (size_t c = 0; c < k; ++c) tempered_[c] = logits[c] / temperature;
    nn::SoftmaxRow(tempered_.data(), k, tempered_.data());
    tempered_valid_ = true;
  }
}

int DecisionDist::Sample(Rng* rng, double temperature) const {
  if (temperature <= 0.0) return static_cast<int>(argmax_);
  const std::vector<double>& w = tempered_valid_ ? tempered_ : probs_;
  return static_cast<int>(rng->Categorical(w.data(), k_));
}

double DecisionDist::LogProbOf(int pick) const {
  return std::log(std::max(probs_[static_cast<size_t>(pick)], 1e-12));
}

MultiLaneDecoder::MultiLaneDecoder(const GraphGenerator* model,
                                   size_t lane_capacity)
    : model_(model), lane_capacity_(std::max<size_t>(lane_capacity, 1)) {
  const GeneratorConfig& cfg = model_->config_;
  const size_t h = static_cast<size_t>(cfg.hidden);
  const size_t n_cap = static_cast<size_t>(std::max(cfg.max_nodes, 1));
  const size_t vocab = static_cast<size_t>(cfg.vocab_size);
  const size_t K = lane_capacity_;
  const size_t e_cap = n_cap * (n_cap - 1) / 2 + n_cap;
  const size_t rows_cap = K * n_cap;
  const size_t e_all_cap = K * e_cap;
  states_all_.ReserveElems(rows_cap * h);
  next_states_all_.ReserveElems(rows_cap * h);
  acc_fwd_.ReserveElems(rows_cap * h);
  acc_bwd_.ReserveElems(rows_cap * h);
  msg_concat_.ReserveElems(e_all_cap * 2 * h);
  msg_rows_.ReserveElems(e_all_cap * h);
  gru_.z.ReserveElems(rows_cap * h);
  gru_.r.ReserveElems(rows_cap * h);
  gru_.cand.ReserveElems(rows_cap * h);
  gru_.tmp.ReserveElems(rows_cap * h);
  gru_.rh.ReserveElems(rows_cap * h);
  gru_wx_.ReserveElems(h * 3 * h);
  gru_bx_.ReserveElems(3 * h);
  gru_wh2_.ReserveElems(h * 2 * h);
  gru_bh2_.ReserveElems(2 * h);
  gru_xg_.ReserveElems(rows_cap * 3 * h);
  gru_hg_.ReserveElems(rows_cap * 2 * h);
  gates_.ReserveElems(rows_cap * h);
  content_.ReserveElems(rows_cap * h);
  h_graph_all_.ReserveElems(K * h);
  node_logits_all_.ReserveElems(K * (vocab + 1));
  edge_concat_all_.ReserveElems(K * 2 * h);
  edge_logit_all_.ReserveElems(K);
  choose_concat_all_.ReserveElems(rows_cap * 2 * h);
  choose_scores_all_.ReserveElems(rows_cap);
  emb_row_.ReserveElems(h);
  init_tmp_.ReserveElems(h);
  type_init_.ReserveElems(vocab * h);
  type_init_valid_.reserve(vocab);
  const size_t cond_dims =
      static_cast<size_t>(std::max(cfg.condition_dims, 0));
  cond_in_.ReserveElems(cond_dims);
  cond_row_.ReserveElems(h);
  condition_.reserve(cond_dims);
  node_dists_.resize(K);
  choose_dists_.resize(K);
  for (DecisionDist& d : node_dists_) d.Reserve(vocab + 1);
  for (DecisionDist& d : choose_dists_) d.Reserve(n_cap);
  p_edge_.reserve(K);
  groups_a_.resize(K);
  groups_b_.resize(K);
  for (std::vector<LaneGroup>* gs : {&groups_a_, &groups_b_}) {
    for (LaneGroup& g : *gs) {
      g.lanes.reserve(K);
      g.node_types.reserve(n_cap);
      g.edges.reserve(e_cap);
    }
  }
  lane_pick_.reserve(K);
  lane_pair_.reserve(K);
  lane_log_prob_.reserve(K);
  lane_srcs_.resize(K);
  for (std::vector<int>& v : lane_srcs_) v.reserve(n_cap);
  pair_group_.reserve(K);
  pair_type_.reserve(K);
  gsrcs_.reserve(e_all_cap);
  gdsts_.reserve(e_all_cap);
}

size_t MultiLaneDecoder::alloc_events() const {
  size_t total = alloc_events_;
  for (const DecisionDist& d : node_dists_) total += d.alloc_events();
  for (const DecisionDist& d : choose_dists_) total += d.alloc_events();
  return total;
}

void MultiLaneDecoder::EnsureCondRow() {
  if (cond_row_valid_) return;
  const GeneratorConfig& cfg = model_->config_;
  const size_t dims = static_cast<size_t>(cfg.condition_dims);
  // Same construction as the tape path: zero row, then copy the prefix
  // that both the row and the condition vector cover.
  Shape(&cond_in_, 1, dims);
  cond_in_.Fill(0.0);
  for (size_t i = 0; i < dims && i < condition_.size(); ++i) {
    cond_in_(0, i) = condition_[i];
  }
  model_->cond_proj_.ForwardValue(cond_in_, &cond_row_);
  cond_row_valid_ = true;
}

const double* MultiLaneDecoder::InitRow(int type) {
  const size_t h = static_cast<size_t>(model_->config_.hidden);
  const size_t t = static_cast<size_t>(type);
  KGPIP_CHECK(t < type_init_valid_.size());
  double* row = type_init_.data() + t * h;
  if (type_init_valid_[t]) return row;
  // Tape semantics: Tanh(init_node(emb[type]) [+ cond_proj(condition)]).
  // The cache is decode-global: initial states depend only on (weights,
  // condition), so every lane shares one row per type.
  const nn::Matrix& emb = model_->type_embedding_.value();
  Shape(&emb_row_, 1, h);
  std::memcpy(emb_row_.data(), emb.data() + t * h, h * sizeof(double));
  model_->init_node_.ForwardValue(emb_row_, &init_tmp_);
  if (type == graph4ml::PipelineVocab::kDatasetType &&
      model_->config_.condition_dims > 0 && !condition_.empty()) {
    EnsureCondRow();
    init_tmp_.AddInPlace(cond_row_);
  }
  nn::TanhInPlace(&init_tmp_);
  std::memcpy(row, init_tmp_.data(), h * sizeof(double));
  type_init_valid_[t] = 1;
  return row;
}

void MultiLaneDecoder::PropagateAll(size_t num_groups, size_t n) {
  const GeneratorConfig& cfg = model_->config_;
  const size_t h = static_cast<size_t>(cfg.hidden);
  const std::vector<LaneGroup>& cur = cur_is_a_ ? groups_a_ : groups_b_;
  const size_t n_total = num_groups * n;
  size_t e_all = 0;
  for (size_t g = 0; g < num_groups; ++g) e_all += cur[g].edges.size();
  for (int round = 0; round < cfg.prop_rounds; ++round) {
    // Both scatter accumulators zeroed for every group; a group with no
    // edges keeps +0.0 rows, which is bitwise the tape's zero-message
    // round (+0.0 + +0.0 == +0.0).
    Shape(&acc_fwd_, n_total, h);
    acc_fwd_.Fill(0.0);
    Shape(&acc_bwd_, n_total, h);
    acc_bwd_.Fill(0.0);
    if (e_all > 0) {
      Size(&gsrcs_, e_all);
      Size(&gdsts_, e_all);
      size_t idx = 0;
      for (size_t g = 0; g < num_groups; ++g) {
        const size_t base = g * n;
        for (const auto& [s, d] : cur[g].edges) {
          gsrcs_[idx] = base + static_cast<size_t>(s);
          gdsts_[idx] = base + static_cast<size_t>(d);
          ++idx;
        }
      }
      // Forward messages: tanh(msg_fwd([h_src, h_dst])) scattered to
      // dst. One GEMM over every group's edges — rows are independent,
      // so stacking cannot change any row's bytes; the scatter visits
      // each group's edges in its own edge order, exactly the tape's
      // accumulation order per destination row.
      Shape(&msg_concat_, e_all, 2 * h);
      for (size_t i = 0; i < e_all; ++i) {
        double* row = msg_concat_.data() + i * 2 * h;
        std::memcpy(row, states_all_.data() + gsrcs_[i] * h,
                    h * sizeof(double));
        std::memcpy(row + h, states_all_.data() + gdsts_[i] * h,
                    h * sizeof(double));
      }
      model_->msg_fwd_.ForwardValue(msg_concat_, &msg_rows_,
                                    nn::Activation::kTanh);
      for (size_t i = 0; i < e_all; ++i) {
        double* dst = acc_fwd_.data() + gdsts_[i] * h;
        const double* src = msg_rows_.data() + i * h;
        for (size_t j = 0; j < h; ++j) dst[j] += src[j];
      }
      // Backward messages: tanh(msg_bwd([h_dst, h_src])) scattered to
      // src.
      for (size_t i = 0; i < e_all; ++i) {
        double* row = msg_concat_.data() + i * 2 * h;
        std::memcpy(row, states_all_.data() + gdsts_[i] * h,
                    h * sizeof(double));
        std::memcpy(row + h, states_all_.data() + gsrcs_[i] * h,
                    h * sizeof(double));
      }
      model_->msg_bwd_.ForwardValue(msg_concat_, &msg_rows_,
                                    nn::Activation::kTanh);
      for (size_t i = 0; i < e_all; ++i) {
        double* dst = acc_bwd_.data() + gsrcs_[i] * h;
        const double* src = msg_rows_.data() + i * h;
        for (size_t j = 0; j < h; ++j) dst[j] += src[j];
      }
    }
    // Two separate accumulators summed afterwards, as the tape does.
    acc_fwd_.AddInPlace(acc_bwd_);
    // One fused GRU over every group's rows (row-independent).
    nn::GruFusedForward(acc_fwd_, states_all_, gru_wx_, gru_bx_, gru_wh2_,
                        gru_bh2_, model_->update_.hn().weight_value(),
                        model_->update_.hn().bias_value(), &gru_xg_,
                        &gru_hg_, &gru_.z, &gru_.r, &gru_.rh, &gru_.tmp,
                        &gru_.cand, &next_states_all_);
    std::swap(states_all_, next_states_all_);
  }
}

void MultiLaneDecoder::ReadoutAll(size_t num_groups, size_t n) {
  const size_t h = static_cast<size_t>(model_->config_.hidden);
  // Gated-sum readout over the whole stack, then per-group row sums in
  // ascending row order (the tape's SumRows accumulation order).
  model_->gate_.ForwardValue(states_all_, &gates_, nn::Activation::kSigmoid);
  model_->proj_.ForwardValue(states_all_, &content_);
  nn::MulInto(gates_, content_, &content_);
  Shape(&h_graph_all_, num_groups, h);
  h_graph_all_.Fill(0.0);
  for (size_t g = 0; g < num_groups; ++g) {
    double* out = h_graph_all_.data() + g * h;
    for (size_t i = 0; i < n; ++i) {
      const double* row = content_.data() + (g * n + i) * h;
      for (size_t j = 0; j < h; ++j) out[j] += row[j];
    }
  }
  model_->add_node_.ForwardValue(h_graph_all_, &node_logits_all_);
}

void MultiLaneDecoder::DecodeLanes(const graph4ml::TypedGraph& seed,
                                   const std::vector<double>& condition,
                                   Rng* rngs, GeneratedGraph* results,
                                   size_t k, double temperature) {
  KGPIP_CHECK(!seed.node_types.empty()) << "seed subgraph required";
  KGPIP_CHECK(k > 0);
  const GeneratorConfig& cfg = model_->config_;
  const size_t h = static_cast<size_t>(cfg.hidden);
  const size_t vocab = static_cast<size_t>(cfg.vocab_size);

  // Per-decode shared caches (identical for every lane: same weights,
  // same condition).
  if (condition.size() > condition_.capacity()) ++alloc_events_;
  condition_.assign(condition.begin(), condition.end());
  Size(&type_init_valid_, vocab);
  std::fill(type_init_valid_.begin(), type_init_valid_.end(), 0);
  Shape(&type_init_, vocab, h);
  cond_row_valid_ = false;
  // Re-packing the fused GRU gate panels costs a few KB of copies per
  // decode, and a pooled decoder can then never hold stale panels after
  // training moves the weights.
  model_->update_.PackFused(&gru_wx_, &gru_bx_, &gru_wh2_, &gru_bh2_);

  // Per-lane state.
  Size(&lane_pick_, k);
  Size(&lane_pair_, k);
  Size(&lane_log_prob_, k);
  std::fill(lane_log_prob_.begin(), lane_log_prob_.end(), 0.0);
  if (k > lane_srcs_.size()) {
    ++alloc_events_;
    lane_srcs_.resize(k);
  }
  if (k > groups_a_.size()) {
    ++alloc_events_;
    groups_a_.resize(k);
    groups_b_.resize(k);
  }
  if (k > node_dists_.size()) {
    ++alloc_events_;
    node_dists_.resize(k);
    choose_dists_.resize(k);
  }

  // Every lane starts in one group holding the seed graph.
  size_t n = seed.node_types.size();
  num_groups_ = 1;
  cur_is_a_ = true;
  {
    LaneGroup& g0 = groups_a_[0];
    if (k > g0.lanes.capacity()) ++alloc_events_;
    g0.lanes.clear();
    for (size_t i = 0; i < k; ++i) g0.lanes.push_back(static_cast<int>(i));
    if (seed.node_types.size() > g0.node_types.capacity()) ++alloc_events_;
    g0.node_types.assign(seed.node_types.begin(), seed.node_types.end());
    if (seed.edges.size() > g0.edges.capacity()) ++alloc_events_;
    g0.edges.assign(seed.edges.begin(), seed.edges.end());
  }
  Shape(&states_all_, n, h);
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(states_all_.data() + i * h, InitRow(seed.node_types[i]),
                h * sizeof(double));
  }

  auto finalize = [&](const LaneGroup& g, int lane) {
    GeneratedGraph& out = results[lane];
    out.graph.node_types = g.node_types;
    out.graph.edges = g.edges;
    out.log_prob = lane_log_prob_[static_cast<size_t>(lane)];
  };

  const size_t max_nodes = static_cast<size_t>(std::max(cfg.max_nodes, 0));
  while (n < max_nodes && num_groups_ > 0) {
    std::vector<LaneGroup>& cur = cur_is_a_ ? groups_a_ : groups_b_;
    std::vector<LaneGroup>& next = cur_is_a_ ? groups_b_ : groups_a_;
    const size_t G = num_groups_;
    PropagateAll(G, n);
    ReadoutAll(G, n);

    // Node-type sampling. One distribution per group; each lane draws
    // from its own stream in the tape's order.
    for (size_t g = 0; g < G; ++g) {
      node_dists_[g].Compute(node_logits_all_.data() + g * (vocab + 1),
                             vocab + 1, temperature);
    }
    pair_group_.clear();
    pair_type_.clear();
    size_t nonstop = 0;
    for (size_t g = 0; g < G; ++g) {
      const size_t pair_begin = pair_group_.size();
      for (int lane : cur[g].lanes) {
        const int pick = node_dists_[g].Sample(&rngs[lane], temperature);
        lane_log_prob_[static_cast<size_t>(lane)] +=
            node_dists_[g].LogProbOf(pick);
        if (pick == cfg.vocab_size) {  // STOP: lane is done, no more draws
          lane_pick_[static_cast<size_t>(lane)] = -1;
          finalize(cur[g], lane);
          continue;
        }
        ++nonstop;
        lane_pick_[static_cast<size_t>(lane)] = pick;
        // Find (or append) this group's (type) pair.
        size_t p = pair_begin;
        for (; p < pair_group_.size(); ++p) {
          if (pair_type_[p] == pick) break;
        }
        if (p == pair_group_.size()) {
          if (pair_group_.size() == pair_group_.capacity()) ++alloc_events_;
          pair_group_.push_back(static_cast<int>(g));
          pair_type_.push_back(pick);
        }
        lane_pair_[static_cast<size_t>(lane)] = static_cast<int>(p);
      }
    }

    const size_t P = pair_group_.size();
    if (P > 0) {
      // Batched decision heads, one row block per (group, staged type).
      // Both heads read only (states, h_graph, h_new) — all constant
      // until the node commits — so one evaluation per pair replays the
      // tape's per-iteration recompute.
      Shape(&edge_concat_all_, P, 2 * h);
      for (size_t p = 0; p < P; ++p) {
        double* row = edge_concat_all_.data() + p * 2 * h;
        std::memcpy(row,
                    h_graph_all_.data() +
                        static_cast<size_t>(pair_group_[p]) * h,
                    h * sizeof(double));
        std::memcpy(row + h, InitRow(pair_type_[p]), h * sizeof(double));
      }
      model_->add_edge_.ForwardValue(edge_concat_all_, &edge_logit_all_);
      Size(&p_edge_, P);
      for (size_t p = 0; p < P; ++p) {
        p_edge_[p] = nn::SigmoidScalar(edge_logit_all_(p, 0));
      }
      Shape(&choose_concat_all_, P * n, 2 * h);
      for (size_t p = 0; p < P; ++p) {
        const size_t base =
            static_cast<size_t>(pair_group_[p]) * n;
        const double* hn = InitRow(pair_type_[p]);
        for (size_t i = 0; i < n; ++i) {
          double* row = choose_concat_all_.data() + (p * n + i) * 2 * h;
          std::memcpy(row, states_all_.data() + (base + i) * h,
                      h * sizeof(double));
          // The tape tiles h_new with MatMul(ones(n, 1), h_new), whose
          // kernel computes 0.0 + 1.0 * v per element — replicate that
          // expression (it maps -0.0 to +0.0, unlike a plain copy).
          for (size_t j = 0; j < h; ++j) row[h + j] = 0.0 + 1.0 * hn[j];
        }
      }
      model_->choose_node_.ForwardValue(choose_concat_all_,
                                        &choose_scores_all_);
      for (size_t p = 0; p < P; ++p) {
        // The head's (P*n) x 1 output is row-major, so pair p's scores
        // are the contiguous run [p*n, (p+1)*n) — the 1 x n transpose
        // the tape takes.
        choose_dists_[p].Compute(choose_scores_all_.data() + p * n, n,
                                 temperature);
      }
    }

    // Per-lane edge loop: pure sampling against the pair's cached
    // p_edge / choose distribution (no further network evaluation; the
    // tape recomputes the same heads every iteration). A duplicate pick
    // is exactly "src already added this step" — prior edges all have
    // dst < n.
    for (size_t g = 0; g < G; ++g) {
      for (int lane : cur[g].lanes) {
        if (lane_pick_[static_cast<size_t>(lane)] < 0) continue;
        std::vector<int>& srcs = lane_srcs_[static_cast<size_t>(lane)];
        srcs.clear();
        const size_t p =
            static_cast<size_t>(lane_pair_[static_cast<size_t>(lane)]);
        int edge_budget = static_cast<int>(n);
        while (edge_budget-- > 0) {
          const double pe = p_edge_[p];
          const bool add = temperature <= 0.0 ? pe >= 0.5
                                              : rngs[lane].Bernoulli(pe);
          lane_log_prob_[static_cast<size_t>(lane)] +=
              std::log(std::max(add ? pe : 1.0 - pe, 1e-12));
          if (!add) break;
          const int src =
              choose_dists_[p].Sample(&rngs[lane], temperature);
          lane_log_prob_[static_cast<size_t>(lane)] +=
              choose_dists_[p].LogProbOf(src);
          bool duplicate = false;
          for (int s : srcs) {
            if (s == src) duplicate = true;
          }
          if (!duplicate) srcs.push_back(src);
        }
      }
    }

    // Partition every parent's surviving lanes into child groups keyed
    // by (type, ordered source sequence) — the scatter accumulation
    // follows edge order, so only an identical ordered history keeps
    // states bitwise shared. Child states are copied as they form; the
    // stack is trimmed to the real child count afterwards (Reshape
    // keeps the prefix).
    Shape(&next_states_all_, nonstop * (n + 1), h);
    size_t next_count = 0;
    for (size_t g = 0; g < G; ++g) {
      const size_t child_begin = next_count;
      const size_t parent_edges = cur[g].edges.size();
      for (int lane : cur[g].lanes) {
        const int pick = lane_pick_[static_cast<size_t>(lane)];
        if (pick < 0) continue;
        const std::vector<int>& srcs =
            lane_srcs_[static_cast<size_t>(lane)];
        size_t c = child_begin;
        for (; c < next_count; ++c) {
          const LaneGroup& cand = next[c];
          if (cand.node_types.back() != pick) continue;
          if (cand.edges.size() != parent_edges + srcs.size()) continue;
          bool same = true;
          for (size_t i = 0; i < srcs.size(); ++i) {
            if (cand.edges[parent_edges + i].first != srcs[i]) same = false;
          }
          if (same) break;
        }
        if (c == next_count) {
          if (next_count == next.size()) {
            ++alloc_events_;
            next.resize(next_count + 1);
          }
          LaneGroup& child = next[next_count];
          child.lanes.clear();
          if (cur[g].node_types.size() + 1 > child.node_types.capacity()) {
            ++alloc_events_;
          }
          child.node_types.assign(cur[g].node_types.begin(),
                                  cur[g].node_types.end());
          child.node_types.push_back(pick);
          if (parent_edges + srcs.size() > child.edges.capacity()) {
            ++alloc_events_;
          }
          child.edges.assign(cur[g].edges.begin(), cur[g].edges.end());
          for (int s : srcs) {
            child.edges.emplace_back(s, static_cast<int>(n));
          }
          // Child states: the parent's rows plus the staged node's row
          // (the tape's ConcatRows(states, h_new), in the new stack).
          double* dst = next_states_all_.data() + next_count * (n + 1) * h;
          std::memcpy(dst, states_all_.data() + g * n * h,
                      n * h * sizeof(double));
          std::memcpy(dst + n * h, InitRow(pick), h * sizeof(double));
          ++next_count;
        }
        if (next[c].lanes.size() == next[c].lanes.capacity()) {
          ++alloc_events_;
        }
        next[c].lanes.push_back(lane);
      }
    }
    next_states_all_.Reshape(next_count * (n + 1), h);
    std::swap(states_all_, next_states_all_);
    num_groups_ = next_count;
    cur_is_a_ = !cur_is_a_;
    ++n;
  }

  // Lanes still alive hit the node budget; emit their group's graph.
  const std::vector<LaneGroup>& cur = cur_is_a_ ? groups_a_ : groups_b_;
  for (size_t g = 0; g < num_groups_; ++g) {
    for (int lane : cur[g].lanes) finalize(cur[g], lane);
  }
}

}  // namespace kgpip::gen
