#include "graph4ml/graph4ml.h"

#include <string>

#include "codegraph/analyzer.h"
#include "graph4ml/verify.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace kgpip::graph4ml {

Status Graph4Ml::Build(
    const std::vector<codegraph::NotebookScript>& scripts) {
  KGPIP_TRACE_SPAN("graph4ml.build");
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  static obs::Counter* analyzed =
      metrics.GetCounter("graph4ml.scripts_analyzed");
  static obs::Counter* kept = metrics.GetCounter("graph4ml.scripts_kept");
  static obs::Counter* filter_rejected =
      metrics.GetCounter("graph4ml.filter_rejected");
  // Per-script analyze+filter is the pipeline-mining hot loop; each
  // script is independent, so it fans out over the pool. All mutation of
  // shared state (counters, stats, by_dataset_, warnings) happens in the
  // ordered merge below, keeping results and logs in script order.
  struct ScriptResult {
    Status analyze_status = Status::Ok();
    PipelineGraph pipeline;
    FilterStats stats;
  };
  std::vector<ScriptResult> results =
      util::ThreadPool::Global().ParallelMap<ScriptResult>(
          scripts.size(), [&](size_t i) {
            const codegraph::NotebookScript& script = scripts[i];
            ScriptResult r;
            auto code_graph =
                codegraph::AnalyzeScript(script.name, script.text);
            if (!code_graph.ok()) {
              r.analyze_status = code_graph.status();
              return r;
            }
            r.pipeline =
                FilterCodeGraph(*code_graph, script.dataset_name, &r.stats);
            return r;
          });
  for (size_t i = 0; i < results.size(); ++i) {
    ScriptResult& r = results[i];
    ++scripts_analyzed_;
    analyzed->Increment();
    if (!r.analyze_status.ok()) {
      // Real-world mining skips unparseable scripts rather than failing
      // the whole corpus. Rejections are counted per status code so the
      // metrics snapshot says *why* graphs were dropped.
      metrics
          .GetCounter(std::string("graph4ml.analyze_failed.") +
                      StatusCodeName(r.analyze_status.code()))
          ->Increment();
      KGPIP_LOG(Warning) << "skipping " << scripts[i].name << ": "
                         << r.analyze_status.ToString();
      continue;
    }
    filter_stats_.raw_nodes += r.stats.raw_nodes;
    filter_stats_.raw_edges += r.stats.raw_edges;
    filter_stats_.filtered_nodes += r.stats.filtered_nodes;
    filter_stats_.filtered_edges += r.stats.filtered_edges;
    if (!r.pipeline.valid()) {
      // No supported estimator reachable — EDA-only or unsupported
      // framework, the >96 % of a portal dump the filter removes.
      filter_rejected->Increment();
      continue;
    }
    ++scripts_kept_;
    kept->Increment();
    by_dataset_[r.pipeline.dataset_name].push_back(std::move(r.pipeline));
  }
  return Status::Ok();
}

const std::vector<PipelineGraph>& Graph4Ml::PipelinesFor(
    const std::string& dataset_name) const {
  static const std::vector<PipelineGraph>& kEmpty =
      *new std::vector<PipelineGraph>();
  auto it = by_dataset_.find(dataset_name);
  return it == by_dataset_.end() ? kEmpty : it->second;
}

std::vector<std::string> Graph4Ml::DatasetNames() const {
  std::vector<std::string> names;
  names.reserve(by_dataset_.size());
  for (const auto& [name, pipelines] : by_dataset_) names.push_back(name);
  return names;
}

std::vector<const PipelineGraph*> Graph4Ml::AllPipelines() const {
  std::vector<const PipelineGraph*> all;
  for (const auto& [name, pipelines] : by_dataset_) {
    for (const PipelineGraph& p : pipelines) all.push_back(&p);
  }
  return all;
}

size_t Graph4Ml::NumPipelines() const {
  size_t n = 0;
  for (const auto& [name, pipelines] : by_dataset_) n += pipelines.size();
  return n;
}

std::map<std::string, size_t> Graph4Ml::OpHistogram() const {
  std::map<std::string, size_t> histogram;
  for (const auto& [name, pipelines] : by_dataset_) {
    for (const PipelineGraph& p : pipelines) {
      for (const std::string& t : p.transformers) ++histogram[t];
      ++histogram[p.estimator];
    }
  }
  return histogram;
}

Json Graph4Ml::ToJson() const {
  Json out = Json::Object();
  out.Set("scripts_analyzed", Json(scripts_analyzed_));
  out.Set("scripts_kept", Json(scripts_kept_));
  Json datasets = Json::Object();
  for (const auto& [name, pipelines] : by_dataset_) {
    Json list = Json::Array();
    for (const PipelineGraph& p : pipelines) {
      Json entry = Json::Object();
      entry.Set("script", Json(p.script_name));
      entry.Set("estimator", Json(p.estimator));
      Json transformers = Json::Array();
      for (const std::string& t : p.transformers) transformers.Append(t);
      entry.Set("transformers", std::move(transformers));
      Json types = Json::Array();
      for (int t : p.graph.node_types) types.Append(Json(t));
      entry.Set("node_types", std::move(types));
      Json edges = Json::Array();
      for (const auto& [src, dst] : p.graph.edges) {
        Json pair = Json::Array();
        pair.Append(Json(src));
        pair.Append(Json(dst));
        edges.Append(std::move(pair));
      }
      entry.Set("edges", std::move(edges));
      list.Append(std::move(entry));
    }
    datasets.Set(name, std::move(list));
  }
  out.Set("datasets", std::move(datasets));
  return out;
}

Result<Graph4Ml> Graph4Ml::FromJson(const Json& json) {
  Graph4Ml store;
  const Json& datasets = json.Get("datasets");
  if (!datasets.is_object()) {
    return Status::ParseError("Graph4Ml JSON missing 'datasets' object");
  }
  for (const auto& [name, list] : datasets.members()) {
    for (size_t i = 0; i < list.size(); ++i) {
      const Json& entry = list.at(i);
      PipelineGraph p;
      p.dataset_name = name;
      p.script_name = entry.Get("script").AsString();
      p.estimator = entry.Get("estimator").AsString();
      const Json& transformers = entry.Get("transformers");
      for (size_t t = 0; t < transformers.size(); ++t) {
        p.transformers.push_back(transformers.at(t).AsString());
      }
      const Json& types = entry.Get("node_types");
      for (size_t t = 0; t < types.size(); ++t) {
        p.graph.node_types.push_back(
            static_cast<int>(types.at(t).AsInt()));
      }
      const Json& edges = entry.Get("edges");
      for (size_t e = 0; e < edges.size(); ++e) {
        p.graph.edges.emplace_back(
            static_cast<int>(edges.at(e).at(0).AsInt()),
            static_cast<int>(edges.at(e).at(1).AsInt()));
      }
      if (!p.valid()) {
        return Status::ParseError("pipeline without estimator in '" +
                                  name + "'");
      }
      // A saved store holds filter output, so every pipeline must pass
      // the filter's own invariants; node types and edge endpoints
      // index the generator's tensors.
      const std::vector<codegraph::analysis::Diagnostic> findings =
          VerifyPipelineGraph(p);
      if (!findings.empty()) {
        return Status::ParseError("pipeline #" + std::to_string(i) +
                                  " in '" + name + "' is malformed: " +
                                  findings.front().ToString());
      }
      store.by_dataset_[name].push_back(std::move(p));
      ++store.scripts_analyzed_;
      ++store.scripts_kept_;
    }
  }
  return store;
}

}  // namespace kgpip::graph4ml
