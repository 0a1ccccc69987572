#include "codegraph/analyzer.h"

#include <map>
#include <set>
#include <vector>

#include "codegraph/analysis/call_graph.h"
#include "codegraph/analysis/type_flow.h"
#include "codegraph/analysis/verifier.h"
#include "codegraph/ml_api.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace kgpip::codegraph {

namespace {

using analysis::TypeEnv;

/// Location records emitted per import and call node (real graphs carry
/// several spans).
constexpr int kLocationFanout = 3;

/// Per-script graph emission. Types come from the flow-sensitive
/// RunTypeFlow (each statement sees the environment that actually
/// reaches it); this walk only tracks which graph nodes produce each
/// variable's value, forking and merging that node environment at
/// branches so a use after `if/else` draws data flow from both arms.
class Analysis {
 public:
  Analysis(const std::string& script_name, const Module& module)
      : module_(module), types_(analysis::RunTypeFlow(module)) {
    graph_.script_name = script_name;
  }

  Status Run() { return VisitBlock(module_.statements); }

  CodeGraph Take() { return std::move(graph_); }

 private:
  /// var -> graph nodes that may produce its current value.
  using NodeEnv = std::map<std::string, std::set<int>>;

  static NodeEnv MergeEnvs(const NodeEnv& a, const NodeEnv& b) {
    NodeEnv out = a;
    for (const auto& [var, nodes] : b) {
      out[var].insert(nodes.begin(), nodes.end());
    }
    return out;
  }

  Status VisitBlock(const std::vector<StmtPtr>& block) {
    for (const StmtPtr& stmt : block) {
      KGPIP_RETURN_IF_ERROR(VisitStmt(*stmt));
    }
    return Status::Ok();
  }

  Status VisitStmt(const Stmt& stmt) {
    current_stmt_ = &stmt;
    switch (stmt.kind) {
      case StmtKind::kImport: {
        std::string alias = stmt.alias.empty() ? stmt.module : stmt.alias;
        int node = graph_.AddNode(NodeKind::kImport, stmt.module, stmt.line);
        import_nodes_[alias] = node;
        AddLocations(node, stmt.line);
        return Status::Ok();
      }
      case StmtKind::kImportFrom: {
        std::string alias =
            stmt.alias.empty() ? stmt.imported_name : stmt.alias;
        int node = graph_.AddNode(NodeKind::kImport,
                                  stmt.module + "." + stmt.imported_name,
                                  stmt.line);
        import_nodes_[alias] = node;
        AddLocations(node, stmt.line);
        return Status::Ok();
      }
      case StmtKind::kAssign: {
        std::vector<int> value_nodes = VisitExpr(*stmt.value);
        for (const ExprPtr& target : stmt.targets) {
          if (target->kind == ExprKind::kName) {
            // The environment points at the producing nodes so downstream
            // uses flow from them; the variable node itself is metadata.
            int var_node = graph_.AddNode(NodeKind::kVariable, target->text,
                                          stmt.line);
            for (int value : value_nodes) {
              graph_.AddEdge(value, var_node, EdgeKind::kDataFlow);
            }
            if (!value_nodes.empty()) {
              env_[target->text] =
                  std::set<int>(value_nodes.begin(), value_nodes.end());
            }
          } else {
            // Attribute / subscript target: flow into the base object.
            std::vector<int> base_nodes = VisitExpr(*target);
            for (int value : value_nodes) {
              for (int base : base_nodes) {
                graph_.AddEdge(value, base, EdgeKind::kDataFlow);
              }
            }
          }
        }
        return Status::Ok();
      }
      case StmtKind::kExpr:
        VisitExpr(*stmt.value);
        return Status::Ok();
      case StmtKind::kFor: {
        std::vector<int> iter_nodes = VisitExpr(*stmt.value);
        if (!iter_nodes.empty()) {
          env_[stmt.loop_var] =
              std::set<int>(iter_nodes.begin(), iter_nodes.end());
        }
        // The body is emitted once; re-emitting per iteration would both
        // duplicate nodes and thread a value into its own producer,
        // breaking the data-flow DAG invariant. (The type fixpoint still
        // runs in RunTypeFlow, which has no such constraint.)
        return VisitBlock(stmt.body);
      }
      case StmtKind::kIf: {
        VisitExpr(*stmt.value);
        NodeEnv entry = env_;
        KGPIP_RETURN_IF_ERROR(VisitBlock(stmt.body));
        NodeEnv then_env = std::move(env_);
        env_ = entry;
        KGPIP_RETURN_IF_ERROR(VisitBlock(stmt.orelse));
        // Join: a later use may draw its value from either arm (or from
        // before the branch when an arm leaves the variable untouched).
        env_ = MergeEnvs(then_env, env_);
        return Status::Ok();
      }
    }
    return Status::Ok();
  }

  /// Emits graph structure for an expression; returns the nodes that may
  /// produce its value (empty if none).
  std::vector<int> VisitExpr(const Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kName: {
        auto it = env_.find(expr.text);
        if (it == env_.end()) return {};
        return std::vector<int>(it->second.begin(), it->second.end());
      }
      case ExprKind::kConstant:
        return {graph_.AddNode(NodeKind::kLiteral, expr.text, expr.line)};
      case ExprKind::kList: {
        int list_node =
            graph_.AddNode(NodeKind::kLiteral, "[list]", expr.line);
        for (const ExprPtr& item : expr.args) {
          for (int item_node : VisitExpr(*item)) {
            graph_.AddEdge(item_node, list_node, EdgeKind::kDataFlow);
          }
        }
        return {list_node};
      }
      case ExprKind::kSubscript: {
        std::vector<int> base_nodes = VisitExpr(*expr.value);
        VisitExpr(*expr.index);
        // Value flows through the subscript.
        return base_nodes;
      }
      case ExprKind::kBinOp: {
        std::vector<int> nodes = VisitExpr(*expr.value);
        std::vector<int> rhs = VisitExpr(*expr.index);
        nodes.insert(nodes.end(), rhs.begin(), rhs.end());
        return nodes;
      }
      case ExprKind::kAttribute:
        // Bare attribute read (not a call): flows from the base object.
        return VisitExpr(*expr.value);
      case ExprKind::kCall:
        return VisitCall(expr);
    }
    return {};
  }

  std::vector<int> VisitCall(const Expr& call) {
    const TypeEnv& type_env = types_.EnvAt(current_stmt_);
    std::string via_alias;
    std::vector<std::string> candidates = analysis::ResolveCalleeNames(
        *call.value, type_env, types_.imports, &via_alias);
    std::vector<int> receivers = ReceiverNodes(*call.value);

    // One call node per candidate qualified name. The primary (first)
    // candidate carries arguments, control flow and auxiliary nodes; the
    // others exist so downstream consumers (filter, verifier) see every
    // type the receiver may have at this point.
    int primary = -1;
    auto import_it = import_nodes_.find(via_alias);
    for (const std::string& qualified : candidates) {
      int call_node = graph_.AddNode(NodeKind::kCall, qualified, call.line);
      if (primary < 0) primary = call_node;
      for (int receiver : receivers) {
        graph_.AddEdge(receiver, call_node, EdgeKind::kDataFlow);
      }
      // Root the call in its import so "every import-rooted ML call is
      // reachable from an import node" is a checkable invariant.
      if (!via_alias.empty() && import_it != import_nodes_.end()) {
        graph_.AddEdge(import_it->second, call_node, EdgeKind::kDataFlow);
      }
    }

    // Control flow from the previous call in program order.
    if (last_call_node_ >= 0) {
      graph_.AddEdge(last_call_node_, primary, EdgeKind::kControlFlow);
    }
    last_call_node_ = primary;

    int arg_index = 0;
    auto handle_arg = [&](const Expr& arg, const std::string& kw) {
      std::vector<int> arg_nodes = VisitExpr(arg);
      std::string label =
          kw.empty() ? "arg" + std::to_string(arg_index) : kw;
      int param = graph_.AddNode(NodeKind::kParameter, label, call.line);
      graph_.AddEdge(primary, param, EdgeKind::kParameter);
      for (int arg_node : arg_nodes) {
        graph_.AddEdge(arg_node, param, EdgeKind::kDataFlow);
      }
      for (int arg_node : arg_nodes) {
        graph_.AddEdge(arg_node, primary, EdgeKind::kDataFlow);
      }
      ++arg_index;
    };
    for (const ExprPtr& arg : call.args) handle_arg(*arg, "");
    for (const KeywordArg& kw : call.keywords) handle_arg(*kw.value, kw.name);

    AddLocations(primary, call.line);
    if (call.line % 4 == 0) {
      int doc = graph_.AddNode(NodeKind::kDoc, "doc", call.line);
      graph_.AddEdge(primary, doc, EdgeKind::kDoc);
    }
    return {primary};
  }

  /// The nodes producing the receiver of an attribute-chain callee
  /// (empty for plain-name callees). A call/subscript base is emitted
  /// here, exactly once.
  std::vector<int> ReceiverNodes(const Expr& func) {
    if (func.kind != ExprKind::kAttribute) return {};
    const Expr* base = &func;
    while (base->kind == ExprKind::kAttribute) base = base->value.get();
    if (base->kind == ExprKind::kName) {
      auto it = env_.find(base->text);
      if (it == env_.end()) return {};
      return std::vector<int>(it->second.begin(), it->second.end());
    }
    return VisitExpr(*base);
  }

  void AddLocations(int node, int line) {
    // Labels "L<line>:<i>", appended piecewise: GCC 12 misreports
    // `"L" + std::string` under -Wrestrict.
    std::string stem = "L";
    stem += std::to_string(line);
    stem += ':';
    for (int i = 0; i < kLocationFanout; ++i) {
      std::string label = stem;
      label += std::to_string(i);
      int loc = graph_.AddNode(NodeKind::kLocation, std::move(label), line);
      graph_.AddEdge(node, loc, EdgeKind::kLocation);
    }
  }

  const Module& module_;
  const analysis::TypeFlowResult types_;
  CodeGraph graph_;
  const Stmt* current_stmt_ = nullptr;
  NodeEnv env_;
  std::map<std::string, int> import_nodes_;  // alias -> import node
  int last_call_node_ = -1;
};

}  // namespace

Result<CodeGraph> AnalyzeScript(const std::string& script_name,
                                const std::string& source) {
  KGPIP_TRACE_SPAN("codegraph.analyze_script");
  static obs::Counter* analyzed =
      obs::MetricsRegistry::Global().GetCounter("codegraph.scripts_analyzed");
  static obs::Histogram* latency =
      obs::MetricsRegistry::Global().GetHistogram(
          "codegraph.analyze_seconds");
  analyzed->Increment();
  Stopwatch watch;
  struct RecordOnExit {
    obs::Histogram* histogram;
    Stopwatch* watch;
    ~RecordOnExit() { histogram->Record(watch->ElapsedSeconds()); }
  } record{latency, &watch};
  KGPIP_ASSIGN_OR_RETURN(Module module, ParsePython(source));
  Analysis analysis(script_name, module);
  KGPIP_RETURN_IF_ERROR(analysis.Run());
  CodeGraph graph = analysis.Take();
  if (analysis::CodeGraphVerifier::enabled()) {
    KGPIP_RETURN_IF_ERROR(analysis::CodeGraphVerifier::Check(graph));
  }
  return graph;
}

std::string FindReadCsvArgument(const CodeGraph& graph) {
  const analysis::CallGraphResult calls = analysis::BuildCallGraph(graph);

  // Candidate loaders (alias-resolved labels normally read
  // "pandas.read_csv"; tolerate unresolved spellings) and ML sinks.
  std::vector<int> candidates;
  std::vector<int> sinks;
  for (int id : calls.call_nodes) {
    const std::string& label = graph.nodes[static_cast<size_t>(id)].label;
    if (label == "read_csv" || EndsWith(label, ".read_csv")) {
      candidates.push_back(id);
      continue;
    }
    bool is_estimator = false;
    if (!CanonicalizeMlCall(label, &is_estimator).empty()) {
      sinks.push_back(id);
    }
  }

  // Prefer the load whose frame actually feeds the fitted pipeline; a
  // notebook often reads an auxiliary file (test split, lookup table)
  // first, and that one must not win.
  int chosen = -1;
  for (int candidate : candidates) {
    for (int sink : sinks) {
      if (calls.Reaches(candidate, sink)) {
        chosen = candidate;
        break;
      }
    }
    if (chosen >= 0) break;
  }
  if (chosen < 0 && !candidates.empty()) chosen = candidates.front();
  if (chosen < 0) return "";

  for (const CodeEdge& edge : graph.edges) {
    if (edge.dst != chosen || edge.kind != EdgeKind::kDataFlow) continue;
    const CodeNode& src = graph.nodes[static_cast<size_t>(edge.src)];
    if (src.kind == NodeKind::kLiteral) return src.label;
  }
  return "";
}

}  // namespace kgpip::codegraph
