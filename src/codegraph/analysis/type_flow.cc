#include "codegraph/analysis/type_flow.h"

#include <cctype>

#include "obs/trace.h"
#include "util/string_util.h"

namespace kgpip::codegraph::analysis {

namespace {

TypeEnv MergeEnvs(const TypeEnv& a, const TypeEnv& b) {
  TypeEnv out = a;
  for (const auto& [var, types] : b) {
    out[var].insert(types.begin(), types.end());
  }
  return out;
}

/// Transfer function for a straight-line statement. Assignments whose
/// RHS type is unknown keep the old binding (weak update): notebook
/// chains like `df = df.dropna()` preserve the frame type even though
/// we model only a handful of return types.
void Transfer(const Stmt& stmt, const ImportMap& imports, TypeEnv* env) {
  switch (stmt.kind) {
    case StmtKind::kAssign: {
      TypeSet value_types = EvalExprTypes(*stmt.value, *env, imports);
      const bool is_tuple = stmt.targets.size() > 1;
      TypeSet slot_types;
      for (const std::string& type : value_types) {
        std::string element = TupleElementType(type, is_tuple);
        if (!element.empty()) slot_types.insert(element);
      }
      if (slot_types.empty()) return;
      for (const ExprPtr& target : stmt.targets) {
        if (target->kind == ExprKind::kName) {
          (*env)[target->text] = slot_types;
        }
      }
      return;
    }
    case StmtKind::kFor:
      // The loop variable's element type is unknown in our subset.
      env->erase(stmt.loop_var);
      return;
    default:
      return;
  }
}

/// Walks a block, recording the entry environment of every statement and
/// returning the environment at the block's exit. `if` forks and joins;
/// `for` iterates the body transfer to a fixpoint before the recording
/// walk so body statements see back-edge bindings.
TypeEnv WalkBlock(const std::vector<StmtPtr>& block, TypeEnv env,
                  const ImportMap& imports, bool record,
                  TypeFlowResult* out) {
  for (const StmtPtr& stmt : block) {
    switch (stmt->kind) {
      case StmtKind::kIf: {
        if (record) out->stmt_in[stmt.get()] = env;
        TypeEnv then_env = WalkBlock(stmt->body, env, imports, record, out);
        TypeEnv else_env = stmt->orelse.empty()
                               ? env
                               : WalkBlock(stmt->orelse, env, imports,
                                           record, out);
        env = MergeEnvs(then_env, else_env);
        break;
      }
      case StmtKind::kFor: {
        TypeEnv merged = env;
        merged.erase(stmt->loop_var);
        // Fixpoint over the back edge; type sets only grow under the
        // union merge, so this terminates (bounded by distinct types).
        while (true) {
          TypeEnv after =
              WalkBlock(stmt->body, merged, imports, false, out);
          TypeEnv next = MergeEnvs(merged, after);
          if (next == merged) break;
          merged = std::move(next);
        }
        if (record) {
          out->stmt_in[stmt.get()] = merged;
          WalkBlock(stmt->body, merged, imports, true, out);
        }
        env = std::move(merged);
        break;
      }
      default:
        if (record) out->stmt_in[stmt.get()] = env;
        Transfer(*stmt, imports, &env);
        break;
    }
  }
  return env;
}

void CollectImportsFrom(const std::vector<StmtPtr>& block, ImportMap* out) {
  for (const StmtPtr& stmt : block) {
    switch (stmt->kind) {
      case StmtKind::kImport: {
        std::string alias = stmt->alias.empty() ? stmt->module : stmt->alias;
        (*out)[alias] = stmt->module;
        break;
      }
      case StmtKind::kImportFrom: {
        std::string alias =
            stmt->alias.empty() ? stmt->imported_name : stmt->alias;
        (*out)[alias] = stmt->module + "." + stmt->imported_name;
        break;
      }
      case StmtKind::kIf:
      case StmtKind::kFor:
        CollectImportsFrom(stmt->body, out);
        CollectImportsFrom(stmt->orelse, out);
        break;
      default:
        break;
    }
  }
}

}  // namespace

const TypeEnv& TypeFlowResult::EnvAt(const Stmt* stmt) const {
  static const TypeEnv kEmpty;
  auto it = stmt_in.find(stmt);
  return it == stmt_in.end() ? kEmpty : it->second;
}

TypeFlowResult RunTypeFlow(const Module& module) {
  KGPIP_TRACE_SPAN("codegraph.pass.type-flow");
  TypeFlowResult result;
  result.imports = CollectImports(module);
  WalkBlock(module.statements, TypeEnv(), result.imports, true, &result);
  return result;
}

std::string ReturnTypeOf(const std::string& qualified) {
  if (qualified == "pandas.read_csv" ||
      EndsWith(qualified, ".read_csv")) {
    return "pandas.DataFrame";
  }
  if (EndsWith(qualified, "train_test_split")) {
    return "tuple[pandas.DataFrame]";
  }
  size_t dot = qualified.find_last_of('.');
  std::string last =
      dot == std::string::npos ? qualified : qualified.substr(dot + 1);
  if (!last.empty() && std::isupper(static_cast<unsigned char>(last[0]))) {
    return qualified;  // constructor
  }
  if (EndsWith(qualified, ".fit_transform") ||
      EndsWith(qualified, ".transform")) {
    return "numpy.ndarray";
  }
  return "";
}

std::string TupleElementType(const std::string& value_type, bool is_tuple) {
  if (!is_tuple) return value_type;
  if (StartsWith(value_type, "tuple[")) {
    return value_type.substr(6, value_type.size() - 7);
  }
  return value_type;
}

ImportMap CollectImports(const Module& module) {
  ImportMap imports;
  CollectImportsFrom(module.statements, &imports);
  return imports;
}

std::vector<std::string> ResolveCalleeNames(const Expr& func,
                                            const TypeEnv& env,
                                            const ImportMap& imports,
                                            std::string* via_import_alias) {
  if (via_import_alias != nullptr) via_import_alias->clear();
  if (func.kind == ExprKind::kName) {
    auto it = imports.find(func.text);
    if (it != imports.end()) {
      if (via_import_alias != nullptr) *via_import_alias = func.text;
      return {it->second};
    }
    return {func.text};
  }
  if (func.kind == ExprKind::kAttribute) {
    // Walk to the base of the chain, then suffix each base candidate.
    std::vector<const Expr*> chain;
    const Expr* cur = &func;
    while (cur->kind == ExprKind::kAttribute) {
      chain.push_back(cur);
      cur = cur->value.get();
    }
    std::string suffix;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      suffix += "." + (*it)->text;
    }
    std::vector<std::string> bases;
    if (cur->kind == ExprKind::kName) {
      auto imp = imports.find(cur->text);
      if (imp != imports.end()) {
        if (via_import_alias != nullptr) *via_import_alias = cur->text;
        bases.push_back(imp->second);
      } else {
        for (const std::string& type :
             EvalExprTypes(*cur, env, imports)) {
          bases.push_back(type);
        }
        if (bases.empty()) bases.push_back(cur->text);
      }
    } else {
      // Call / subscript base: resolve through its value types.
      for (const std::string& type : EvalExprTypes(*cur, env, imports)) {
        bases.push_back(type);
      }
      if (bases.empty()) bases.push_back("<unknown>");
    }
    std::vector<std::string> names;
    names.reserve(bases.size());
    for (const std::string& base : bases) names.push_back(base + suffix);
    return names;
  }
  return {"<expr>"};
}

TypeSet EvalExprTypes(const Expr& expr, const TypeEnv& env,
                      const ImportMap& imports) {
  switch (expr.kind) {
    case ExprKind::kName: {
      auto it = env.find(expr.text);
      return it == env.end() ? TypeSet() : it->second;
    }
    case ExprKind::kSubscript:
      // Value flows through the subscript (frame column selection).
      return EvalExprTypes(*expr.value, env, imports);
    case ExprKind::kBinOp: {
      TypeSet lhs = EvalExprTypes(*expr.value, env, imports);
      if (!lhs.empty()) return lhs;
      return EvalExprTypes(*expr.index, env, imports);
    }
    case ExprKind::kCall: {
      TypeSet out;
      for (const std::string& name :
           ResolveCalleeNames(*expr.value, env, imports)) {
        std::string type = ReturnTypeOf(name);
        if (!type.empty()) out.insert(type);
      }
      return out;
    }
    case ExprKind::kAttribute:
    case ExprKind::kConstant:
    case ExprKind::kList:
      return {};
  }
  return {};
}

}  // namespace kgpip::codegraph::analysis
