#include <gtest/gtest.h>

#include "codegraph/analysis/call_graph.h"
#include "codegraph/analysis/diagnostic.h"
#include "codegraph/analysis/type_flow.h"
#include "codegraph/analysis/verifier.h"
#include "codegraph/analyzer.h"
#include "codegraph/corpus.h"
#include "codegraph/python_ast.h"
#include "data/benchmark_registry.h"
#include "gen/linter.h"
#include "graph4ml/verify.h"
#include "graph4ml/vocab.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace kgpip::codegraph::analysis {
namespace {

/// The verifier defaults to off under NDEBUG; this suite always wants it.
struct EnableVerifier {
  EnableVerifier() { CodeGraphVerifier::set_enabled(true); }
} enable_verifier_;

Module Parse(const std::string& source) {
  auto module = ParsePython(source);
  KGPIP_CHECK(module.ok()) << module.status().ToString();
  return std::move(*module);
}

std::vector<std::string> CodesOf(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> codes;
  for (const Diagnostic& d : diags) codes.push_back(d.code);
  return codes;
}

bool HasCode(const std::vector<Diagnostic>& diags, const std::string& code) {
  for (const Diagnostic& d : diags) {
    if (d.code == code) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Diagnostics

TEST(DiagnosticTest, RendersSeverityCodeSubjectAndSpan) {
  Diagnostic d = MakeError("parse.unexpected-token", "unexpected ')'",
                           SourceSpan{3, 14});
  d.subject = "fig2.py";
  EXPECT_EQ(d.ToString(),
            "error[parse.unexpected-token] fig2.py line 3:14: "
            "unexpected ')'");
  EXPECT_EQ(SourceSpan{}.ToString(), "");
  EXPECT_EQ((SourceSpan{7, 0}).ToString(), "line 7");
}

TEST(DiagnosticTest, FoldsIntoStatusWithRequestedCode) {
  Diagnostic d = MakeError("lint.no-estimator", "no estimator");
  Status status = d.ToStatus(StatusCode::kInvalidArgument);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("lint.no-estimator"), std::string::npos);
  // Default folding keeps the front-end convention.
  EXPECT_EQ(d.ToStatus().code(), StatusCode::kParseError);
}

TEST(DiagnosticTest, WarningsAreNotErrors) {
  std::vector<Diagnostic> diags = {MakeWarning("lint.positive-score", "w")};
  EXPECT_FALSE(HasErrors(diags));
  diags.push_back(MakeError("lint.cycle", "e"));
  EXPECT_TRUE(HasErrors(diags));
  std::string rendered = RenderDiagnostics(diags);
  EXPECT_NE(rendered.find("warning[lint.positive-score]"), std::string::npos);
  EXPECT_NE(rendered.find("error[lint.cycle]"), std::string::npos);
}

TEST(DiagnosticTest, ParserEmitsStructuredCodes) {
  auto bad = ParsePython("x = (1\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("parse."), std::string::npos);
  auto unterminated = ParsePython("x = 'oops\n");
  ASSERT_FALSE(unterminated.ok());
  EXPECT_NE(unterminated.status().message().find("lex.unterminated-string"),
            std::string::npos);
}

TEST(DiagnosticTest, ParserCapsNestingDepth) {
  auto parens = [](int depth) {
    const size_t n = static_cast<size_t>(depth);
    return "x = " + std::string(n, '(') + "1" + std::string(n, ')') + "\n";
  };
  // The right-hand side is one expression and each bracket opens one
  // more, so kMaxParseNesting - 1 brackets reach the cap.
  EXPECT_TRUE(ParsePython(parens(kMaxParseNesting - 1)).ok());
  // One more fails at the token after the last bracket the cap allows;
  // 10,000 brackets (20 KB) fail at the same place instead of
  // exhausting the stack, through the analyzer too.
  const std::string want = StrFormat(
      "error[parse.nesting-too-deep] line 1:%d:", 5 + kMaxParseNesting);
  for (int depth : {kMaxParseNesting, 10000}) {
    SCOPED_TRACE(depth);
    auto deep = ParsePython(parens(depth));
    ASSERT_FALSE(deep.ok());
    EXPECT_EQ(deep.status().code(), StatusCode::kParseError);
    EXPECT_NE(deep.status().message().find(want), std::string::npos)
        << deep.status().ToString();
    auto graph = AnalyzeScript("deep.py", parens(depth));
    ASSERT_FALSE(graph.ok());
    EXPECT_NE(graph.status().message().find("parse.nesting-too-deep"),
              std::string::npos)
        << graph.status().ToString();
  }

  // Chains recurse in no parser call, but each link wraps the expression
  // before it, so `a` and k links make a tree k + 1 levels tall: one
  // link fewer than the cap parses, and one more fails at the token after
  // it. 100,000 links (200 KB) fail there too instead of building a tree
  // whose recursive destructor overflows the stack.
  const std::string want_chain = StrFormat(
      "error[parse.nesting-too-deep] line 1:%d:", 6 + 2 * kMaxParseNesting);
  for (const char* link : {"+a", ".b", "()"}) {
    SCOPED_TRACE(link);
    auto chain = [&](int links) {
      std::string text = "x = a";
      for (int i = 0; i < links; ++i) text += link;
      return text + "\n";
    };
    EXPECT_TRUE(ParsePython(chain(kMaxParseNesting - 1)).ok());
    for (int links : {kMaxParseNesting, 100000}) {
      SCOPED_TRACE(links);
      auto deep = ParsePython(chain(links));
      ASSERT_FALSE(deep.ok());
      EXPECT_NE(deep.status().message().find(want_chain), std::string::npos)
          << deep.status().ToString();
      auto graph = AnalyzeScript("chain.py", chain(links));
      ASSERT_FALSE(graph.ok());
      EXPECT_NE(graph.status().message().find("parse.nesting-too-deep"),
                std::string::npos)
          << graph.status().ToString();
    }
  }
  // Links after a bracket wrap everything inside it: two chains of 150
  // links, one in parentheses and one after them, are over 300 levels
  // tall although each alone parses.
  std::string links150;
  for (int i = 0; i < 150; ++i) links150 += "+a";
  EXPECT_TRUE(ParsePython("x = (a" + links150 + ")\n").ok());
  auto stacked = ParsePython("x = (a" + links150 + ")" + links150 + "\n");
  ASSERT_FALSE(stacked.ok());
  EXPECT_NE(stacked.status().message().find("parse.nesting-too-deep"),
            std::string::npos)
      << stacked.status().ToString();

  // Indented blocks count too: the body of b nested `if`s is one block
  // deeper than its b-th condition.
  auto blocks = [](int b) {
    std::string text;
    for (int i = 0; i < b; ++i) {
      text += std::string(static_cast<size_t>(i), ' ') + "if c:\n";
    }
    return text + std::string(static_cast<size_t>(b), ' ') + "y = 1\n";
  };
  EXPECT_TRUE(ParsePython(blocks(kMaxParseNesting - 1)).ok());
  auto deep_blocks = ParsePython(blocks(kMaxParseNesting));
  ASSERT_FALSE(deep_blocks.ok());
  EXPECT_NE(deep_blocks.status().message().find(StrFormat(
                "error[parse.nesting-too-deep] line %d:",
                kMaxParseNesting + 1)),
            std::string::npos)
      << deep_blocks.status().ToString();
}

// ---------------------------------------------------------------------------
// Flow-sensitive type propagation

TEST(TypeFlowTest, BranchAssignmentsUnionAtTheJoin) {
  Module module = Parse(
      "from sklearn import svm\n"
      "from sklearn import tree\n"
      "if flag:\n"
      "    model = svm.SVC()\n"
      "else:\n"
      "    model = tree.DecisionTreeClassifier()\n"
      "model.fit(X, y)\n");
  const TypeFlowResult types = RunTypeFlow(module);
  EXPECT_EQ(types.imports.at("svm"), "sklearn.svm");
  const Stmt* fit_stmt = module.statements.back().get();
  const TypeEnv& env = types.EnvAt(fit_stmt);
  ASSERT_TRUE(env.count("model"));
  EXPECT_EQ(env.at("model"),
            (TypeSet{"sklearn.svm.SVC",
                     "sklearn.tree.DecisionTreeClassifier"}));
}

TEST(TypeFlowTest, ReassignmentIsFlowSensitiveNotLastWins) {
  Module module = Parse(
      "from sklearn import svm\n"
      "from sklearn import tree\n"
      "model = svm.SVC()\n"
      "model.fit(X, y)\n"
      "model = tree.DecisionTreeClassifier()\n"
      "model.fit(X, y)\n");
  const TypeFlowResult types = RunTypeFlow(module);
  // The first fit sees SVC; only the second sees the decision tree. The
  // historical "last assignment wins" map got the first one wrong.
  const TypeEnv& first = types.EnvAt(module.statements[3].get());
  const TypeEnv& second = types.EnvAt(module.statements[5].get());
  EXPECT_EQ(first.at("model"), (TypeSet{"sklearn.svm.SVC"}));
  EXPECT_EQ(second.at("model"),
            (TypeSet{"sklearn.tree.DecisionTreeClassifier"}));
}

TEST(TypeFlowTest, MethodChainsAndTupleUnpackingKeepFrameTypes) {
  Module module = Parse(
      "import pandas as pd\n"
      "from sklearn.model_selection import train_test_split\n"
      "df = pd.read_csv('a.csv')\n"
      "df = df.dropna()\n"
      "train, test = train_test_split(df)\n"
      "print(train)\n");
  const TypeFlowResult types = RunTypeFlow(module);
  const TypeEnv& env = types.EnvAt(module.statements.back().get());
  EXPECT_EQ(env.at("df"), (TypeSet{"pandas.DataFrame"}));
  EXPECT_EQ(env.at("train"), (TypeSet{"pandas.DataFrame"}));
  EXPECT_EQ(env.at("test"), (TypeSet{"pandas.DataFrame"}));
}

TEST(TypeFlowTest, ResolvesCalleeCandidatesUnderTheEnv) {
  Module module = Parse("from sklearn import svm\nmodel.fit(X)\n");
  ImportMap imports = CollectImports(module);
  TypeEnv env;
  env["model"] = {"sklearn.svm.SVC", "sklearn.tree.DecisionTreeClassifier"};
  const Expr& call = *module.statements[1]->value;
  std::string via_alias = "unset";
  std::vector<std::string> names =
      ResolveCalleeNames(*call.value, env, imports, &via_alias);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "sklearn.svm.SVC.fit",
                       "sklearn.tree.DecisionTreeClassifier.fit"}));
  EXPECT_TRUE(via_alias.empty());  // resolved via types, not an import
}

// ---------------------------------------------------------------------------
// Call graph

TEST(CallGraphTest, ReachabilityFollowsDataFlowThroughVariables) {
  auto graph = AnalyzeScript("cg.py",
                             "import pandas as pd\n"
                             "from sklearn import svm\n"
                             "df = pd.read_csv('a.csv')\n"
                             "df2 = df.dropna()\n"
                             "model = svm.SVC()\n"
                             "model.fit(df2, y)\n");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  const CallGraphResult calls = BuildCallGraph(*graph);
  auto find = [&](const std::string& label) {
    for (int id : calls.call_nodes) {
      if (graph->nodes[static_cast<size_t>(id)].label == label) return id;
    }
    return -1;
  };
  int read_csv = find("pandas.read_csv");
  int dropna = find("pandas.DataFrame.dropna");
  int fit = find("sklearn.svm.SVC.fit");
  ASSERT_GE(read_csv, 0);
  ASSERT_GE(dropna, 0);
  ASSERT_GE(fit, 0);
  EXPECT_TRUE(calls.Reaches(read_csv, dropna));
  EXPECT_TRUE(calls.Reaches(read_csv, fit));  // transitive, via df2
  EXPECT_FALSE(calls.Reaches(fit, read_csv));
  EXPECT_FALSE(calls.Reaches(dropna, dropna));
}

// ---------------------------------------------------------------------------
// Pinned analyzer output

// FNV-1a over every emitted graph of a fixed-seed corpus: each node's
// kind, label and line, each edge's src, dst and kind, and the script's
// read_csv argument. Any change to what AnalyzeScript emits moves the
// digest. The corpus scripts load one file each, so the choice among
// several loaders is left to
// AnalyzerTest.FindReadCsvArgumentPrefersThePipelineFeed.
TEST(AnalyzerDigestTest, CorpusGraphsAndReadCsvArgumentsArePinned) {
  BenchmarkRegistry registry;
  std::vector<DatasetSpec> specs = registry.TrainingSpecs();
  specs.resize(12);
  CorpusOptions options;
  options.seed = 2022;
  std::vector<NotebookScript> scripts =
      CorpusGenerator(options).GenerateCorpus(specs);
  ASSERT_EQ(scripts.size(), 12u * 20u);

  std::string bytes;
  auto put = [&](const std::string& field) {
    bytes += field;
    bytes += '\x1f';
  };
  size_t nodes = 0;
  for (const NotebookScript& script : scripts) {
    auto graph = AnalyzeScript(script.name, script.text);
    ASSERT_TRUE(graph.ok()) << script.name << ": "
                            << graph.status().ToString();
    put(script.name);
    for (const CodeNode& node : graph->nodes) {
      put(std::to_string(static_cast<int>(node.kind)));
      put(node.label);
      put(std::to_string(node.line));
    }
    for (const CodeEdge& edge : graph->edges) {
      put(std::to_string(edge.src));
      put(std::to_string(edge.dst));
      put(std::to_string(static_cast<int>(edge.kind)));
    }
    put(FindReadCsvArgument(*graph));
    nodes += graph->nodes.size();
  }
  EXPECT_GT(nodes, scripts.size() * 30);
  EXPECT_EQ(Fnv1a64(bytes), 0x8b36a865b503ee92ULL) << std::hex << Fnv1a64(bytes);
}

// ---------------------------------------------------------------------------
// CodeGraph verifier

TEST(VerifierTest, AcceptsEveryAnalyzedGraph) {
  auto graph = AnalyzeScript("ok.py",
                             "import pandas as pd\n"
                             "from sklearn import svm\n"
                             "df = pd.read_csv('a.csv')\n"
                             "model = svm.SVC()\n"
                             "model.fit(df, y)\n");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_TRUE(CodeGraphVerifier::Verify(*graph).empty());
  EXPECT_TRUE(CodeGraphVerifier::Check(*graph).ok());
}

TEST(VerifierTest, CatchesOutOfRangeEdge) {
  CodeGraph graph;
  graph.AddNode(NodeKind::kCall, "print", 1);
  graph.AddEdge(0, 999, EdgeKind::kDataFlow);
  auto diags = CodeGraphVerifier::Verify(graph);
  EXPECT_TRUE(HasCode(diags, "verify.edge-out-of-range")) << CodesOf(diags).size();
  Status status = CodeGraphVerifier::Check(graph);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST(VerifierTest, CatchesDataFlowCycle) {
  CodeGraph graph;
  graph.AddNode(NodeKind::kCall, "a", 1);
  graph.AddNode(NodeKind::kVariable, "x", 1);
  graph.AddEdge(0, 1, EdgeKind::kDataFlow);
  graph.AddEdge(1, 0, EdgeKind::kDataFlow);
  auto diags = CodeGraphVerifier::Verify(graph);
  EXPECT_TRUE(HasCode(diags, "verify.dataflow-cycle"));
}

TEST(VerifierTest, CatchesEmptyLabelAndEdgeKindMismatch) {
  CodeGraph graph;
  graph.AddNode(NodeKind::kCall, "", 1);
  graph.AddNode(NodeKind::kVariable, "x", 1);
  // A parameter edge must land on a parameter node.
  graph.AddEdge(0, 1, EdgeKind::kParameter);
  auto diags = CodeGraphVerifier::Verify(graph);
  EXPECT_TRUE(HasCode(diags, "verify.empty-label"));
  EXPECT_TRUE(HasCode(diags, "verify.edge-kind-mismatch"));
}

TEST(VerifierTest, CatchesImportRootedCallCutFromItsImport) {
  // Build a hand-corrupted graph: an import of pandas plus a
  // pandas-rooted call with no data-flow path from the import.
  CodeGraph graph;
  graph.AddNode(NodeKind::kImport, "pandas", 1);
  graph.AddNode(NodeKind::kCall, "pandas.read_csv", 2);
  auto diags = CodeGraphVerifier::Verify(graph);
  EXPECT_TRUE(HasCode(diags, "verify.unreachable-call"));
  // Restoring the root edge clears the diagnostic.
  graph.AddEdge(0, 1, EdgeKind::kDataFlow);
  EXPECT_TRUE(CodeGraphVerifier::Verify(graph).empty());
}

TEST(VerifierTest, UnrootedCallsAreExempt) {
  CodeGraph graph;
  graph.AddNode(NodeKind::kImport, "pandas", 1);
  graph.AddNode(NodeKind::kCall, "print", 2);  // not pandas-rooted
  EXPECT_TRUE(CodeGraphVerifier::Verify(graph).empty());
}

// ---------------------------------------------------------------------------
// Filtered pipeline-graph verifier

graph4ml::PipelineGraph MakeChain(std::vector<int> types,
                                  const std::string& estimator) {
  graph4ml::PipelineGraph out;
  out.script_name = "curated.py";
  out.dataset_name = "d";
  out.estimator = estimator;
  out.graph.node_types = std::move(types);
  for (size_t i = 0; i + 1 < out.graph.node_types.size(); ++i) {
    out.graph.edges.emplace_back(static_cast<int>(i),
                                 static_cast<int>(i + 1));
  }
  return out;
}

TEST(PipelineVerifyTest, AcceptsWellFormedChain) {
  const auto& vocab = graph4ml::PipelineVocab::Get();
  int xgb = vocab.TypeOf("xgboost");
  ASSERT_GE(xgb, graph4ml::PipelineVocab::kFirstOp);
  auto pipeline = MakeChain({graph4ml::PipelineVocab::kDatasetType,
                             graph4ml::PipelineVocab::kReadCsvType, xgb},
                            "xgboost");
  EXPECT_TRUE(graph4ml::VerifyPipelineGraph(pipeline).empty());
}

TEST(PipelineVerifyTest, CatchesCorruptedChains) {
  const auto& vocab = graph4ml::PipelineVocab::Get();
  int xgb = vocab.TypeOf("xgboost");

  auto bad_type = MakeChain({0, 1, 9999}, "");
  EXPECT_TRUE(HasCode(graph4ml::VerifyPipelineGraph(bad_type),
                      "verify.unknown-node-type"));

  auto no_anchor = MakeChain({1, 1, xgb}, "xgboost");
  EXPECT_TRUE(HasCode(graph4ml::VerifyPipelineGraph(no_anchor),
                      "verify.missing-dataset-anchor"));

  auto cyclic = MakeChain({0, 1, xgb}, "xgboost");
  cyclic.graph.edges.back() = {2, 1};  // backward edge
  EXPECT_TRUE(
      HasCode(graph4ml::VerifyPipelineGraph(cyclic), "verify.cycle"));

  auto extra_edge = MakeChain({0, 1, xgb}, "xgboost");
  extra_edge.graph.edges.emplace_back(0, 2);
  EXPECT_TRUE(HasCode(graph4ml::VerifyPipelineGraph(extra_edge),
                      "verify.not-a-chain"));

  auto mismatch = MakeChain({0, 1, xgb}, "ridge");
  EXPECT_TRUE(HasCode(graph4ml::VerifyPipelineGraph(mismatch),
                      "verify.estimator-mismatch"));
}

// ---------------------------------------------------------------------------
// Pipeline linter

gen::GeneratedGraph MakeGenerated(std::vector<int> types) {
  gen::GeneratedGraph out;
  out.graph.node_types = std::move(types);
  for (size_t i = 0; i + 1 < out.graph.node_types.size(); ++i) {
    out.graph.edges.emplace_back(static_cast<int>(i),
                                 static_cast<int>(i + 1));
  }
  out.log_prob = -1.0;
  return out;
}

TEST(LinterTest, AcceptsCuratedValidCandidates) {
  const auto& vocab = graph4ml::PipelineVocab::Get();
  int xgb = vocab.TypeOf("xgboost");
  int scaler = vocab.TypeOf("standard_scaler");
  ASSERT_GE(xgb, 2);
  ASSERT_GE(scaler, 2);
  gen::PipelineLinter linter(TaskType::kBinaryClassification);

  auto report = linter.LintGraph(MakeGenerated({0, 1, scaler, xgb}));
  EXPECT_TRUE(report.ok()) << report.Render();
  EXPECT_TRUE(report.diagnostics.empty());

  ml::PipelineSpec spec;
  spec.learner = "decision_tree";
  spec.preprocessors = {"standard_scaler"};
  EXPECT_TRUE(linter.LintSpec(spec).ok());

  gen::ScoredSkeleton skeleton;
  skeleton.spec = spec;
  skeleton.log_prob = -2.5;
  EXPECT_TRUE(linter.LintSkeleton(skeleton).ok());
}

TEST(LinterTest, RejectsGraphWithoutEstimator) {
  const auto& vocab = graph4ml::PipelineVocab::Get();
  int scaler = vocab.TypeOf("standard_scaler");
  gen::PipelineLinter linter(TaskType::kBinaryClassification);
  auto report = linter.LintGraph(MakeGenerated({0, 1, scaler}));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.ErrorCodes(),
            (std::vector<std::string>{"lint.no-estimator"}));
}

TEST(LinterTest, RejectsWrongTaskEstimator) {
  const auto& vocab = graph4ml::PipelineVocab::Get();
  int ridge = vocab.TypeOf("ridge");  // regression-only learner
  ASSERT_GE(ridge, 2);
  gen::PipelineLinter linter(TaskType::kBinaryClassification);
  auto report = linter.LintGraph(MakeGenerated({0, 1, ridge}));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.ErrorCodes(),
            (std::vector<std::string>{"lint.task-mismatch"}));
  // The same candidate is fine once the task matches.
  gen::PipelineLinter regression(TaskType::kRegression);
  EXPECT_TRUE(regression.LintGraph(MakeGenerated({0, 1, ridge})).ok());
}

TEST(LinterTest, RejectsCyclicGraph) {
  const auto& vocab = graph4ml::PipelineVocab::Get();
  int xgb = vocab.TypeOf("xgboost");
  auto generated = MakeGenerated({0, 1, xgb});
  generated.graph.edges.emplace_back(2, 1);  // close a cycle
  gen::PipelineLinter linter(TaskType::kBinaryClassification);
  auto report = linter.LintGraph(generated);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report.diagnostics, "lint.cycle"));
}

TEST(LinterTest, RejectsUnknownOp) {
  gen::PipelineLinter linter(TaskType::kBinaryClassification);
  auto report = linter.LintGraph(MakeGenerated({0, 1, 9999}));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report.diagnostics, "lint.unknown-op"));

  ml::PipelineSpec spec;
  spec.learner = "not_a_learner";
  auto spec_report = linter.LintSpec(spec);
  EXPECT_FALSE(spec_report.ok());
  EXPECT_EQ(spec_report.ErrorCodes(),
            (std::vector<std::string>{"lint.unknown-op"}));
}

TEST(LinterTest, EdgeRangeCheckedBeforeOpChecks) {
  const auto& vocab = graph4ml::PipelineVocab::Get();
  int xgb = vocab.TypeOf("xgboost");
  auto generated = MakeGenerated({0, 1, xgb});
  generated.graph.edges.emplace_back(1, 42);
  gen::PipelineLinter linter(TaskType::kBinaryClassification);
  EXPECT_TRUE(HasCode(linter.LintGraph(generated).diagnostics,
                      "lint.edge-out-of-range"));
}

TEST(LinterTest, GraphLevelDuplicatesWarnButSpecLevelDuplicatesReject) {
  const auto& vocab = graph4ml::PipelineVocab::Get();
  int xgb = vocab.TypeOf("xgboost");
  int scaler = vocab.TypeOf("standard_scaler");
  gen::PipelineLinter linter(TaskType::kBinaryClassification);

  // The skeleton mapper folds graph-level repeats, so they only warn —
  // the Fit gate must not reject more than GraphToSkeleton accepts.
  auto graph_report =
      linter.LintGraph(MakeGenerated({0, 1, scaler, scaler, xgb}));
  EXPECT_TRUE(graph_report.ok());
  EXPECT_TRUE(
      HasCode(graph_report.diagnostics, "lint.duplicate-transformer"));

  // Nothing downstream folds spec-level repeats: hard error.
  ml::PipelineSpec spec;
  spec.learner = "decision_tree";
  spec.preprocessors = {"standard_scaler", "standard_scaler"};
  auto spec_report = linter.LintSpec(spec);
  EXPECT_FALSE(spec_report.ok());
  EXPECT_EQ(spec_report.ErrorCodes(),
            (std::vector<std::string>{"lint.duplicate-transformer"}));
  EXPECT_FALSE(spec_report.diagnostics[0].subject.empty());
}

TEST(LinterTest, PositiveScoreOnlyWarns) {
  gen::PipelineLinter linter(TaskType::kBinaryClassification);
  gen::ScoredSkeleton skeleton;
  skeleton.spec.learner = "decision_tree";
  skeleton.log_prob = 0.5;  // impossible for a log-probability
  auto report = linter.LintSkeleton(skeleton);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(HasCode(report.diagnostics, "lint.positive-score"));
}

// ---------------------------------------------------------------------------
// Skeleton mapper diagnostics

TEST(SkeletonDiagnosticTest, MapperReportsStructuredRejection) {
  const auto& vocab = graph4ml::PipelineVocab::Get();
  int scaler = vocab.TypeOf("standard_scaler");
  auto generated = MakeGenerated({0, 1, scaler});  // no estimator
  Diagnostic diagnostic;
  auto skeleton = gen::GraphToSkeleton(
      generated, TaskType::kBinaryClassification, &diagnostic);
  ASSERT_FALSE(skeleton.ok());
  EXPECT_EQ(diagnostic.code, "skeleton.no-estimator");
  EXPECT_EQ(skeleton.status().code(), StatusCode::kInvalidArgument);

  Diagnostic unknown;
  auto bad = gen::GraphToSkeleton(MakeGenerated({0, 1, 9999}),
                                  TaskType::kBinaryClassification, &unknown);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(unknown.code, "skeleton.unknown-op");
}

}  // namespace
}  // namespace kgpip::codegraph::analysis
