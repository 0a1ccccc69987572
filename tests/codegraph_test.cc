#include <gtest/gtest.h>

#include "codegraph/analysis/verifier.h"
#include "codegraph/analyzer.h"
#include "data/benchmark_registry.h"
#include "codegraph/corpus.h"
#include "codegraph/ml_api.h"
#include "codegraph/python_ast.h"
#include "graph4ml/filter.h"
#include "graph4ml/graph4ml.h"
#include "graph4ml/vocab.h"

namespace kgpip {
namespace {

/// Structural invariants are checked after every AnalyzeScript in this
/// suite, regardless of build type.
struct EnableVerifier {
  EnableVerifier() {
    codegraph::analysis::CodeGraphVerifier::set_enabled(true);
  }
} enable_verifier_;

using codegraph::AnalyzeScript;
using codegraph::CorpusGenerator;
using codegraph::CorpusOptions;
using codegraph::NodeKind;
using codegraph::ParsePython;

constexpr char kExampleScript[] = R"(import pandas as pd
from sklearn.model_selection import train_test_split
from sklearn import svm

df = pd.read_csv('example.csv')
df_train, df_test = train_test_split(df)
X = df_train['X']
model = svm.SVC()
model.fit(X, df_train['Y'])
)";

TEST(PythonParserTest, ParsesFigure2Example) {
  auto module = ParsePython(kExampleScript);
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  EXPECT_EQ(module->statements.size(), 8u);
}

TEST(PythonParserTest, ParsesControlFlowAndKwargs) {
  auto module = ParsePython(
      "import pandas as pd\n"
      "df = pd.read_csv('x.csv')\n"
      "X = df.drop(columns=['target'])\n"
      "for col in df.columns:\n"
      "    print(df[col].nunique())\n"
      "if X.shape:\n"
      "    print('ok')\n"
      "else:\n"
      "    print('no')\n");
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  EXPECT_EQ(module->statements.size(), 5u);
}

TEST(PythonParserTest, ReportsSyntaxErrors) {
  EXPECT_FALSE(ParsePython("x = (1\n").ok());
  EXPECT_FALSE(ParsePython("x = 'unterminated\n").ok());
  EXPECT_FALSE(ParsePython("for x y:\n    pass\n").ok());
}

TEST(AnalyzerTest, ResolvesQualifiedNamesThroughImportsAndTypes) {
  auto graph = AnalyzeScript("fig2.py", kExampleScript);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  // Expect resolved call labels from the Figure 2/3 example.
  bool saw_read_csv = false, saw_svc = false, saw_fit = false,
       saw_split = false;
  for (const auto& node : graph->nodes) {
    if (node.kind != NodeKind::kCall) continue;
    if (node.label == "pandas.read_csv") saw_read_csv = true;
    if (node.label == "sklearn.svm.SVC") saw_svc = true;
    if (node.label == "sklearn.svm.SVC.fit") saw_fit = true;
    if (node.label == "sklearn.model_selection.train_test_split") {
      saw_split = true;
    }
  }
  EXPECT_TRUE(saw_read_csv);
  EXPECT_TRUE(saw_svc);
  EXPECT_TRUE(saw_fit) << "receiver type tracking failed";
  EXPECT_TRUE(saw_split);
  EXPECT_EQ(codegraph::FindReadCsvArgument(*graph), "example.csv");
}

TEST(AnalyzerTest, EmitsAuxiliaryNoiseNodes) {
  auto graph = AnalyzeScript("fig2.py", kExampleScript);
  ASSERT_TRUE(graph.ok());
  EXPECT_GT(graph->CountNodes(NodeKind::kLocation), 0u);
  EXPECT_GT(graph->CountNodes(NodeKind::kParameter), 0u);
  // Raw graphs are far larger than the 5-call pipeline they contain.
  EXPECT_GT(graph->nodes.size(), 30u);
  EXPECT_GT(graph->edges.size(), 30u);
}

TEST(AnalyzerTest, DataFlowFollowsVariables) {
  auto graph = AnalyzeScript(
      "flow.py",
      "import pandas as pd\n"
      "df = pd.read_csv('a.csv')\n"
      "df2 = df.dropna()\n");
  ASSERT_TRUE(graph.ok());
  // The dropna call must have a data-flow edge from the read_csv call.
  int read_csv = -1, dropna = -1;
  for (size_t i = 0; i < graph->nodes.size(); ++i) {
    if (graph->nodes[i].label == "pandas.read_csv") {
      read_csv = static_cast<int>(i);
    }
    if (graph->nodes[i].label == "pandas.DataFrame.dropna") {
      dropna = static_cast<int>(i);
    }
  }
  ASSERT_GE(read_csv, 0);
  ASSERT_GE(dropna, 0);
  bool found_edge = false;
  for (const auto& edge : graph->edges) {
    if (edge.src == read_csv && edge.dst == dropna &&
        edge.kind == codegraph::EdgeKind::kDataFlow) {
      found_edge = true;
    }
  }
  EXPECT_TRUE(found_edge);
}

TEST(AnalyzerTest, FlowSensitiveTypesAcrossBranchReassignment) {
  // A branch reassigns the model variable; the join must see both
  // estimator types, so the fit call resolves against each candidate.
  // The historical "last assignment wins" map dropped the SVC arm.
  auto graph = AnalyzeScript(
      "branch.py",
      "from sklearn import svm\n"
      "from sklearn import tree\n"
      "if flag:\n"
      "    model = svm.SVC()\n"
      "else:\n"
      "    model = tree.DecisionTreeClassifier()\n"
      "model.fit(X, y)\n");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  bool saw_svc_fit = false, saw_tree_fit = false;
  for (const auto& node : graph->nodes) {
    if (node.kind != NodeKind::kCall) continue;
    if (node.label == "sklearn.svm.SVC.fit") saw_svc_fit = true;
    if (node.label == "sklearn.tree.DecisionTreeClassifier.fit") {
      saw_tree_fit = true;
    }
  }
  EXPECT_TRUE(saw_svc_fit);
  EXPECT_TRUE(saw_tree_fit);
}

TEST(AnalyzerTest, SequentialReassignmentStaysFlowSensitive) {
  auto graph = AnalyzeScript(
      "reassign.py",
      "from sklearn import svm\n"
      "from sklearn import tree\n"
      "model = svm.SVC()\n"
      "model.fit(X, y)\n"
      "model = tree.DecisionTreeClassifier()\n"
      "model.predict(X)\n");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  bool saw_svc_fit = false, saw_tree_predict = false,
       saw_tree_fit = false;
  for (const auto& node : graph->nodes) {
    if (node.kind != NodeKind::kCall) continue;
    if (node.label == "sklearn.svm.SVC.fit") saw_svc_fit = true;
    if (node.label == "sklearn.tree.DecisionTreeClassifier.fit") {
      saw_tree_fit = true;
    }
    if (node.label == "sklearn.tree.DecisionTreeClassifier.predict") {
      saw_tree_predict = true;
    }
  }
  EXPECT_TRUE(saw_svc_fit) << "fit before reassignment must see SVC";
  EXPECT_TRUE(saw_tree_predict);
  EXPECT_FALSE(saw_tree_fit)
      << "the later assignment must not leak backwards into fit";
}

TEST(AnalyzerTest, FindReadCsvArgumentResolvesAliasedImport) {
  auto graph = AnalyzeScript("alias.py",
                             "import pandas as p\n"
                             "df = p.read_csv('aliased.csv')\n");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(codegraph::FindReadCsvArgument(*graph), "aliased.csv");
}

TEST(AnalyzerTest, FindReadCsvArgumentPrefersThePipelineFeed) {
  // The auxiliary test split is read first, but only train.csv flows
  // into the fitted pipeline; program order must not decide.
  auto graph = AnalyzeScript(
      "two_reads.py",
      "import pandas as pd\n"
      "from sklearn import svm\n"
      "meta = pd.read_csv('test.csv')\n"
      "df = pd.read_csv('train.csv')\n"
      "model = svm.SVC()\n"
      "model.fit(df, y)\n");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(codegraph::FindReadCsvArgument(*graph), "train.csv");
}

TEST(MlApiTest, CanonicalizationAndReverseLookup) {
  bool is_estimator = false;
  EXPECT_EQ(codegraph::CanonicalizeMlCall("xgboost.XGBClassifier",
                                          &is_estimator),
            "xgboost");
  EXPECT_TRUE(is_estimator);
  EXPECT_EQ(codegraph::CanonicalizeMlCall("xgboost.XGBClassifier.fit",
                                          &is_estimator),
            "xgboost");
  EXPECT_EQ(codegraph::CanonicalizeMlCall(
                "sklearn.preprocessing.StandardScaler.fit_transform",
                &is_estimator),
            "standard_scaler");
  EXPECT_FALSE(is_estimator);
  EXPECT_EQ(codegraph::CanonicalizeMlCall("torch.nn.Linear", nullptr), "");
  // XGBClassifierFoo must not match via prefix.
  EXPECT_EQ(codegraph::CanonicalizeMlCall("xgboost.XGBClassifierFoo",
                                          nullptr),
            "");

  EXPECT_EQ(codegraph::PythonClassFor("xgboost", /*regression=*/true),
            "xgboost.XGBRegressor");
  EXPECT_EQ(codegraph::PythonClassFor("ridge", /*regression=*/true),
            "sklearn.linear_model.Ridge");
}

TEST(CorpusTest, GeneratedPipelinesParseAndAnalyze) {
  DatasetSpec spec;
  spec.name = "corpus_check";
  spec.family = ConceptFamily::kRules;
  spec.task = TaskType::kBinaryClassification;
  CorpusGenerator generator(CorpusOptions{});
  auto scripts = generator.GenerateForDataset(spec);
  ASSERT_EQ(scripts.size(), 20u);
  for (const auto& script : scripts) {
    auto graph = AnalyzeScript(script.name, script.text);
    ASSERT_TRUE(graph.ok()) << script.name << ": "
                            << graph.status().ToString() << "\n"
                            << script.text;
  }
}

TEST(FilterTest, ExtractsPipelineAndReducesGraph) {
  DatasetSpec spec;
  spec.name = "filter_check";
  spec.family = ConceptFamily::kLinear;
  spec.task = TaskType::kBinaryClassification;
  CorpusGenerator generator(CorpusOptions{});
  auto scripts = generator.GenerateForDataset(spec);
  graph4ml::FilterStats stats;
  size_t valid = 0;
  for (const auto& script : scripts) {
    auto graph = AnalyzeScript(script.name, script.text);
    ASSERT_TRUE(graph.ok());
    auto pipeline = graph4ml::FilterCodeGraph(*graph, script.dataset_name,
                                              &stats);
    if (!script.is_ml_pipeline) {
      EXPECT_FALSE(pipeline.valid()) << script.name;
      continue;
    }
    ASSERT_TRUE(pipeline.valid()) << script.name << "\n" << script.text;
    ++valid;
    EXPECT_EQ(pipeline.estimator, script.estimator);
    EXPECT_EQ(pipeline.transformers, script.transformers);
    EXPECT_EQ(pipeline.dataset_name, "filter_check");
    // Chain structure: dataset node first, estimator node last.
    EXPECT_EQ(pipeline.graph.node_types.front(),
              graph4ml::PipelineVocab::kDatasetType);
    EXPECT_EQ(pipeline.graph.num_edges(),
              pipeline.graph.num_nodes() - 1);
  }
  EXPECT_EQ(valid, 12u);
  // Paper §4.5.1: at least 96% fewer nodes and edges after filtering.
  EXPECT_GT(stats.NodeReduction(), 0.9);
  EXPECT_GT(stats.EdgeReduction(), 0.9);
}

TEST(Graph4MlTest, BuildLinksDatasetsAndSerializes) {
  BenchmarkRegistry registry;
  auto training = registry.TrainingSpecs();
  training.resize(6);
  CorpusOptions options;
  options.pipelines_per_dataset = 5;
  options.noise_scripts_per_dataset = 3;
  CorpusGenerator generator(options);
  auto scripts = generator.GenerateCorpus(training);

  graph4ml::Graph4Ml store;
  ASSERT_TRUE(store.Build(scripts).ok());
  EXPECT_EQ(store.scripts_analyzed(), scripts.size());
  EXPECT_EQ(store.NumPipelines(), 6u * 5u);
  EXPECT_EQ(store.NumDatasets(), 6u);
  for (const auto& spec : training) {
    EXPECT_EQ(store.PipelinesFor(spec.name).size(), 5u) << spec.name;
  }
  auto histogram = store.OpHistogram();
  EXPECT_FALSE(histogram.empty());

  // JSON round trip.
  auto reloaded = graph4ml::Graph4Ml::FromJson(store.ToJson());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->NumPipelines(), store.NumPipelines());
  EXPECT_EQ(reloaded->PipelinesFor(training[0].name).size(), 5u);
}

TEST(VocabTest, StableTypesAndEstimatorFlags) {
  const auto& vocab = graph4ml::PipelineVocab::Get();
  EXPECT_GT(vocab.size(), 15);
  EXPECT_EQ(vocab.TypeOf("<dataset>"), 0);
  EXPECT_EQ(vocab.TypeOf("read_csv"), 1);
  int xgb = vocab.TypeOf("xgboost");
  ASSERT_GE(xgb, 2);
  EXPECT_TRUE(vocab.IsEstimator(xgb));
  int scaler = vocab.TypeOf("standard_scaler");
  ASSERT_GE(scaler, 2);
  EXPECT_FALSE(vocab.IsEstimator(scaler));
  EXPECT_TRUE(vocab.IsTransformer(scaler));
  EXPECT_EQ(vocab.TypeOf("nonexistent"), -1);
}

}  // namespace
}  // namespace kgpip
