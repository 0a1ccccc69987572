#include "codegraph/corpus.h"

#include <algorithm>

#include "codegraph/ml_api.h"
#include "ml/learner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace kgpip::codegraph {

namespace {

/// Probability a pipeline's read_csv hides the dataset name (the paper:
/// "in some cases, the code ... does not explicitly mention the dataset
/// name"), forcing the portal association to supply it.
constexpr double kImplicitDatasetProb = 0.15;
/// Probability a pipeline uses an off-profile estimator (real
/// leaderboards are biased toward what works, not unanimous).
constexpr double kOffProfileProb = 0.15;

/// Short module alias for a Python class path, e.g.
/// "sklearn.ensemble.RandomForestClassifier" -> import line + usable name.
struct ImportPlan {
  std::string import_line;
  std::string constructor;
};

ImportPlan PlanImport(const std::string& python_class, Rng* rng) {
  size_t dot = python_class.find_last_of('.');
  std::string module = python_class.substr(0, dot);
  std::string cls = python_class.substr(dot + 1);
  if (rng->Bernoulli(0.6)) {
    return {"from " + module + " import " + cls, cls};
  }
  // import sklearn.ensemble as ens; ens.RandomForestClassifier(...)
  size_t last_dot = module.find_last_of('.');
  std::string alias =
      (last_dot == std::string::npos ? module : module.substr(last_dot + 1))
          .substr(0, 3);
  return {"import " + module + " as " + alias, alias + "." + cls};
}

std::string EstimatorKwargs(const std::string& canonical, Rng* rng) {
  if (canonical == "xgboost" || canonical == "lgbm" ||
      canonical == "gradient_boosting") {
    return StrFormat("n_estimators=%d, max_depth=%d",
                     static_cast<int>(rng->UniformInt(50, 300)),
                     static_cast<int>(rng->UniformInt(3, 9)));
  }
  if (canonical == "random_forest" || canonical == "extra_trees") {
    return StrFormat("n_estimators=%d",
                     static_cast<int>(rng->UniformInt(50, 400)));
  }
  if (canonical == "logistic_regression") {
    return StrFormat("C=%.2f", rng->Uniform(0.1, 10.0));
  }
  if (canonical == "knn") {
    return StrFormat("n_neighbors=%d",
                     static_cast<int>(rng->UniformInt(3, 15)));
  }
  if (canonical == "ridge" || canonical == "lasso") {
    return StrFormat("alpha=%.3f", rng->Uniform(0.001, 1.0));
  }
  return "";
}

}  // namespace

CorpusGenerator::CorpusGenerator(CorpusOptions options)
    : options_(options), rng_(options.seed) {}

NotebookScript CorpusGenerator::GeneratePipeline(const DatasetSpec& spec,
                                                 int index, Rng* rng) const {
  NotebookScript script;
  script.name = spec.name + "_kernel_" + std::to_string(index) + ".py";
  script.dataset_name = spec.name;
  script.is_ml_pipeline = true;
  const bool regression = spec.task == TaskType::kRegression;

  // ---- Choose the estimator, leaderboard-style. ----
  std::vector<std::string> affine =
      FamilyAffineLearners(spec.family, spec.task);
  std::string estimator;
  if (rng->Bernoulli(kOffProfileProb)) {
    // Off-profile: any supported learner.
    std::vector<std::string> all;
    for (const auto& info : ml::LearnerRegistry()) {
      if (ml::LearnerSupports(info.name, spec.task)) all.push_back(info.name);
    }
    estimator = all[rng->UniformInt(all.size())];
  } else {
    std::vector<double> weights;
    for (size_t i = 0; i < affine.size(); ++i) {
      weights.push_back(1.0 / static_cast<double>((i + 1) * (i + 1)));
    }
    estimator = affine[rng->Categorical(weights)];
  }
  script.estimator = estimator;

  // ---- Choose transformers with family-aware preferences. ----
  std::vector<std::string> transformers;
  switch (spec.family) {
    case ConceptFamily::kSparse:
      if (rng->Bernoulli(0.7)) transformers.push_back("select_k_best");
      if (rng->Bernoulli(0.3)) transformers.push_back("standard_scaler");
      break;
    case ConceptFamily::kText:
      transformers.push_back(rng->Bernoulli(0.7) ? "tfidf_vectorizer"
                                                 : "count_vectorizer");
      break;
    case ConceptFamily::kLinear:
    case ConceptFamily::kClusters:
      if (rng->Bernoulli(0.75)) transformers.push_back("standard_scaler");
      if (rng->Bernoulli(0.15)) transformers.push_back("pca");
      break;
    default:
      if (rng->Bernoulli(0.3)) transformers.push_back("standard_scaler");
      if (rng->Bernoulli(0.15)) transformers.push_back("minmax_scaler");
      if (rng->Bernoulli(0.1)) transformers.push_back("variance_threshold");
      break;
  }
  if (spec.missing_fraction > 0.0 && rng->Bernoulli(0.4)) {
    transformers.insert(transformers.begin(), "simple_imputer");
  }
  script.transformers = transformers;

  // ---- Emit the script text. ----
  std::vector<std::string> lines;
  lines.push_back("import pandas as pd");
  lines.push_back("import numpy as np");
  if (rng->Bernoulli(0.6)) {
    lines.push_back("import matplotlib.pyplot as plt");
  }
  if (rng->Bernoulli(0.3)) lines.push_back("import seaborn as sns");
  lines.push_back("from sklearn.model_selection import train_test_split");
  lines.push_back("from sklearn.metrics import accuracy_score");

  std::vector<ImportPlan> transformer_plans;
  for (const std::string& t : transformers) {
    ImportPlan plan = PlanImport(PythonClassFor(t, regression), rng);
    lines.push_back(plan.import_line);
    transformer_plans.push_back(plan);
  }
  ImportPlan est_plan =
      PlanImport(PythonClassFor(estimator, regression), rng);
  lines.push_back(est_plan.import_line);
  lines.push_back("");

  // Load the dataset (sometimes with an anonymous file name).
  std::string csv = rng->Bernoulli(kImplicitDatasetProb)
                        ? "data.csv"
                        : spec.name + ".csv";
  lines.push_back("df = pd.read_csv('" + csv + "')");

  // EDA noise typical of notebooks.
  if (rng->Bernoulli(0.7)) lines.push_back("df.head()");
  if (rng->Bernoulli(0.5)) lines.push_back("df.describe()");
  if (rng->Bernoulli(0.4)) lines.push_back("df.info()");
  if (rng->Bernoulli(0.35)) {
    lines.push_back("plt.figure()");
    lines.push_back("sns.heatmap(df.corr())");
  }
  if (rng->Bernoulli(0.3)) lines.push_back("df = df.dropna()");
  if (rng->Bernoulli(0.25)) {
    lines.push_back("for col in df.columns:");
    lines.push_back("    print(df[col].nunique())");
  }

  lines.push_back("X = df.drop(columns=['target'])");
  lines.push_back("y = df['target']");
  lines.push_back(
      "X_train, X_test, y_train, y_test = train_test_split(X, y, "
      "test_size=0.25)");

  for (size_t i = 0; i < transformer_plans.size(); ++i) {
    std::string var = "prep" + std::to_string(i);
    lines.push_back(var + " = " + transformer_plans[i].constructor + "()");
    lines.push_back("X_train = " + var + ".fit_transform(X_train)");
    lines.push_back("X_test = " + var + ".transform(X_test)");
  }

  lines.push_back("model = " + est_plan.constructor + "(" +
                  EstimatorKwargs(estimator, rng) + ")");
  lines.push_back("model.fit(X_train, y_train)");
  lines.push_back("preds = model.predict(X_test)");
  lines.push_back("score = accuracy_score(y_test, preds)");
  lines.push_back("print(score)");

  script.text = Join(lines, "\n") + "\n";
  return script;
}

NotebookScript CorpusGenerator::GenerateNoiseScript(const DatasetSpec& spec,
                                                    int index,
                                                    Rng* rng) const {
  NotebookScript script;
  script.name = spec.name + "_noise_" + std::to_string(index) + ".py";
  script.dataset_name = spec.name;
  script.is_ml_pipeline = false;
  std::vector<std::string> lines;
  if (rng->Bernoulli(0.5)) {
    // Pure exploratory analysis — no estimator at all.
    lines = {
        "import pandas as pd",
        "import matplotlib.pyplot as plt",
        "import seaborn as sns",
        "",
        "df = pd.read_csv('" + spec.name + ".csv')",
        "df.head()",
        "df.describe()",
        "df.info()",
        "plt.figure()",
        "sns.pairplot(df)",
        "df.groupby('target').mean()",
        "plt.show()",
    };
  } else {
    // Unsupported deep-learning framework — filtered out like the paper's
    // PyTorch/Keras notebooks.
    lines = {
        "import pandas as pd",
        "import torch",
        "import torch.nn as nn",
        "",
        "df = pd.read_csv('" + spec.name + ".csv')",
        "x = torch.tensor(df.values)",
        "model = nn.Sequential(nn.Linear(16, 8), nn.ReLU(), nn.Linear(8, "
        "1))",
        "opt = torch.optim.Adam(model.parameters(), lr=0.001)",
        "loss = nn.MSELoss()",
        "out = model(x)",
        "print(out)",
    };
  }
  script.text = Join(lines, "\n") + "\n";
  return script;
}

std::vector<NotebookScript> CorpusGenerator::GenerateForDataset(
    const DatasetSpec& spec, Rng* rng) const {
  static obs::Counter* pipelines = obs::MetricsRegistry::Global().GetCounter(
      "corpus.pipeline_scripts_generated");
  static obs::Counter* noise = obs::MetricsRegistry::Global().GetCounter(
      "corpus.noise_scripts_generated");
  std::vector<NotebookScript> scripts;
  for (int i = 0; i < options_.pipelines_per_dataset; ++i) {
    scripts.push_back(GeneratePipeline(spec, i, rng));
  }
  pipelines->Increment(options_.pipelines_per_dataset);
  for (int i = 0; i < options_.noise_scripts_per_dataset; ++i) {
    scripts.push_back(GenerateNoiseScript(spec, i, rng));
  }
  noise->Increment(options_.noise_scripts_per_dataset);
  return scripts;
}

std::vector<NotebookScript> CorpusGenerator::GenerateForDataset(
    const DatasetSpec& spec) {
  return GenerateForDataset(spec, &rng_);
}

std::vector<NotebookScript> CorpusGenerator::GenerateCorpus(
    const std::vector<DatasetSpec>& specs) {
  KGPIP_TRACE_SPAN("corpus.generate_corpus");
  // Fork one RNG stream per dataset *before* dispatch: which values a
  // dataset's scripts draw no longer depends on how work interleaves, so
  // the corpus is byte-identical at any thread count.
  std::vector<Rng> forks = util::ForkRngs(&rng_, specs.size());
  std::vector<std::vector<NotebookScript>> per_dataset =
      util::ThreadPool::Global().ParallelMap<std::vector<NotebookScript>>(
          specs.size(), [&](size_t i) {
            return GenerateForDataset(specs[i], &forks[i]);
          });
  std::vector<NotebookScript> all;
  for (std::vector<NotebookScript>& scripts : per_dataset) {
    for (NotebookScript& s : scripts) all.push_back(std::move(s));
  }
  return all;
}

}  // namespace kgpip::codegraph
