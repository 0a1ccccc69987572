#include "data/synthetic.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace kgpip {

namespace {

constexpr int kLatentDim = 6;

struct DomainProfile {
  const char* numeric_names[8];
  const char* categorical_names[4];
  const char* text_name;
  const char* tokens[12];
  double offset_lo;
  double offset_hi;
  double scale_lo;
  double scale_hi;
  int cat_cardinality;
};

const DomainProfile& GetDomainProfile(Domain domain) {
  static const DomainProfile kSalesProfile = {
      {"price", "quantity", "discount", "revenue", "margin", "units",
       "basket_size", "returns"},
      {"region", "channel", "category", "segment"},
      "product_review",
      {"order", "store", "promo", "sku", "client", "cart", "ship",
       "invoice", "retail", "deal", "stock", "brand"},
      50.0, 500.0, 5.0, 80.0, 6};
  static const DomainProfile kFinanceProfile = {
      {"balance", "credit_limit", "income", "debt_ratio", "tenure",
       "num_accounts", "late_payments", "utilization"},
      {"account_type", "employment", "grade", "purpose"},
      "loan_description",
      {"loan", "credit", "rate", "bank", "fund", "yield", "bond",
       "equity", "risk", "asset", "payment", "mortgage"},
      1000.0, 20000.0, 100.0, 5000.0, 7};
  static const DomainProfile kHealthcareProfile = {
      {"age", "bmi", "blood_pressure", "glucose", "cholesterol",
       "heart_rate", "insulin", "visits"},
      {"gender", "smoker", "diagnosis", "ward"},
      "clinical_notes",
      {"patient", "dose", "symptom", "chronic", "lab", "scan",
       "therapy", "acute", "clinic", "nurse", "relapse", "vital"},
      20.0, 120.0, 2.0, 30.0, 4};
  static const DomainProfile kReviewsProfile = {
      {"stars", "helpful_votes", "review_length", "user_karma",
       "num_reviews", "days_since", "upvotes", "readability"},
      {"verified", "platform", "language", "product_line"},
      "review_text",
      {"great", "terrible", "love", "hate", "excellent", "poor",
       "amazing", "awful", "recommend", "refund", "quality", "broken"},
      0.0, 5.0, 0.5, 3.0, 3};
  static const DomainProfile kSensorsProfile = {
      {"temperature", "humidity", "pressure", "vibration", "voltage",
       "current", "rpm", "acoustic"},
      {"machine_id", "shift", "site", "firmware"},
      "maintenance_log",
      {"sensor", "fault", "drift", "calibrate", "threshold", "alarm",
       "cycle", "motor", "bearing", "spike", "reading", "gauge"},
      -2.0, 2.0, 0.1, 1.5, 8};
  static const DomainProfile kGamesProfile = {
      {"move_count", "piece_value", "mobility", "king_safety",
       "pawn_structure", "material", "tempo", "threats"},
      {"opening", "side", "time_control", "phase"},
      "game_notes",
      {"check", "mate", "gambit", "castle", "endgame", "blunder",
       "fork", "pin", "rank", "file", "knight", "rook"},
      0.0, 40.0, 1.0, 10.0, 5};
  static const DomainProfile kVisionProfile = {
      {"pixel_mean", "pixel_var", "edge_density", "contrast",
       "brightness", "saturation", "entropy", "gradient"},
      {"orientation", "capture_device", "lighting", "background"},
      "caption",
      {"image", "blur", "sharp", "object", "corner", "texture",
       "patch", "mask", "frame", "channel", "filter", "crop"},
      0.0, 255.0, 10.0, 60.0, 4};
  static const DomainProfile kPhysicsProfile = {
      {"energy", "momentum", "mass", "angle", "velocity", "charge",
       "spin", "decay_time"},
      {"detector", "run_type", "trigger", "beam"},
      "event_log",
      {"particle", "collision", "jet", "muon", "hadron", "boson",
       "lepton", "quark", "track", "vertex", "signal", "background"},
      -5.0, 5.0, 0.5, 5.0, 4};
  static const DomainProfile kWebProfile = {
      {"session_length", "clicks", "page_views", "bounce_rate",
       "latency_ms", "requests", "unique_ips", "conversion"},
      {"browser", "country", "referrer", "device"},
      "query_text",
      {"click", "search", "landing", "banner", "mobile", "session",
       "visit", "funnel", "cookie", "cache", "scroll", "widget"},
      0.0, 1000.0, 10.0, 200.0, 9};
  static const DomainProfile kGenericProfile = {
      {"feature_a", "feature_b", "feature_c", "feature_d", "feature_e",
       "feature_f", "feature_g", "feature_h"},
      {"group", "kind", "bucket", "flag"},
      "notes",
      {"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
       "theta", "iota", "kappa", "lambda", "mu"},
      0.0, 10.0, 0.5, 5.0, 5};
  switch (domain) {
    case Domain::kSales:
      return kSalesProfile;
    case Domain::kFinance:
      return kFinanceProfile;
    case Domain::kHealthcare:
      return kHealthcareProfile;
    case Domain::kReviews:
      return kReviewsProfile;
    case Domain::kSensors:
      return kSensorsProfile;
    case Domain::kGames:
      return kGamesProfile;
    case Domain::kVision:
      return kVisionProfile;
    case Domain::kPhysics:
      return kPhysicsProfile;
    case Domain::kWeb:
      return kWebProfile;
    case Domain::kGeneric:
      return kGenericProfile;
  }
  return kGenericProfile;
}

/// Number of numeric columns that carry latent signal for a family.
int InformativeNumeric(ConceptFamily family, int num_numeric) {
  switch (family) {
    case ConceptFamily::kSparse:
      return std::min(3, num_numeric);
    case ConceptFamily::kNoise:
      return std::min(1, num_numeric);
    default:
      return std::min(kLatentDim, num_numeric);
  }
}

/// Continuous family score used for both the regression target and (via
/// per-class shifts / thresholds) classification labels.
double FamilyScore(ConceptFamily family, const double* z, Rng* rng,
                   bool regression) {
  switch (family) {
    case ConceptFamily::kLinear:
      return 1.3 * z[0] - 0.9 * z[1] + 0.6 * z[2] + 0.3 * z[3];
    case ConceptFamily::kRules: {
      // Piecewise-constant on axis-aligned cells.
      double s = 0.0;
      s += z[0] > 0.4 ? 2.0 : -1.0;
      s += z[1] > -0.3 ? (z[2] > 0.1 ? 1.5 : -0.5) : 0.8;
      s += z[3] > 0.9 ? -2.2 : 0.0;
      return s;
    }
    case ConceptFamily::kInteractions:
      if (regression) {
        // Friedman-style: a product interaction plus a quadratic and a
        // weak main effect, so greedy regression trees have an entry
        // point while linear models stay far behind.
        return 1.6 * z[0] * z[1] + 1.2 * (z[2] * z[2] - 1.0) +
               0.8 * z[3];
      }
      // Pure products for classification: sign structure that boosting
      // captures and no linear model (even over binned categoricals) can.
      return 2.0 * z[0] * z[1] + 1.4 * z[2] * z[3];
    case ConceptFamily::kSparse:
      return 1.5 * z[0] - 1.1 * z[1] + 0.8 * z[2];
    case ConceptFamily::kClusters:
      // Handled separately for classification; a radial score for
      // regression.
      return std::sqrt(z[0] * z[0] + z[1] * z[1] + z[2] * z[2]);
    case ConceptFamily::kText:
      return 0.4 * z[0];  // weak numeric signal; text carries the label
    case ConceptFamily::kNoise:
      return 0.15 * z[0] + rng->Normal();  // mostly noise
  }
  return 0.0;
}

}  // namespace

const char* ConceptFamilyName(ConceptFamily family) {
  switch (family) {
    case ConceptFamily::kLinear:
      return "linear";
    case ConceptFamily::kRules:
      return "rules";
    case ConceptFamily::kInteractions:
      return "interactions";
    case ConceptFamily::kSparse:
      return "sparse";
    case ConceptFamily::kClusters:
      return "clusters";
    case ConceptFamily::kText:
      return "text";
    case ConceptFamily::kNoise:
      return "noise";
  }
  return "?";
}

const char* DomainName(Domain domain) {
  switch (domain) {
    case Domain::kSales:
      return "sales";
    case Domain::kFinance:
      return "finance";
    case Domain::kHealthcare:
      return "healthcare";
    case Domain::kReviews:
      return "reviews";
    case Domain::kSensors:
      return "sensors";
    case Domain::kGames:
      return "games";
    case Domain::kVision:
      return "vision";
    case Domain::kPhysics:
      return "physics";
    case Domain::kWeb:
      return "web";
    case Domain::kGeneric:
      return "generic";
  }
  return "?";
}

Table GenerateDataset(const DatasetSpec& spec) {
  KGPIP_CHECK(spec.rows > 0);
  Rng rng(spec.seed * 0x9E3779B97F4A7C15ULL + 17);
  const DomainProfile& profile = GetDomainProfile(spec.domain);
  const int n = spec.rows;
  const int classes =
      spec.task == TaskType::kRegression ? 0 : std::max(2, spec.num_classes);

  // Latent features per row.
  std::vector<std::array<double, kLatentDim>> latents(
      static_cast<size_t>(n));
  // Cluster assignment (kClusters) decided up front so features can shift.
  std::vector<int> cluster(static_cast<size_t>(n), 0);
  std::vector<std::array<double, kLatentDim>> centers;
  if (spec.family == ConceptFamily::kClusters) {
    int k = classes > 0 ? classes : 5;
    Rng center_rng(spec.seed ^ 0xABCDEF);
    for (int c = 0; c < k; ++c) {
      std::array<double, kLatentDim> center{};
      for (double& v : center) v = center_rng.Normal() * 2.5;
      centers.push_back(center);
    }
  }
  for (int r = 0; r < n; ++r) {
    if (!centers.empty()) {
      cluster[r] = static_cast<int>(rng.UniformInt(centers.size()));
    }
    for (int d = 0; d < kLatentDim; ++d) {
      double base = rng.Normal();
      if (!centers.empty()) base = base * 0.6 + centers[cluster[r]][d];
      latents[r][d] = base;
    }
  }

  // ----- Labels -----
  std::vector<double> reg_target(static_cast<size_t>(n), 0.0);
  std::vector<int> cls_target(static_cast<size_t>(n), 0);
  Rng label_rng(spec.seed ^ 0x5151);
  if (spec.task == TaskType::kRegression) {
    for (int r = 0; r < n; ++r) {
      reg_target[r] = FamilyScore(spec.family, latents[r].data(),
                                  &label_rng, /*regression=*/true);
    }
    // Scale noise to the target spread.
    double sd = 0.0;
    double mean = 0.0;
    for (double v : reg_target) mean += v;
    mean /= n;
    for (double v : reg_target) sd += (v - mean) * (v - mean);
    sd = std::sqrt(sd / std::max(1, n - 1));
    for (double& v : reg_target) {
      v += label_rng.Normal() * sd * spec.label_noise * 2.0;
    }
  } else if (spec.family == ConceptFamily::kClusters) {
    for (int r = 0; r < n; ++r) cls_target[r] = cluster[r] % classes;
  } else if (spec.family == ConceptFamily::kText) {
    for (int r = 0; r < n; ++r) {
      cls_target[r] = static_cast<int>(label_rng.UniformInt(
          static_cast<uint64_t>(classes)));
    }
  } else {
    // Threshold the continuous score into `classes` quantile bins.
    std::vector<double> scores(static_cast<size_t>(n));
    for (int r = 0; r < n; ++r) {
      scores[r] = FamilyScore(spec.family, latents[r].data(), &label_rng,
                              /*regression=*/false);
    }
    std::vector<double> sorted = scores;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> cuts;
    for (int c = 1; c < classes; ++c) {
      cuts.push_back(sorted[static_cast<size_t>(
          static_cast<double>(n) * c / classes)]);
    }
    for (int r = 0; r < n; ++r) {
      int label = 0;
      while (label < classes - 1 && scores[r] > cuts[label]) ++label;
      cls_target[r] = label;
    }
  }
  // Label noise for classification: flip to a random class.
  if (spec.task != TaskType::kRegression) {
    for (int r = 0; r < n; ++r) {
      if (label_rng.Bernoulli(spec.label_noise)) {
        cls_target[r] = static_cast<int>(label_rng.UniformInt(
            static_cast<uint64_t>(classes)));
      }
    }
  }

  // ----- Feature columns -----
  Table table(spec.name);
  Rng col_rng(spec.seed ^ 0xFEED);
  const int informative = InformativeNumeric(spec.family, spec.num_numeric);

  for (int j = 0; j < spec.num_numeric; ++j) {
    std::string name = profile.numeric_names[j % 8];
    if (j >= 8) name += StrFormat("_%d", j / 8);
    double offset = col_rng.Uniform(profile.offset_lo, profile.offset_hi);
    double scale = col_rng.Uniform(profile.scale_lo, profile.scale_hi);
    std::vector<double> values(static_cast<size_t>(n));
    bool is_informative = j < informative;
    for (int r = 0; r < n; ++r) {
      double base = is_informative
                        ? latents[r][j % kLatentDim] +
                              0.08 * col_rng.Normal()
                        : col_rng.Normal();
      values[r] = offset + scale * base;
    }
    KGPIP_CHECK(table.AddColumn(Column::Numeric(std::move(name),
                                            std::move(values))).ok());
  }

  for (int j = 0; j < spec.num_categorical; ++j) {
    std::string name = profile.categorical_names[j % 4];
    if (j >= 4) name += StrFormat("_%d", j / 4);
    int cardinality = profile.cat_cardinality + (j % 3);
    std::vector<std::string> values(static_cast<size_t>(n));
    // First few categorical columns bin a latent so they are informative.
    bool is_informative = j < 3 && spec.family != ConceptFamily::kNoise;
    int latent_index = (spec.num_numeric + j) % kLatentDim;
    for (int r = 0; r < n; ++r) {
      int bucket;
      if (is_informative) {
        double v = latents[r][latent_index];
        double unit = 0.5 * (1.0 + std::erf(v / std::sqrt(2.0)));
        bucket = std::min(cardinality - 1,
                          static_cast<int>(unit * cardinality));
      } else {
        bucket = static_cast<int>(col_rng.UniformInt(
            static_cast<uint64_t>(cardinality)));
      }
      values[r] = std::string(profile.categorical_names[j % 4]) + "_v" +
                  std::to_string(bucket);
    }
    KGPIP_CHECK(table.AddColumn(Column::Categorical(std::move(name),
                                                std::move(values))).ok());
  }

  for (int j = 0; j < spec.num_text; ++j) {
    std::string name = profile.text_name;
    if (j >= 1) name += StrFormat("_%d", j);
    std::vector<std::string> values(static_cast<size_t>(n));
    for (int r = 0; r < n; ++r) {
      int len = static_cast<int>(col_rng.UniformInt(5, 12));
      std::vector<std::string> tokens;
      for (int t = 0; t < len; ++t) {
        tokens.push_back(profile.tokens[col_rng.UniformInt(12)]);
      }
      if (spec.family == ConceptFamily::kText &&
          spec.task != TaskType::kRegression) {
        // Inject 2-3 class-specific keywords; this is the label signal.
        std::string keyword = "topic" + std::to_string(cls_target[r]);
        int copies = static_cast<int>(col_rng.UniformInt(2, 3));
        for (int t = 0; t < copies; ++t) {
          tokens[col_rng.UniformInt(tokens.size())] = keyword;
        }
      }
      values[r] = Join(tokens, " ");
    }
    KGPIP_CHECK(table.AddColumn(Column::Text(std::move(name),
                                         std::move(values))).ok());
  }

  // Missing values on features.
  Rng missing_rng(spec.seed ^ 0xDEAD);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    Column& col = table.mutable_column(c);
    for (int r = 0; r < n; ++r) {
      if (missing_rng.Bernoulli(spec.missing_fraction)) {
        if (col.type() == ColumnType::kNumeric) {
          col.mutable_numeric_values()[static_cast<size_t>(r)] =
              std::numeric_limits<double>::quiet_NaN();
        }
        col.SetMissing(static_cast<size_t>(r), true);
      }
    }
  }

  // Target column.
  if (spec.task == TaskType::kRegression) {
    KGPIP_CHECK(table.AddColumn(Column::Numeric("target",
                                            std::move(reg_target))).ok());
  } else {
    std::vector<std::string> labels(static_cast<size_t>(n));
    for (int r = 0; r < n; ++r) {
      labels[r] = "class_" + std::to_string(cls_target[r]);
    }
    KGPIP_CHECK(table.AddColumn(Column::Categorical("target",
                                                std::move(labels))).ok());
  }
  table.set_target_name("target");
  return table;
}

std::vector<std::string> FamilyAffineLearners(ConceptFamily family,
                                              TaskType task) {
  const bool reg = task == TaskType::kRegression;
  switch (family) {
    case ConceptFamily::kLinear:
      return reg ? std::vector<std::string>{"ridge", "linear_regression",
                                            "lasso", "lgbm"}
                 : std::vector<std::string>{"logistic_regression",
                                            "linear_svm", "sgd", "lgbm"};
    case ConceptFamily::kRules:
      return {"xgboost", "decision_tree", "lgbm", "random_forest"};
    case ConceptFamily::kInteractions:
      return {"xgboost", "lgbm", "gradient_boosting", "random_forest",
              "extra_trees"};
    case ConceptFamily::kSparse:
      return reg ? std::vector<std::string>{"lasso", "ridge", "lgbm"}
                 : std::vector<std::string>{"logistic_regression", "sgd",
                                            "lgbm"};
    case ConceptFamily::kClusters:
      return reg ? std::vector<std::string>{"knn", "random_forest",
                                            "extra_trees"}
                 : std::vector<std::string>{"knn", "gaussian_nb",
                                            "random_forest"};
    case ConceptFamily::kText:
      return reg ? std::vector<std::string>{"ridge", "sgd"}
                 : std::vector<std::string>{"sgd", "logistic_regression",
                                            "gaussian_nb"};
    case ConceptFamily::kNoise:
      return reg ? std::vector<std::string>{"lgbm", "ridge"}
                 : std::vector<std::string>{"lgbm", "logistic_regression"};
  }
  return {};
}

}  // namespace kgpip
