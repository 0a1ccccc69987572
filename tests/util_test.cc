#include <gtest/gtest.h>

#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace kgpip {
namespace {

TEST(DeadlineTest, NonPositiveLimitMeansNoDeadline) {
  for (double limit : {0.0, -1.0}) {
    Deadline deadline(limit);
    EXPECT_FALSE(deadline.Expired()) << "limit " << limit;
  }
}

TEST(DeadlineTest, PositiveLimitCountsDown) {
  Deadline deadline(3600.0);
  EXPECT_FALSE(deadline.Expired());

  Deadline tiny(1e-9);  // already in the past by the time we check
  EXPECT_TRUE(tiny.Expired());
}

TEST(StatusTest, OkAndError) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");
  Status err = Status::NotFound("missing thing");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kNotFound);
  EXPECT_EQ(err.ToString(), "NOT_FOUND: missing thing");
}

TEST(ResultTest, HoldsAValue) {
  Result<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
}

TEST(ResultTest, HoldsAStatus) {
  Result<int> bad(Status::InvalidArgument("nope"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> UseAssignOrReturn(int x) {
  KGPIP_ASSIGN_OR_RETURN(int half, HalveEven(x));
  return half + 1;
}

TEST(ResultTest, AssignOrReturnMacro) {
  Result<int> ok = UseAssignOrReturn(4);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 3);
  Result<int> err = UseAssignOrReturn(3);
  EXPECT_FALSE(err.ok());
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, NormalMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(3);
  auto p = rng.Permutation(50);
  std::vector<bool> seen(50, false);
  for (size_t v : p) {
    ASSERT_LT(v, 50u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(5);
  std::vector<double> weights = {0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.Categorical(weights), 1u);
  }
}

TEST(StringUtilTest, SplitJoinRoundTrip) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join(parts, ","), "a,b,,c");
}

TEST(StringUtilTest, ParseDoubleRejectsGarbage) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble("  -1e3 ", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(ParseDouble("3.25x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
}

TEST(StringUtilTest, Fnv1aStable) {
  EXPECT_EQ(Fnv1a64("hello"), Fnv1a64("hello"));
  EXPECT_NE(Fnv1a64("hello"), Fnv1a64("hellp"));
}

TEST(JsonTest, ParseRoundTrip) {
  auto parsed = Json::Parse(
      R"({"name": "kgpip", "k": 5, "nested": {"arr": [1, 2.5, true, null]},
          "text": "a\"b\\c\nd"})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& j = *parsed;
  EXPECT_EQ(j.Get("name").AsString(), "kgpip");
  EXPECT_EQ(j.Get("k").AsInt(), 5);
  EXPECT_EQ(j.Get("nested").Get("arr").size(), 4u);
  EXPECT_DOUBLE_EQ(j.Get("nested").Get("arr").at(1).AsDouble(), 2.5);
  EXPECT_TRUE(j.Get("nested").Get("arr").at(2).AsBool());
  EXPECT_TRUE(j.Get("nested").Get("arr").at(3).is_null());
  EXPECT_EQ(j.Get("text").AsString(), "a\"b\\c\nd");

  // Round trip through Dump.
  auto reparsed = Json::Parse(j.Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->Get("text").AsString(), "a\"b\\c\nd");
  EXPECT_EQ(reparsed->Dump(), j.Dump());
}

TEST(JsonTest, NestingPastTheCapIsAParseErrorWithItsOffset) {
  const int cap = Json::kMaxParseDepth;
  auto arrays = [](int depth) {
    return std::string(static_cast<size_t>(depth), '[') +
           std::string(static_cast<size_t>(depth), ']');
  };
  auto objects = [](int depth) {
    std::string text;
    for (int i = 0; i < depth; ++i) text += R"({"k":)";
    return text + "1" + std::string(static_cast<size_t>(depth), '}');
  };
  EXPECT_TRUE(Json::Parse(arrays(cap)).ok());
  EXPECT_TRUE(Json::Parse(objects(cap)).ok());
  // The first bracket past the cap is at byte `cap` of the arrays and
  // at byte 5 * cap of the objects.
  auto deep = Json::Parse(arrays(cap + 1));
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kParseError);
  EXPECT_NE(deep.status().message().find(
                "deeper than " + std::to_string(cap) + " levels at offset " +
                std::to_string(cap)),
            std::string::npos)
      << deep.status().ToString();
  auto deep_objects = Json::Parse(objects(cap + 1));
  ASSERT_FALSE(deep_objects.ok());
  EXPECT_NE(deep_objects.status().message().find(
                "at offset " + std::to_string(5 * cap)),
            std::string::npos)
      << deep_objects.status().ToString();
  // Hostile depth fails the same way instead of exhausting the stack.
  EXPECT_EQ(Json::Parse(arrays(10000)).status().code(),
            StatusCode::kParseError);
}

TEST(JsonTest, AtOnAnObjectOrPastTheEndIsNull) {
  // size() counts an object's members, so a loop over size() that calls
  // at() must not index past the (empty) array: at() returns the shared
  // null, as Get does for a missing key.
  auto parsed = Json::Parse(R"({"obj": {"x": 1, "y": 2}, "arr": [7]})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& obj = parsed->Get("obj");
  ASSERT_EQ(obj.size(), 2u);
  EXPECT_TRUE(obj.at(0).is_null());
  EXPECT_TRUE(obj.at(1).is_null());
  const Json& arr = parsed->Get("arr");
  EXPECT_EQ(arr.at(0).AsInt(), 7);
  EXPECT_TRUE(arr.at(1).is_null());
  EXPECT_TRUE(arr.at(1).at(0).is_null());
  EXPECT_TRUE(Json(3.5).at(0).is_null());
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
}

TEST(JsonTest, UnicodeEscape) {
  auto parsed = Json::Parse(R"("Aé")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString(), "A\xc3\xa9");
}

TEST(StatsTest, MeanAndStdDev) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_NEAR(StdDev(v), 1.2909944, 1e-6);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev({1.0}), 0.0);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> z = {5, 4, 3, 2, 1};
  EXPECT_NEAR(PearsonCorrelation(x, z), -1.0, 1e-12);
}

TEST(StatsTest, SpearmanHandlesTies) {
  std::vector<double> x = {1, 2, 2, 3};
  std::vector<double> y = {10, 20, 20, 30};
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
}

TEST(StatsTest, IncompleteBetaKnownValues) {
  // I_x(1, 1) = x.
  EXPECT_NEAR(RegularizedIncompleteBeta(1.0, 1.0, 0.3), 0.3, 1e-10);
  // I_x(2, 2) = x^2 (3 - 2x).
  double x = 0.4;
  EXPECT_NEAR(RegularizedIncompleteBeta(2.0, 2.0, x),
              x * x * (3.0 - 2.0 * x), 1e-10);
}

TEST(StatsTest, StudentTPValueMatchesReference) {
  // t = 2.0, df = 10 -> two-tailed p ~ 0.07339.
  EXPECT_NEAR(StudentTTwoTailedPValue(2.0, 10.0), 0.07339, 2e-4);
  // Symmetric in t.
  EXPECT_NEAR(StudentTTwoTailedPValue(-2.0, 10.0),
              StudentTTwoTailedPValue(2.0, 10.0), 1e-12);
  // Large |t| -> tiny p.
  EXPECT_LT(StudentTTwoTailedPValue(10.0, 20.0), 1e-6);
}

TEST(StatsTest, PairedTTestDetectsShift) {
  std::vector<double> x, y;
  Rng rng(42);
  for (int i = 0; i < 30; ++i) {
    double base = rng.Normal();
    x.push_back(base + 0.5);
    y.push_back(base + rng.Normal() * 0.1);
  }
  TTestResult r = PairedTTest(x, y);
  EXPECT_LT(r.p_value, 0.01);
  EXPECT_GT(r.t_statistic, 0.0);

  // Identical samples: p = 1.
  TTestResult same = PairedTTest(x, x);
  EXPECT_DOUBLE_EQ(same.p_value, 1.0);
}

TEST(StatsTest, MeanReciprocalRank) {
  EXPECT_DOUBLE_EQ(MeanReciprocalRank({1, 2, 4}),
                   (1.0 + 0.5 + 0.25) / 3.0);
  EXPECT_DOUBLE_EQ(MeanReciprocalRank({0}), 0.0);  // miss
  EXPECT_DOUBLE_EQ(MeanReciprocalRank({}), 0.0);
}

TEST(StatsTest, SilhouetteSeparatedClusters) {
  std::vector<std::vector<double>> points;
  std::vector<int> labels;
  Rng rng(1);
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 10; ++i) {
      points.push_back({c * 10.0 + rng.Normal() * 0.1,
                        c * -7.0 + rng.Normal() * 0.1});
      labels.push_back(c);
    }
  }
  EXPECT_GT(SilhouetteScore(points, labels), 0.9);
}

}  // namespace
}  // namespace kgpip
