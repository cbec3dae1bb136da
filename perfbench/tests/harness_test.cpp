// Tests for the benchmark harness's own parts: seeded generators,
// percentile summaries and metric names.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "harness.hpp"
#include "serve/signature.hpp"
#include "support/percentile.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<std::size_t> picks(const Zipf& zipf, std::uint64_t seed,
                               std::size_t n) {
  bc::Rng rng(seed);
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(zipf(rng));
  return out;
}

TEST(Zipf, SameSeedSamePicks) {
  const Zipf zipf(144, 1.0);
  EXPECT_EQ(picks(zipf, 7, 1000), picks(zipf, 7, 1000));
  EXPECT_NE(picks(zipf, 7, 1000), picks(zipf, 8, 1000));
}

TEST(Zipf, RanksInRangeAndSkewed) {
  const Zipf zipf(50, 1.0);
  const std::vector<std::size_t> v = picks(zipf, 3, 20000);
  std::vector<std::size_t> counts(50, 0);
  for (std::size_t r : v) {
    ASSERT_LT(r, 50u);
    ++counts[r];
  }
  // Rank 0 is about twice as popular as rank 1 under s = 1.
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
}

TEST(NewShapes, DeterministicDistinctAndUnseen) {
  const std::vector<Target> a = new_shapes(30, 5);
  const std::vector<Target> b = new_shapes(30, 5);
  const std::vector<Target> c = new_shapes(30, 6);
  ASSERT_EQ(a.size(), 30u);
  std::set<std::string> sigs;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].signature, b[i].signature);
    EXPECT_EQ(a[i].family, b[i].family);
    sigs.insert(a[i].signature);
  }
  EXPECT_EQ(sigs.size(), a.size());
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differs = differs || a[i].signature != c[i].signature;
  }
  EXPECT_TRUE(differs);
  // The families cycle, so every seed gets the same mix.
  EXPECT_EQ(a[0].family, "eqn1");
  EXPECT_EQ(a[1].family, "nwchem");
  EXPECT_EQ(a[2].family, "lg3");
}

TEST(NewShapes, NeverCollideWithThePrewarmedSet) {
  std::set<std::string> prewarmed;
  for (auto [x, y] : prewarm_extents(144, 9)) {
    for (const auto& device : device_profiles()) {
      prewarmed.insert(bc::serve::signature(eqn1_problem(x, y), device));
    }
  }
  for (const Target& t : new_shapes(60, 9)) {
    EXPECT_FALSE(prewarmed.contains(t.signature)) << t.signature;
  }
}

TEST(PrewarmExtents, DeterministicAndDistinct) {
  const auto a = prewarm_extents(48, 4);
  EXPECT_EQ(a, prewarm_extents(48, 4));
  EXPECT_NE(a, prewarm_extents(48, 5));
  EXPECT_EQ(std::set(a.begin(), a.end()).size(), a.size());
}

TEST(PoissonSchedule, DeterministicIncreasingAndBounded) {
  const std::vector<double> a = poisson_schedule(1000, 2.0, 11);
  EXPECT_EQ(a, poisson_schedule(1000, 2.0, 11));
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  ASSERT_FALSE(a.empty());
  EXPECT_LT(a.back(), 2.0);
  // About rate x seconds arrivals.
  EXPECT_GT(a.size(), 1800u);
  EXPECT_LT(a.size(), 2200u);
}

TEST(Percentile, MatchesSupportPercentileSorted) {
  bc::Rng rng(2);
  std::vector<double> v;
  for (int i = 0; i < 37; ++i) v.push_back(rng.uniform(0, 100));
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (double p : {1.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_EQ(percentile(v, p), bc::support::percentile_sorted(sorted, p));
  }
  const Percentiles s = summarize(v);
  EXPECT_EQ(s.count, v.size());
  EXPECT_EQ(s.p50, bc::support::percentile_sorted(sorted, 50));
  EXPECT_EQ(s.p90, bc::support::percentile_sorted(sorted, 90));
  EXPECT_EQ(s.p99, bc::support::percentile_sorted(sorted, 99));
  EXPECT_EQ(summarize({}).count, 0u);
  EXPECT_EQ(median({3, 1, 2}), 2);
}

TEST(Spans, AccumulateTimeAndCalls) {
  Spans spans;
  const int v = spans.time("a", [] { return 4; });
  EXPECT_EQ(v, 4);
  spans.time("a", [] {});
  spans.add("count", 0, 5);
  EXPECT_EQ(spans.calls("a"), 2u);
  EXPECT_EQ(spans.calls("count"), 5u);
  EXPECT_GE(spans.seconds("a"), 0);
  EXPECT_EQ(spans.calls("missing"), 0u);
  EXPECT_EQ(spans.mean_us("missing"), 0);
}

TEST(MetricNames, CatalogueNamesAreValidAndUnique) {
  std::set<std::string> names;
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& m : *list) {
      EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
      EXPECT_TRUE(names.insert(m.name).second) << "duplicate " << m.name;
    }
  }
  EXPECT_TRUE(valid_metric_name("serve.hit_ratio"));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(Report, OneLineJsonWithExactDigits) {
  Report r;
  r.set("a", 1.25, "s");
  r.set("b", 3, "count");
  EXPECT_THROW(r.set("a", 0.1, "s"), std::exception);
  EXPECT_EQ(r.json(true, 10, 1),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, "
            "\"metrics\": {\"a\": {\"value\": 1.25, \"unit\": \"s\"}, "
            "\"b\": {\"value\": 3, \"unit\": \"count\"}}}");
}

}  // namespace
}  // namespace perfbench
