#include "engine/error_constrained.h"

#include <gtest/gtest.h>

#include <cmath>

#include "ra/parser.h"
#include "util/stats.h"
#include "workload/generators.h"

namespace tcq {
namespace {

TEST(ErrorConstrainedTest, MeetsRelativeTarget) {
  auto w = MakeSelectionWorkload(2000, 1);
  ASSERT_TRUE(w.ok());
  ErrorConstrainedOptions options;
  options.rel_halfwidth = 0.15;
  options.seed = 3;
  auto r = RunErrorConstrainedCount(w->query, w->catalog, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->met_target);
  // The achieved half-width honours the target.
  EXPECT_LE(r->ci.HalfWidth(), 0.15 * r->estimate + 1e-9);
  EXPECT_GT(r->blocks_sampled, 0);
  EXPECT_LT(r->blocks_sampled, 2000);
  EXPECT_GT(r->elapsed_seconds, 0.0);
}

TEST(ErrorConstrainedTest, TighterTargetCostsMore) {
  auto w = MakeSelectionWorkload(2000, 2);
  ASSERT_TRUE(w.ok());
  ErrorConstrainedOptions loose;
  loose.rel_halfwidth = 0.30;
  loose.seed = 5;
  ErrorConstrainedOptions tight = loose;
  tight.rel_halfwidth = 0.05;
  auto rl = RunErrorConstrainedCount(w->query, w->catalog, loose);
  auto rt = RunErrorConstrainedCount(w->query, w->catalog, tight);
  ASSERT_TRUE(rl.ok());
  ASSERT_TRUE(rt.ok());
  EXPECT_TRUE(rl->met_target);
  EXPECT_TRUE(rt->met_target);
  EXPECT_GT(rt->blocks_sampled, rl->blocks_sampled);
  EXPECT_GT(rt->elapsed_seconds, rl->elapsed_seconds);
}

TEST(ErrorConstrainedTest, AbsoluteTarget) {
  auto w = MakeSelectionWorkload(2000, 3);
  ASSERT_TRUE(w.ok());
  ErrorConstrainedOptions options;
  options.rel_halfwidth = 0.0;
  options.abs_halfwidth = 250.0;
  options.seed = 7;
  auto r = RunErrorConstrainedCount(w->query, w->catalog, options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->met_target);
  EXPECT_LE(r->ci.HalfWidth(), 250.0 + 1e-9);
}

TEST(ErrorConstrainedTest, ExhaustionReportsUnmetTarget) {
  // An impossible precision on a tiny intersection: the engine runs out
  // of blocks before meeting it, and says so.
  auto w = MakeIntersectionWorkload(10, 4);
  ASSERT_TRUE(w.ok());
  ErrorConstrainedOptions options;
  options.rel_halfwidth = 0.0001;
  options.seed = 9;
  auto r = RunErrorConstrainedCount(w->query, w->catalog, options);
  ASSERT_TRUE(r.ok());
  if (!r->met_target) {
    EXPECT_EQ(r->blocks_sampled, 4000);  // both relations fully drawn
  }
  // Full coverage makes the estimate exact either way.
  EXPECT_DOUBLE_EQ(r->estimate, 10.0);
}

TEST(ErrorConstrainedTest, RequiresATarget) {
  auto w = MakeSelectionWorkload(2000, 5);
  ASSERT_TRUE(w.ok());
  ErrorConstrainedOptions options;
  options.rel_halfwidth = 0.0;
  options.abs_halfwidth = 0.0;
  EXPECT_FALSE(
      RunErrorConstrainedCount(w->query, w->catalog, options).ok());
}

TEST(ErrorConstrainedTest, ConstantQueryImmediate) {
  auto w = MakeSelectionWorkload(2000, 6);
  ASSERT_TRUE(w.ok());
  ErrorConstrainedOptions options;
  options.rel_halfwidth = 0.05;
  auto r = RunErrorConstrainedCount(Scan("r1"), w->catalog, options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->met_target);
  EXPECT_DOUBLE_EQ(r->estimate, 10000.0);
  EXPECT_EQ(r->blocks_sampled, 0);
}

TEST(ErrorConstrainedTest, CoverageOfReportedIntervals) {
  // Across seeds, the exact count should land inside the reported CI at
  // roughly the stated confidence (allowing wide slack for 40 runs).
  auto w = MakeSelectionWorkload(2000, 7);
  ASSERT_TRUE(w.ok());
  int covered = 0;
  const int reps = 40;
  for (int rep = 0; rep < reps; ++rep) {
    ErrorConstrainedOptions options;
    options.rel_halfwidth = 0.15;
    options.seed = 100 + static_cast<uint64_t>(rep);
    auto r = RunErrorConstrainedCount(w->query, w->catalog, options);
    ASSERT_TRUE(r.ok());
    if (r->ci.lo <= 2000.0 && 2000.0 <= r->ci.hi) ++covered;
  }
  EXPECT_GE(covered, 30);  // ≥75% at a nominal 95%
}

TEST(ErrorConstrainedTest, ProjectionCountsDistinctGroups) {
  // COUNT(PROJECT[key](r1)) counts distinct keys, not tuples: the loop
  // must use the same Goodman-based term estimate as the time-constrained
  // engine. 20,000 tuples over a key domain of 500 hold exactly 500
  // distinct keys.
  Catalog catalog;
  ASSERT_TRUE(
      catalog.Register(MakeUniformRelation("r1", 20000, 500, 11)).ok());
  auto query = ParseQuery("PROJECT[key](r1)");
  ASSERT_TRUE(query.ok());
  ErrorConstrainedOptions options;
  options.seed = 5;
  auto r = RunErrorConstrainedCount(*query, catalog, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_LE(r->ci.lo, 500.0);
  EXPECT_GE(r->ci.hi, 500.0);
  EXPECT_NEAR(r->estimate, 500.0, 50.0);
}

TEST(ErrorConstrainedTest, DeterministicPerSeed) {
  auto w = MakeSelectionWorkload(2000, 8);
  ASSERT_TRUE(w.ok());
  ErrorConstrainedOptions options;
  options.rel_halfwidth = 0.2;
  options.seed = 77;
  auto a = RunErrorConstrainedCount(w->query, w->catalog, options);
  auto b = RunErrorConstrainedCount(w->query, w->catalog, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->estimate, b->estimate);
  EXPECT_EQ(a->blocks_sampled, b->blocks_sampled);
  EXPECT_DOUBLE_EQ(a->elapsed_seconds, b->elapsed_seconds);
}

}  // namespace
}  // namespace tcq
