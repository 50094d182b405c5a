// Session::Explain / QueryBuilder::Explain — the planner's stage-0 view:
// runs the strategy and Sample-Size-Determine over the priors without
// drawing a sample, and agrees with a real run wherever the real run has
// not yet learned anything (stage 1 uses exactly the same priors).

#include <gtest/gtest.h>

#include <string>

#include "api/tcq.h"
#include "engine/executor.h"
#include "workload/generators.h"

namespace tcq {
namespace {

Session MakeSession(int64_t tuples = 2000, uint64_t seed = 7) {
  auto workload = MakeIntersectionWorkload(tuples, seed);
  EXPECT_TRUE(workload.ok());
  return Session(std::move(workload->catalog));
}

TEST(ExplainTest, PredictsStagesWithoutRunning) {
  Session session = MakeSession();
  auto plan = session.Explain("r1 INTERSECT r2");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan->strategy.empty());
  EXPECT_EQ(plan->quota_s, 5.0);
  EXPECT_EQ(plan->num_sampled_terms, 1);
  EXPECT_GT(plan->total_blocks, 0);
  ASSERT_GE(plan->stages.size(), 1u);
  const StagePrediction& first = plan->stages[0];
  EXPECT_EQ(first.index, 0);  // stage indices are 0-based, as in a run
  EXPECT_EQ(first.time_left_before, 5.0);
  EXPECT_GT(first.planned_fraction, 0.0);
  EXPECT_GT(first.blocks_planned, 0);
  // Explaining again is free of side effects: identical output.
  auto again = session.Explain("r1 INTERSECT r2");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(plan->ToString(), again->ToString());
}

void ExpectFirstStagesMatch(QueryBuilder explain, QueryBuilder run) {
  auto plan = explain.Explain();
  auto result = run.Run();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GE(plan->stages.size(), 1u);
  ASSERT_GE(result->stages().size(), 1u);
  const StagePrediction& predicted = plan->stages[0];
  const StageReport& actual = result->stages()[0];
  EXPECT_EQ(predicted.time_left_before, actual.time_left_before);
  EXPECT_EQ(predicted.planned_fraction, actual.planned_fraction);
  EXPECT_EQ(predicted.d_beta_used, actual.d_beta_used);
  EXPECT_EQ(predicted.predicted_seconds, actual.predicted_seconds);
  EXPECT_EQ(predicted.blocks_planned, actual.blocks_drawn);
}

TEST(ExplainTest, FirstStageMatchesARealRunsFirstStage) {
  // Stage 1 of a real run plans from the same priors EXPLAIN uses, so the
  // first predicted stage must coincide with the first executed one —
  // field for field, also when the planner prices fault overhead.
  Session session = MakeSession();
  ExpectFirstStagesMatch(
      session.Query("r1 INTERSECT r2").WithQuota(2.0),
      session.Query("r1 INTERSECT r2").WithQuota(2.0).WithSeed(3));

  auto select = MakeSelectionWorkload(2000, 307);
  ASSERT_TRUE(select.ok());
  Session select_session(std::move(select->catalog));
  for (double transient : {0.01, 0.17, 0.45}) {
    for (double quota : {0.7, 2.0, 17.0}) {
      SCOPED_TRACE("transient " + std::to_string(transient) + ", quota " +
                   std::to_string(quota));
      FaultOptions faults;
      faults.enabled = true;
      faults.transient_rate = transient;
      faults.permanent_rate = 0.01;
      faults.straggler_rate = 0.02;
      faults.fault_seed = 7;
      ExpectFirstStagesMatch(
          select_session.Query(select->query).WithQuota(quota).WithFaults(
              faults),
          select_session.Query(select->query)
              .WithQuota(quota)
              .WithFaults(faults)
              .WithSeed(3));
      ExpectFirstStagesMatch(
          session.Query("r1 INTERSECT r2").WithQuota(quota).WithFaults(faults),
          session.Query("r1 INTERSECT r2")
              .WithQuota(quota)
              .WithFaults(faults)
              .WithSeed(3));
    }
  }
}

TEST(ExplainTest, StageCountTracksTheActualRun) {
  // EXPLAIN does not simulate what the run learns from its samples, but
  // its stage count must stay in the same ballpark as a real run's: both
  // are driven by the same quota and block-exhaustion accounting.
  Session session = MakeSession();
  auto plan = session.Query("r1 INTERSECT r2").WithQuota(2.0).Explain();
  auto run = session.Query("r1 INTERSECT r2").WithQuota(2.0).WithSeed(3).Run();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GE(static_cast<int>(plan->stages.size()), 1);
  EXPECT_GE(run->stages_run, 1);
}

TEST(ExplainTest, ToStringIsHumanReadable) {
  Session session = MakeSession();
  auto plan = session.Explain("r1 INTERSECT r2");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string text = plan->ToString();
  EXPECT_NE(text.find("strategy"), std::string::npos);
  EXPECT_NE(text.find("stage"), std::string::npos);
  EXPECT_NE(text.find("quota"), std::string::npos);
}

TEST(ExplainTest, ConstantQueryNeedsNoStages) {
  // COUNT(r1) is answered from the catalog; the plan has no sampled terms.
  Session session = MakeSession();
  auto plan = session.Explain("r1");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->num_sampled_terms, 0);
  EXPECT_EQ(plan->num_constant_terms, 1);
  EXPECT_EQ(plan->stages.size(), 0u);
}

TEST(ExplainTest, ParseErrorsCarryLineAndColumn) {
  Session session = MakeSession();
  auto plan = session.Explain("SELECT[key <\n  !2000](r1)");
  ASSERT_FALSE(plan.ok());
  const std::string message = plan.status().message();
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("column"), std::string::npos) << message;
}

TEST(ExplainTest, RejectsAggregatesTheRunRejects) {
  // EXPLAIN prepares the query exactly like a run, so an aggregate the
  // run cannot evaluate fails at planning time with the same status.
  Session session = MakeSession();
  auto plan = session.Query("PROJECT[key](r1)").Sum("key").Explain();
  auto run = session.Query("PROJECT[key](r1)").Sum("key").Run();
  ASSERT_FALSE(plan.ok());
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(plan.status().ToString(), run.status().ToString());
}

TEST(ExplainTest, InvalidOptionsAreRejected) {
  Session session = MakeSession();
  auto plan = session.Query("r1 INTERSECT r2").WithQuota(-1.0).Explain();
  EXPECT_FALSE(plan.ok());
}

}  // namespace
}  // namespace tcq
