// Golden pins of the simulated-mode stage schedules: for a grid of
// queries and options, every executed stage's plan and estimate, the
// final answer, EXPLAIN's predicted stages, and the error-constrained
// loop's answer, as exact hex-float literals. Run, Explain and the
// error-constrained loop share one query-preparation step and one stage
// planner; these values were captured before that sharing existed, so
// any drift the sharing introduces shows up here bit for bit.
//
// Explain's fault-injected cells are not pinned: under faults EXPLAIN's
// first stage is checked against a real run's first stage instead
// (ExplainTest.FirstStageMatchesARealRunsFirstStage).
//
// To print the observed tables in literal form (e.g. after a deliberate
// semantic change), run with TCQ_PRINT_GOLDEN=1.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "cache/warm_start.h"
#include "engine/error_constrained.h"
#include "engine/executor.h"
#include "ra/parser.h"
#include "workload/generators.h"

namespace tcq {
namespace {

struct StageRow {
  double fraction;
  double d_beta;
  double predicted_s;
  int64_t blocks;
  double estimate;
  double variance;
};

struct RunGolden {
  std::vector<StageRow> stages;
  double estimate;
  double variance;
  double lo;
  double hi;
};

struct ExplainRow {
  double time_left;
  double fraction;
  double d_beta;
  double predicted_s;
  int64_t blocks;
};

struct ErrorGolden {
  double estimate;
  double variance;
  double elapsed_s;
  int64_t blocks;
  int stages;
};

bool PrintMode() { return std::getenv("TCQ_PRINT_GOLDEN") != nullptr; }

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string FormatRun(const std::string& cell, const QueryResult& r) {
  std::string out = "  // " + cell + "\n  {{";
  for (const StageReport& s : r.stages()) {
    out += "\n    {" + Hex(s.planned_fraction) + ", " + Hex(s.d_beta_used) +
           ", " + Hex(s.predicted_seconds) + ", " +
           std::to_string(s.blocks_drawn) + ", " + Hex(s.estimate_after) +
           ", " + Hex(s.variance_after) + "},";
  }
  out += "},\n   " + Hex(r.estimate) + ", " + Hex(r.variance) + ", " +
         Hex(r.ci.lo) + ", " + Hex(r.ci.hi) + "},\n";
  return out;
}

std::string FormatExplain(const std::string& cell, const ExplainResult& e) {
  std::string out = "  // " + cell + "\n  {";
  for (const StagePrediction& s : e.stages) {
    out += "\n    {" + Hex(s.time_left_before) + ", " +
           Hex(s.planned_fraction) + ", " + Hex(s.d_beta_used) + ", " +
           Hex(s.predicted_seconds) + ", " +
           std::to_string(s.blocks_planned) + "},";
  }
  out += "},\n";
  return out;
}

void ExpectRun(const std::string& cell, const QueryResult& r,
               const RunGolden& g) {
  SCOPED_TRACE(cell);
  ASSERT_EQ(r.stages().size(), g.stages.size());
  for (size_t i = 0; i < g.stages.size(); ++i) {
    SCOPED_TRACE("stage " + std::to_string(i));
    const StageReport& s = r.stages()[i];
    EXPECT_EQ(s.planned_fraction, g.stages[i].fraction);
    EXPECT_EQ(s.d_beta_used, g.stages[i].d_beta);
    EXPECT_EQ(s.predicted_seconds, g.stages[i].predicted_s);
    EXPECT_EQ(s.blocks_drawn, g.stages[i].blocks);
    EXPECT_EQ(s.estimate_after, g.stages[i].estimate);
    EXPECT_EQ(s.variance_after, g.stages[i].variance);
  }
  EXPECT_EQ(r.estimate, g.estimate);
  EXPECT_EQ(r.variance, g.variance);
  EXPECT_EQ(r.ci.lo, g.lo);
  EXPECT_EQ(r.ci.hi, g.hi);
}

void ExpectExplain(const std::string& cell, const ExplainResult& e,
                   const std::vector<ExplainRow>& g) {
  SCOPED_TRACE(cell);
  ASSERT_EQ(e.stages.size(), g.size());
  for (size_t i = 0; i < g.size(); ++i) {
    SCOPED_TRACE("stage " + std::to_string(i));
    const StagePrediction& s = e.stages[i];
    EXPECT_EQ(s.index, static_cast<int>(i));
    EXPECT_EQ(s.time_left_before, g[i].time_left);
    EXPECT_EQ(s.planned_fraction, g[i].fraction);
    EXPECT_EQ(s.d_beta_used, g[i].d_beta);
    EXPECT_EQ(s.predicted_seconds, g[i].predicted_s);
    EXPECT_EQ(s.blocks_planned, g[i].blocks);
  }
}

// ---- The grid. ----

struct Query {
  Catalog catalog;
  ExprPtr expr;
};

Query FromWorkload(Result<Workload> w) {
  EXPECT_TRUE(w.ok()) << w.status().ToString();
  return {std::move(w->catalog), w->query};
}

Query Parsed(Catalog catalog, const char* text) {
  Result<ExprPtr> expr = ParseQuery(text);
  EXPECT_TRUE(expr.ok()) << expr.status().ToString();
  return {std::move(catalog), *expr};
}

Query Select() { return FromWorkload(MakeSelectionWorkload(2000, 301)); }
Query ClusteredSelect() {
  return FromWorkload(
      MakeSelectionWorkload(2000, 302, kPaperTuples, kPaperTupleBytes, 0.5));
}
Query Intersect() { return FromWorkload(MakeIntersectionWorkload(5000, 303)); }
Query Join() { return FromWorkload(MakeJoinWorkload(70000, 304)); }
Query Union() {
  auto w = MakeIntersectionWorkload(5000, 305);
  EXPECT_TRUE(w.ok());
  return Parsed(std::move(w->catalog), "r1 UNION r2");
}
Query Project() {
  Catalog catalog;
  EXPECT_TRUE(catalog.Register(MakeUniformRelation("r1", 20000, 500, 11)).ok());
  return Parsed(std::move(catalog), "PROJECT[key](r1)");
}

ExecutorOptions Options(double quota_s, double d_beta = 12.0) {
  ExecutorOptions options;
  options.quota_s = quota_s;
  options.strategy.one_at_a_time.d_beta = d_beta;
  options.seed = 3;
  return options;
}

ExecutorOptions JoinOptions(double quota_s) {
  ExecutorOptions options = Options(quota_s, 48.0);
  options.selectivity.initial_join = 0.1;
  return options;
}

FaultOptions Faults() {
  FaultOptions faults;
  faults.enabled = true;
  faults.transient_rate = 0.17;
  faults.permanent_rate = 0.01;
  faults.straggler_rate = 0.02;
  faults.fault_seed = 7;
  return faults;
}

ExecutorOptions WithStrategy(ExecutorOptions options,
                             StrategyConfig::Kind kind) {
  options.strategy.kind = kind;
  return options;
}

QueryResult MustRun(const Query& q, const ExecutorOptions& options,
                    const AggregateSpec& aggregate = AggregateSpec::Count()) {
  Result<QueryResult> r =
      RunTimeConstrainedAggregate(q.expr, aggregate, q.catalog, options);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : QueryResult{};
}

ExplainResult MustExplain(
    const Query& q, const ExecutorOptions& options,
    const AggregateSpec& aggregate = AggregateSpec::Count()) {
  Result<ExplainResult> e =
      ExplainTimeConstrainedAggregate(q.expr, aggregate, q.catalog, options);
  EXPECT_TRUE(e.ok()) << e.status().ToString();
  return e.ok() ? *e : ExplainResult{};
}

// The second of two runs in one warm session (a fresh cache per cell).
QueryResult WarmSecondRun(const Query& q, ExecutorOptions options) {
  WarmStartCache cache;
  options.warm_cache = &cache;
  (void)MustRun(q, options);
  options.seed += 1;
  return MustRun(q, options);
}

struct RunCell {
  const char* name;
  std::function<QueryResult()> run;
};

struct ExplainCell {
  const char* name;
  std::function<ExplainResult()> explain;
};

std::vector<RunCell> RunCells() {
  return {
      {"select", [] { return MustRun(Select(), Options(5.0)); }},
      {"select_clustered",
       [] { return MustRun(ClusteredSelect(), Options(5.0)); }},
      {"intersect_one_at_a_time",
       [] { return MustRun(Intersect(), Options(10.0)); }},
      {"intersect_single_interval",
       [] {
         return MustRun(Intersect(),
                        WithStrategy(Options(10.0),
                                     StrategyConfig::Kind::kSingleInterval));
       }},
      {"intersect_heuristic",
       [] {
         return MustRun(Intersect(),
                        WithStrategy(Options(10.0),
                                     StrategyConfig::Kind::kHeuristic));
       }},
      {"join", [] { return MustRun(Join(), JoinOptions(8.0)); }},
      {"union", [] { return MustRun(Union(), Options(10.0)); }},
      {"project", [] { return MustRun(Project(), Options(4.0)); }},
      {"sum",
       [] {
         return MustRun(Select(), Options(5.0), AggregateSpec::Sum("key"));
       }},
      {"avg",
       [] {
         return MustRun(Select(), Options(5.0), AggregateSpec::Avg("key"));
       }},
      {"select_faults",
       [] {
         ExecutorOptions o = Options(2.0);
         o.faults = Faults();
         return MustRun(Select(), o);
       }},
      {"intersect_faults",
       [] {
         ExecutorOptions o = Options(10.0);
         o.faults = Faults();
         return MustRun(Intersect(), o);
       }},
      {"select_warm", [] { return WarmSecondRun(Select(), Options(5.0)); }},
      {"intersect_warm",
       [] { return WarmSecondRun(Intersect(), Options(10.0)); }},
      {"select_predictor",
       [] {
         ExecutorOptions o = Options(5.0);
         o.sel_predictor.enabled = true;
         return MustRun(Select(), o);
       }},
      {"join_predictor",
       [] {
         ExecutorOptions o = JoinOptions(8.0);
         o.sel_predictor.enabled = true;
         return MustRun(Join(), o);
       }},
      {"intersect_predictor_warm",
       [] {
         ExecutorOptions o = Options(10.0);
         o.sel_predictor.enabled = true;
         return WarmSecondRun(Intersect(), o);
       }},
      {"intersect_final_partial",
       [] {
         ExecutorOptions o = Options(10.0);
         o.final_partial_stages = true;
         return MustRun(Intersect(), o);
       }},
      {"join_final_partial",
       [] {
         ExecutorOptions o = JoinOptions(8.0);
         o.final_partial_stages = true;
         return MustRun(Join(), o);
       }},
      {"intersect_partial",
       [] {
         ExecutorOptions o = Options(10.0);
         o.fulfillment = Fulfillment::kPartial;
         return MustRun(Intersect(), o);
       }},
      {"intersect_threads4",
       [] {
         ExecutorOptions o = Options(10.0);
         o.threads = 4;
         return MustRun(Intersect(), o);
       }},
      {"join_faults_threads4",
       [] {
         ExecutorOptions o = JoinOptions(8.0);
         o.faults = Faults();
         o.threads = 4;
         return MustRun(Join(), o);
       }},
      {"select_soft_deadline",
       [] {
         ExecutorOptions o = Options(5.0, 0.0);
         o.deadline_mode = DeadlineMode::kSoft;
         return MustRun(Select(), o);
       }},
      {"select_precision_stop",
       [] {
         ExecutorOptions o = Options(20.0);
         o.precision.rel_halfwidth = 0.2;
         return MustRun(Select(), o);
       }},
  };
}

std::vector<ExplainCell> ExplainCells() {
  return {
      {"select", [] { return MustExplain(Select(), Options(5.0)); }},
      {"select_clustered",
       [] { return MustExplain(ClusteredSelect(), Options(5.0)); }},
      {"intersect_one_at_a_time",
       [] { return MustExplain(Intersect(), Options(10.0)); }},
      {"intersect_single_interval",
       [] {
         return MustExplain(Intersect(),
                            WithStrategy(Options(10.0),
                                         StrategyConfig::Kind::kSingleInterval));
       }},
      {"intersect_heuristic",
       [] {
         return MustExplain(Intersect(),
                            WithStrategy(Options(10.0),
                                         StrategyConfig::Kind::kHeuristic));
       }},
      {"join", [] { return MustExplain(Join(), JoinOptions(8.0)); }},
      {"join_heuristic",
       [] {
         return MustExplain(Join(), WithStrategy(JoinOptions(8.0),
                                                 StrategyConfig::Kind::kHeuristic));
       }},
      {"union", [] { return MustExplain(Union(), Options(10.0)); }},
      {"project", [] { return MustExplain(Project(), Options(4.0)); }},
      {"sum",
       [] {
         return MustExplain(Select(), Options(5.0), AggregateSpec::Sum("key"));
       }},
      {"select_predictor",
       [] {
         ExecutorOptions o = Options(5.0);
         o.sel_predictor.enabled = true;
         return MustExplain(Select(), o);
       }},
      {"intersect_predictor_after_warm_run",
       [] {
         // Explain peeks the session predictor and the cached priors that
         // a previous warm run left behind.
         Query q = Intersect();
         WarmStartCache cache;
         ExecutorOptions o = Options(10.0);
         o.sel_predictor.enabled = true;
         o.warm_cache = &cache;
         (void)MustRun(q, o);
         return MustExplain(q, o);
       }},
      {"intersect_final_partial",
       [] {
         ExecutorOptions o = Options(10.0);
         o.final_partial_stages = true;
         return MustExplain(Intersect(), o);
       }},
      {"intersect_partial",
       [] {
         ExecutorOptions o = Options(10.0);
         o.fulfillment = Fulfillment::kPartial;
         return MustExplain(Intersect(), o);
       }},
  };
}

// ---- Pinned values (captured before Run, Explain and the
// error-constrained loop shared a planner). Rows: fraction, d_beta,
// predicted seconds, blocks, estimate, variance (Run); time left,
// fraction, d_beta, predicted seconds, blocks (Explain). ----

// clang-format off

const std::vector<RunGolden>& RunGoldens() {
  static const std::vector<RunGolden> kGolden = {
    // select
    {{
      {0x1.08428f5c28f5cp-7, 0x1.8p+3, 0x1.39ba5e353f7cfp+2, 16, 0x1.194p+11, 0x1.a65b4ff4f08fdp+17},
      {0x1.ec4dd2f1a9fbdp-7, 0x1.8p+3, 0x1.b4f6146fe73a8p+1, 30, 0x1.f4p+10, 0x1.098403bc59f29p+16},
      {0x1.1c45a1cac0831p-9, 0x1.8p+3, 0x1.50befb5675892p-1, 4, 0x1.eap+10, 0x1.e02fd0126f106p+15},},
     0x1.eap+10, 0x1.e02fd0126f106p+15, 0x1.708597c71fab8p+10, 0x1.31bd341c702a4p+11},
    // select_clustered
    {{
      {0x1.08428f5c28f5cp-7, 0x1.8p+3, 0x1.39ba5e353f7cfp+2, 16, 0x1.676p+11, 0x1.f027d39aebccbp+17},
      {0x1.cc9374bc6a7eep-7, 0x1.8p+3, 0x1.a934013687b58p+1, 28, 0x1.bb2e8ba2e8ba3p+10, 0x1.fa944e4700d12p+15},
      {0x1.7a5604189374bp-9, 0x1.8p+3, 0x1.d7a0f4b69377fp-1, 6, 0x1.d6p+10, 0x1.d12b969eaf468p+15},
      {0x1.82e147ae147aep-11, 0x1.8p+3, 0x1.2a3638f8644f1p-2, 1, 0x1.d696969696969p+10, 0x1.c840eedf5990ep+15},},
     0x1.d696969696969p+10, 0x1.c840eedf5990ep+15, 0x1.602d1412f2c4cp+10, 0x1.26800c8d1d343p+11},
    // intersect_one_at_a_time
    {{
      {0x1.283e76c8b4394p-7, 0x1.8p+3, 0x1.2fca3d7a8a4cap+3, 36, 0x0p+0, 0x1.5373e31aad937p+28},
      {0x1.1dccccccccccdp-7, 0x1.8p+3, 0x1.5d5e54ab556fp+2, 34, 0x1.9829cbc14e5e1p+11, 0x1.454665a6faef8p+23},
      {0x1.bd4fdf3b645a2p-10, 0x1.8p+3, 0x1.32f41a7dfaecdp+0, 6, 0x1.5a42a8c68f3f2p+12, 0x1.d42655b30fb84p+23},},
     0x1.9829cbc14e5e1p+11, 0x1.454665a6faef8p+23, -0x1.87afbcb0a031bp+11, 0x1.2e00d50ccf3b7p+13},
    // intersect_single_interval
    {{
      {0x1.283e76c8b4394p-7, 0x0p+0, 0x1.313fd491ff557p+3, 36, 0x0p+0, 0x1.5373e31aad937p+28},
      {0x1.5d3126e978d5p-7, 0x0p+0, 0x1.655c2c8c60937p+2, 42, 0x1.48bb293c6c645p+11, 0x1.a5f43420466d9p+22},},
     0x1.48bb293c6c645p+11, 0x1.a5f43420466d9p+22, -0x1.3b7064d33792bp+11, 0x1.e6735ba6082dap+12},
    // intersect_heuristic
    {{
      {0x1.30a1cac083126p-8, 0x0p+0, 0x1.2dd6846f7526fp+2, 18, 0x0p+0, 0x1.53138990b5e5bp+32},
      {0x1.ce9ba5e353f7cp-8, 0x0p+0, 0x1.f87e98013e137p+1, 28, 0x0p+0, 0x1.fd6cc5427af91p+26},
      {0x1.0de353f7ced92p-8, 0x0p+0, 0x1.15c2b3daaec33p+1, 16, 0x1.04254b635cf84p+13, 0x1.0845e281ab7c5p+25},
      {0x1.1df3b645a1cadp-9, 0x0p+0, 0x1.3223b429fb0c8p+0, 8, 0x1.321f58d0fac68p+13, 0x1.e7e170314ce49p+24},
      {0x1.3f9db22d0e56p-10, 0x0p+0, 0x1.72db56acce5dp-1, 4, 0x1.11ec2da0a190fp+13, 0x1.86a1c2cc6f1e2p+24},},
     0x1.11ec2da0a190fp+13, 0x1.86a1c2cc6f1e2p+24, -0x1.1fd2469866a1p+10, 0x1.23e9520a27fbp+14},
    // join
    {{
      {0x1.e153f7ced9168p-9, 0x1.8p+5, 0x1.dc7031ace13fep+2, 14, 0x0p+0, 0x1.ced5add0ba34fp+33},
      {0x1.a020c49ba5e36p-9, 0x1.8p+5, 0x1.7243fbcc98f4ep+2, 12, 0x1.155deacafb74ap+16, 0x1.90635678e0295p+30},
      {0x1.de9fbe76c8b44p-9, 0x1.8p+5, 0x1.1cc6522d87c86p+2, 14, 0x1.adbp+16, 0x1.05f21d0ff27c1p+30},
      {0x1.84cccccccccccp-11, 0x1.8p+5, 0x1.ca7e0b2b3aa5fp+0, 2, 0x1.85bd3e1d0662bp+16, 0x1.af0beac7e1b6p+29},
      {0x1.84bc6a7ef9db2p-11, 0x1.8p+5, 0x1.c5e3a15f6f95ep+0, 2, 0x1.631d1745d1746p+16, 0x1.65e2c5440af07p+29},},
     0x1.631d1745d1746p+16, 0x1.65e2c5440af07p+29, 0x1.22bbd2fd786b1p+15, 0x1.1a6e22867359ap+17},
    // union
    {{
      {0x1.283e76c8b4394p-7, 0x1.8p+3, 0x1.2fca3d7a8a4cap+3, 36, 0x1.388p+14, 0x1.5373e31aad937p+28},
      {0x1.1dccccccccccdp-7, 0x1.8p+3, 0x1.5e176325b5d68p+2, 34, 0x1.057ac687d6344p+14, 0x1.454665a6faef8p+23},
      {0x1.bd4fdf3b645a2p-10, 0x1.8p+3, 0x1.3302a664e23c2p+0, 6, 0x1.6d4e016b1490bp+13, 0x1.5f1a42d4542b9p+24},},
     0x1.057ac687d6344p+14, 0x1.454665a6faef8p+23, 0x1.42ff2af330c49p+13, 0x1.6975f79614064p+14},
    // project
    {{
      {0x1.30b3333333334p-9, 0x1.8p+3, 0x1.e1576c2bb182cp+1, 9, 0x1.e44p+9, 0x1.78662dbdc8762p+17},
      {0x1.ff24dd2f1a9fbp-8, 0x1.8p+3, 0x1.808dd54775e56p+1, 31, 0x1.2c190b21642c8p+9, 0x1.03e35399d9d42p+18},},
     0x1.2c190b21642c8p+9, 0x1.03e35399d9d42p+18, -0x1.9ae5c4000b82ap+8, 0x1.92d27c21670d2p+10},
    // sum
    {{
      {0x1.08428f5c28f5cp-7, 0x1.8p+3, 0x1.39ba5e353f7cfp+2, 16, 0x1.189038p+21, 0x1.1f8d8dfe11p+38},
      {0x1.ec4dd2f1a9fbdp-7, 0x1.8p+3, 0x1.b4f6146fe73a8p+1, 30, 0x1.cf5621642c859p+20, 0x1.442ecf54f8575p+36},
      {0x1.1c45a1cac0831p-9, 0x1.8p+3, 0x1.50befb5675892p-1, 4, 0x1.c4e18p+20, 0x1.2a1fff4fcp+36},},
     0x1.c4e18p+20, 0x1.2a1fff4fcp+36, 0x1.3d83fd44e77b2p+20, 0x1.261f815d8c427p+21},
    // avg
    {{
      {0x1.08428f5c28f5cp-7, 0x1.8p+3, 0x1.39ba5e353f7cfp+2, 16, 0x1.fecp+9, 0x1.9c590cd54c4bap+16},
      {0x1.ec4dd2f1a9fbdp-7, 0x1.8p+3, 0x1.b4f6146fe73a8p+1, 30, 0x1.da74de9bd37a7p+9, 0x1.21814f19613f2p+15},
      {0x1.1c45a1cac0831p-9, 0x1.8p+3, 0x1.50befb5675892p-1, 4, 0x1.d936db6db6db7p+9, 0x1.12b6029fbf53cp+15},},
     0x1.d936db6db6db7p+9, 0x1.12b6029fbf53cp+15, 0x1.217333d785d0cp+9, 0x1.487d4181f3f31p+10},
    // select_faults
    {{
      {0x1.81604189374bcp-9, 0x1.8p+3, 0x1.fee0f0704004p+0, 6, 0x1.4d55555555555p+11, 0x1.3d5d295b8ccdcp+19},
      {0x1.c03126e978d5p-9, 0x1.8p+3, 0x1.3da8cd60b297bp+0, 7, 0x1.33b13b13b13b1p+11, 0x1.15013c6ed99dfp+18},},
     0x1.33b13b13b13b1p+11, 0x1.15013c6ed99dfp+18, 0x1.626b804388729p+10, 0x1.b62cb6059e3cep+11},
    // intersect_faults
    {{
      {0x1.184083126e978p-7, 0x1.8p+3, 0x1.37dcf5b316b3fp+3, 34, 0x0p+0, 0x1.f035d2fd2b956p+28},
      {0x1.bd0624dd2f1aap-8, 0x1.8p+3, 0x1.544ea505b1e61p+2, 28, 0x1.0cd1344d1344dp+12, 0x1.1ed316ead6fb6p+24},
      {0x1.010624dd2f1aap-10, 0x1.8p+3, 0x1.f150270d87edep-1, 4, 0x1.d97c1f07c1f08p+11, 0x1.bc781db7dcde8p+23},},
     0x1.d97c1f07c1f08p+11, 0x1.bc781db7dcde8p+23, -0x1.cd7fa254ca40ep+11, 0x1.601df81913888p+13},
    // select_warm
    {{
      {0x1.3ff020c49ba5dp-5, 0x1.8p+3, 0x1.3ba73506ccbb8p+2, 78, 0x1.d3f2df2df2df3p+10, 0x1.24ead9db2bfe6p+15},
      {0x1.74e5604189374p-9, 0x1.8p+3, 0x1.d124a9b92dbc5p-1, 6, 0x1.e224924924925p+10, 0x1.156b3377b7425p+15},},
     0x1.e224924924925p+10, 0x1.156b3377b7425p+15, 0x1.85cf1a69686aap+10, 0x1.1f3d0514705dp+11},
    // intersect_warm
    {{
      {0x1.a3fc6a7ef9db1p-6, 0x1.8p+3, 0x1.3bc7938f83098p+3, 102, 0x1.8077aee61d549p+12, 0x1.207f086dbc692p+23},
      {0x1.f5e353f7ced92p-9, 0x1.8p+3, 0x1.4a1548586dc46p+1, 16, 0x1.1f4615ea60edbp+12, 0x1.42129ccc0244ap+22},
      {0x1.824dd2f1a9fbep-11, 0x1.8p+3, 0x1.5ca1ae18c9878p-1, 2, 0x1.15c71c71c71c7p+12, 0x1.2d1f9fb6e8e36p+22},},
     0x1.15c71c71c71c7p+12, 0x1.2d1f9fb6e8e36p+22, 0x1.6c1aac96a64cp+6, 0x1.12eee71899cfep+13},
    // select_predictor
    {{
      {0x1.08428f5c28f5cp-7, 0x1.8p+3, 0x1.39ba5e353f7cfp+2, 16, 0x1.194p+11, 0x1.a65b4ff4f08fdp+17},
      {0x1.acd916872b02p-7, 0x1.8p+3, 0x1.b5d8c26d92ca2p+1, 26, 0x1.ffe79e79e79e8p+10, 0x1.288f783f2c6aep+16},
      {0x1.b947ae147ae15p-9, 0x1.8p+3, 0x1.0498a893756e6p+0, 7, 0x1.fe343eb1a1f59p+10, 0x1.f9521a1953bap+15},},
     0x1.fe343eb1a1f59p+10, 0x1.f9521a1953bap+15, 0x1.8196575aa5ba4p+10, 0x1.3d6913044f187p+11},
    // join_predictor
    {{
      {0x1.42f9db22d0e56p-10, 0x1.8p+5, 0x1.091add3e35e0fp+2, 4, 0x0p+0, 0x1.07f6628ed2d89p+41},
      {0x1.85f3b645a1cacp-11, 0x1.8p+5, 0x1.0fe7fbeaeb9fep+2, 2, 0x1.b2071c71c71c7p+18, 0x1.6e4b39323772ep+37},
      {0x1.2116872b020c4p-9, 0x1.8p+5, 0x1.903b5bd457643p+2, 8, 0x1.3ee0a72f05398p+16, 0x1.8cdea47c246d1p+32},
      {0x1.20a3d70a3d70bp-9, 0x1.8p+5, 0x1.6036aaab2c0a4p+2, 8, 0x1.0243b3d5af9a7p+17, 0x1.043251c06496dp+32},
      {0x1.c126e978d4fep-10, 0x1.8p+5, 0x1.1bcf3c10e2558p+2, 6, 0x1.3ee0a72f05398p+17, 0x1.8c87e8065b69ep+31},
      {0x1.41a1cac083126p-10, 0x1.8p+5, 0x1.89d8b5fe5a803p+1, 4, 0x1.12a88p+17, 0x1.058ca4e5d175fp+31},
      {0x1.4170a3d70a3d8p-10, 0x1.8p+5, 0x1.4e83f83dbbbf6p+1, 4, 0x1.093d3c0ca4588p+17, 0x1.8f26b1bd085aep+30},
      {0x1.84ed916872b02p-11, 0x1.8p+5, 0x1.9d76ce63c6743p+0, 2, 0x1.dc1ba81104f6cp+16, 0x1.4190c79c952b2p+30},
      {0x1.84dd2f1a9fbe8p-11, 0x1.8p+5, 0x1.175c1e896230cp+0, 2, 0x1.adbp+16, 0x1.05f21d0ff27c1p+30},
      {0x1.84cccccccccccp-11, 0x1.8p+5, 0x1.92ac333b76ea6p-1, 2, 0x1.a92b899406f75p+16, 0x1.d6309dc2f8b58p+29},},
     0x1.a92b899406f75p+16, 0x1.d6309dc2f8b58p+29, 0x1.71831cf9e8843p+15, 0x1.4ccac2558cd64p+17},
    // intersect_predictor_warm
    {{
      {0x1.93fe76c8b4395p-6, 0x1.8p+3, 0x1.38b2dc866bc65p+3, 98, 0x1.385eae3882817p+12, 0x1.fbdf4dfbdc1b5p+22},
      {0x1.492b020c49ba6p-8, 0x1.8p+3, 0x1.7a846ed451cb1p+1, 20, 0x1.1f4615ea60edbp+12, 0x1.42129ccc0244ap+22},},
     0x1.1f4615ea60edbp+12, 0x1.42129ccc0244ap+22, 0x1.784bff87665cp+6, 0x1.1c557deb5221p+13},
    // intersect_final_partial
    {{
      {0x1.283e76c8b4394p-7, 0x1.8p+3, 0x1.2fca3d7a8a4cap+3, 36, 0x0p+0, 0x1.5373e31aad937p+28},
      {0x1.1dccccccccccdp-7, 0x1.8p+3, 0x1.5d5e54ab556fp+2, 34, 0x1.9829cbc14e5e1p+11, 0x1.454665a6faef8p+23},
      {0x1.bd4fdf3b645a2p-10, 0x1.8p+3, 0x1.32f41a7dfaecdp+0, 6, 0x1.5a42a8c68f3f2p+12, 0x1.d42655b30fb84p+23},},
     0x1.9829cbc14e5e1p+11, 0x1.454665a6faef8p+23, -0x1.87afbcb0a031bp+11, 0x1.2e00d50ccf3b7p+13},
    // join_final_partial
    {{
      {0x1.e153f7ced9168p-9, 0x1.8p+5, 0x1.dc7031ace13fep+2, 14, 0x0p+0, 0x1.ced5add0ba34fp+33},
      {0x1.a020c49ba5e36p-9, 0x1.8p+5, 0x1.7243fbcc98f4ep+2, 12, 0x1.155deacafb74ap+16, 0x1.90635678e0295p+30},
      {0x1.de9fbe76c8b44p-9, 0x1.8p+5, 0x1.1cc6522d87c86p+2, 14, 0x1.adbp+16, 0x1.05f21d0ff27c1p+30},
      {0x1.84cccccccccccp-11, 0x1.8p+5, 0x1.ca7e0b2b3aa5fp+0, 2, 0x1.85bd3e1d0662bp+16, 0x1.af0beac7e1b6p+29},
      {0x1.84bc6a7ef9db2p-11, 0x1.8p+5, 0x1.c5e3a15f6f95ep+0, 2, 0x1.631d1745d1746p+16, 0x1.65e2c5440af07p+29},
      {0x1.bf645a1cac082p-10, 0x1.8p+5, 0x1.626ef41304424p+0, 6, 0x1.5ca17e2ebbf9cp+16, 0x1.58f1770231d38p+29},
      {0x1.847ae147ae148p-11, 0x1.8p+5, 0x1.23b3bc8ccc356p-1, 2, 0x1.5becd36ee616dp+16, 0x1.578c73a76fa77p+29},},
     0x1.5becd36ee616dp+16, 0x1.578c73a76fa77p+29, 0x1.1cd859c080862p+15, 0x1.14b6bcfec5f54p+17},
    // intersect_partial
    {{
      {0x1.283e76c8b4394p-7, 0x1.8p+3, 0x1.2fca3d7a8a4cap+3, 36, 0x0p+0, 0x1.5373e31aad937p+28},
      {0x1.4d5810624dd2fp-7, 0x1.8p+3, 0x1.636e44550c627p+2, 40, 0x1.594dca410f8eep+12, 0x1.d1a6981c373fep+24},
      {0x1.83a5e353f7ceep-11, 0x1.8p+3, 0x1.9fa7251bca51p-2, 2, 0x1.58d3dcb08d3ddp+12, 0x1.d05df45bf9247p+24},},
     0x1.58d3dcb08d3ddp+12, 0x1.d05df45bf9247p+24, -0x1.4af132437e29bp+12, 0x1.fe4c75d24c52ap+13},
    // intersect_threads4
    {{
      {0x1.283e76c8b4394p-7, 0x1.8p+3, 0x1.2fca3d7a8a4cap+3, 36, 0x0p+0, 0x1.5373e31aad937p+28},
      {0x1.1dccccccccccdp-7, 0x1.8p+3, 0x1.5d5e54ab556fp+2, 34, 0x1.9829cbc14e5e1p+11, 0x1.454665a6faef8p+23},
      {0x1.bd4fdf3b645a2p-10, 0x1.8p+3, 0x1.32f41a7dfaecdp+0, 6, 0x1.5a42a8c68f3f2p+12, 0x1.d42655b30fb84p+23},},
     0x1.9829cbc14e5e1p+11, 0x1.454665a6faef8p+23, -0x1.87afbcb0a031bp+11, 0x1.2e00d50ccf3b7p+13},
    // join_faults_threads4
    {{
      {0x1.e153f7ced9168p-9, 0x1.8p+5, 0x1.f123895da23d6p+2, 14, 0x0p+0, 0x1.53137de8430b7p+34},
      {0x1.60624dd2f1aa1p-9, 0x1.8p+5, 0x1.5f40c7d496854p+2, 10, 0x1.d97c1f07c1f08p+15, 0x1.c89cdae36b52ap+30},
      {0x1.3fdf3b645a1cap-9, 0x1.8p+5, 0x1.11c8ed0a66724p+2, 10, 0x1.58ab4b4b4b4b5p+16, 0x1.3e7042efe0f3ep+30},
      {0x1.415810624dd2ep-10, 0x1.8p+5, 0x1.451f732384554p+1, 4, 0x1.121f7047dc11fp+16, 0x1.91a1f37d8a294p+29},
      {0x1.84dd2f1a9fbe8p-11, 0x1.8p+5, 0x1.a6584ec92db82p+0, 2, 0x1.48f286bca1af3p+16, 0x1.b11ce719c88fep+29},},
     0x1.48f286bca1af3p+16, 0x1.b11ce719c88fep+29, 0x1.88d3ef96849c8p+14, 0x1.17d808c9d11bap+17},
    // select_soft_deadline
    {{
      {0x1.08428f5c28f5cp-7, 0x0p+0, 0x1.39ba5e353f7cfp+2, 16, 0x1.194p+11, 0x1.a65b4ff4f08fdp+17},
      {0x1.29b5c28f5c28ep-6, 0x0p+0, 0x1.b248f3d2c6aa2p+1, 36, 0x1.e0c4ec4ec4ec5p+10, 0x1.c6a23d87d162p+15},
      {0x1.82c083126e978p-11, 0x0p+0, 0x1.02991dae8c67p-2, 1, 0x1.e121cfb2b78c1p+10, 0x1.be154460eec58p+15},},
     0x1.e121cfb2b78c1p+10, 0x1.be154460eec58p+15, 0x1.6c0c127c67a06p+10, 0x1.2b1bc67483bbep+11},
    // select_precision_stop
    {{
      {0x1.0bf6c8b43958p-5, 0x1.8p+3, 0x1.3d28f5c28f5c3p+4, 65, 0x1.0d3b13b13b13bp+11, 0x1.89128a27afe55p+15},
      {0x1.2dd16872b020cp-4, 0x1.8p+3, 0x1.c6d631226e7e2p+3, 147, 0x1.0f39f656f1827p+11, 0x1.bfd6188bbf771p+13},},
     0x1.0f39f656f1827p+11, 0x1.bfd6188bbf771p+13, 0x1.e3cba1e8ad7bap+10, 0x1.2c8e1bb98c471p+11},
  };
  return kGolden;
}

const std::vector<std::vector<ExplainRow>>& ExplainGoldens() {
  static const std::vector<std::vector<ExplainRow>> kGolden = {
    // select
    {
      {0x1.4p+2, 0x1.08428f5c28f5cp-7, 0x1.8p+3, 0x1.39ba5e353f7cfp+2, 16},},
    // select_clustered
    {
      {0x1.4p+2, 0x1.08428f5c28f5cp-7, 0x1.8p+3, 0x1.39ba5e353f7cfp+2, 16},},
    // intersect_one_at_a_time
    {
      {0x1.4p+3, 0x1.283e76c8b4394p-7, 0x1.8p+3, 0x1.2fca3d7a8a4cap+3, 36},},
    // intersect_single_interval
    {
      {0x1.4p+3, 0x1.283e76c8b4394p-7, 0x0p+0, 0x1.313fd491ff557p+3, 36},},
    // intersect_heuristic
    {
      {0x1.4p+3, 0x1.30a1cac083126p-8, 0x0p+0, 0x1.2dd6846f7526fp+2, 18},
      {0x1.52297b908ad91p+2, 0x1.404189374bc6ap-9, 0x0p+0, 0x1.4e94ce811cb5fp+1, 10},
      {0x1.55be289ff8fc3p+1, 0x1.41a1cac083126p-10, 0x0p+0, 0x1.0d7577b118a84p+0, 4},
      {0x1.9e06d98ed9502p+0, 0x1.850e560418938p-11, 0x0p+0, 0x1.134ec5477429p-1, 2},
      {0x1.145f76eb1f3bap+0, 0x1.84fdf3b645a1cp-11, 0x0p+0, 0x1.134ec5477429p-1, 2},},
    // join
    {
      {0x1p+3, 0x1.e153f7ced9168p-9, 0x1.8p+5, 0x1.dc7031ace13fep+2, 14},},
    // join_heuristic
    {
      {0x1p+3, 0x1.216c8b439581p-9, 0x0p+0, 0x1.a9c335320e1fp+1, 8},
      {0x1.2b1e6566f8f08p+2, 0x1.c245a1cac083p-10, 0x0p+0, 0x1.21f9a27fc5d65p+1, 6},
      {0x1.3443284e2c0abp+1, 0x1.85a1cac083128p-11, 0x0p+0, 0x1.3ad1f5123d0f8p-1, 2},
      {0x1.cb1d5613398dap+0, 0x1.85916872b020cp-11, 0x0p+0, 0x1.3ad1f5123d0f8p-1, 2},},
    // union
    {
      {0x1.4p+3, 0x1.283e76c8b4394p-7, 0x1.8p+3, 0x1.2fca3d7a8a4cap+3, 36},},
    // project
    {
      {0x1p+2, 0x1.30b3333333334p-9, 0x1.8p+3, 0x1.e1576c2bb182cp+1, 9},},
    // sum
    {
      {0x1.4p+2, 0x1.08428f5c28f5cp-7, 0x1.8p+3, 0x1.39ba5e353f7cfp+2, 16},},
    // select_predictor
    {
      {0x1.4p+2, 0x1.08428f5c28f5cp-7, 0x1.8p+3, 0x1.39ba5e353f7cfp+2, 16},},
    // intersect_predictor_after_warm_run
    {
      {0x1.4p+3, 0x1.283e76c8b4394p-7, 0x1.8p+3, 0x1.38aed15de5d15p+3, 36},},
    // intersect_final_partial
    {
      {0x1.4p+3, 0x1.283e76c8b4394p-7, 0x1.8p+3, 0x1.2fca3d7a8a4cap+3, 36},},
    // intersect_partial
    {
      {0x1.4p+3, 0x1.283e76c8b4394p-7, 0x1.8p+3, 0x1.2fca3d7a8a4cap+3, 36},},
  };
  return kGolden;
}

// clang-format on

TEST(GoldenScheduleTest, RunStageSchedulesArePinned) {
  const std::vector<RunCell> cells = RunCells();
  if (PrintMode()) {
    for (const RunCell& cell : cells) {
      std::printf("%s", FormatRun(cell.name, cell.run()).c_str());
    }
    return;
  }
  ASSERT_EQ(cells.size(), RunGoldens().size());
  for (size_t i = 0; i < cells.size(); ++i) {
    ExpectRun(cells[i].name, cells[i].run(), RunGoldens()[i]);
  }
}

TEST(GoldenScheduleTest, ExplainPredictionsArePinned) {
  const std::vector<ExplainCell> cells = ExplainCells();
  if (PrintMode()) {
    for (const ExplainCell& cell : cells) {
      std::printf("%s", FormatExplain(cell.name, cell.explain()).c_str());
    }
    return;
  }
  ASSERT_EQ(cells.size(), ExplainGoldens().size());
  for (size_t i = 0; i < cells.size(); ++i) {
    ExpectExplain(cells[i].name, cells[i].explain(), ExplainGoldens()[i]);
  }
}

TEST(GoldenScheduleTest, ErrorConstrainedAnswersArePinned) {
  struct Cell {
    const char* name;
    Query query;
    ErrorGolden golden;
  };
  ErrorConstrainedOptions options;
  options.rel_halfwidth = 0.1;
  options.seed = 5;
  // Estimate, variance, elapsed seconds, blocks, stages.
  Cell cells[] = {
      {"select", Select(),
       {0x1.0bf8p+11, 0x1.1456c903eacd1p+13, 0x1.97b1a1cb5ddap+4, 320, 3}},
      {"intersect", Intersect(),
       {0x1.3cf6753616c33p+12, 0x1.6150ceabb34a4p+14, 0x1.02ae88365c599p+8,
        1712, 4}},
      {"union", Union(),
       {0x1.dada8p+13, 0x1.652ad10824377p+17, 0x1.92d039648f633p+6, 640, 3}},
  };
  for (Cell& cell : cells) {
    SCOPED_TRACE(cell.name);
    Result<ErrorConstrainedResult> r = RunErrorConstrainedCount(
        cell.query.expr, cell.query.catalog, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (PrintMode()) {
      std::printf("  // %s\n  {%s, %s, %s, %lld, %d},\n", cell.name,
                  Hex(r->estimate).c_str(), Hex(r->variance).c_str(),
                  Hex(r->elapsed_seconds).c_str(),
                  static_cast<long long>(r->blocks_sampled), r->stages);
      continue;
    }
    EXPECT_EQ(r->estimate, cell.golden.estimate);
    EXPECT_EQ(r->variance, cell.golden.variance);
    EXPECT_EQ(r->elapsed_seconds, cell.golden.elapsed_s);
    EXPECT_EQ(r->blocks_sampled, cell.golden.blocks);
    EXPECT_EQ(r->stages, cell.golden.stages);
  }
}

}  // namespace
}  // namespace tcq
