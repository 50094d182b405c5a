#ifndef TCQ_PERFBENCH_REPLAY_H_
#define TCQ_PERFBENCH_REPLAY_H_

// Layer replay of the traced run. For one finished engine run it redoes
// the run's stage schedule through each layer's public functions, with a
// benchmark span around every call:
//
//   sampling   BlockSampler::DrawSubstream, per relation, with the count
//              BlocksForFraction(planned_fraction, total_blocks) capped at
//              the remaining blocks and the engine's (seed, stage)
//              substream;
//   storage    Relation::ReadBlock over the drawn block ids;
//   exec       StagedTermEvaluator::ExecuteStage with MeasureStepsWith, so
//              every operator's NodeStageRecord holds measured step times;
//   timectrl   ReviseSelectivities, the per-stage selectivity revision;
//   estimator  ClusterCountEstimate + CombineSignedEstimates +
//              NormalConfidenceInterval, and DesignEffect over the per-block
//              hits of the drawn blocks of a Select query.
//
// On a cold run the replay draws exactly the engine's blocks, so its
// per-stage block counts equal StageReport::blocks_drawn and its per-stage
// estimate and variance equal the engine's bit for bit. The fidelity check
// compares both; the estimate is a function of the drawn block ids, so a
// different id set shows as a mismatch.

#include <cstdint>
#include <vector>

#include "api/tcq.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

// Work and time of the replayed calls, summed over replayed queries.
struct ReplayStats {
  int64_t queries = 0;
  int64_t stages = 0;
  int64_t blocks = 0;
  int64_t fidelity_stages = 0;  // stages whose draw and estimate matched
  double draw_s = 0.0;
  double read_s = 0.0;
  double revise_s = 0.0;
  double estimator_s = 0.0;
  double teardown_s = 0.0;  // destroying the evaluators' sampled state
  // Operator steps, from the replay evaluators' NodeStageRecords. Scan
  // nodes record no step time of their own: their time is the exec call's
  // duration minus the other operators' recorded step times.
  int64_t scan_tuples = 0;
  double scan_s = 0.0;
  int64_t filter_tuples = 0;
  double filter_s = 0.0;
  int64_t sort_tuples = 0;
  double sort_s = 0.0;
  int64_t merge_tuples = 0;
  double merge_s = 0.0;
  double write_output_s = 0.0;
  std::vector<double> design_effects;  // one per clustered Select query
};

// Replays `result`, the engine's run of `family` with sampling seed
// `seed`. With `check_fidelity`, returns an Internal error naming the
// first stage whose block count or estimate differs from the engine's.
// `pool` (may be null) gives the replay's operators the engine's width.
[[nodiscard]] tcq::Status ReplayQuery(const QueryFamily& family,
                                      uint64_t seed,
                                      const tcq::QueryResult& result,
                                      bool check_fidelity,
                                      tcq::ThreadPool* pool, SpanLog* log,
                                      int64_t query, ReplayStats* stats);

}  // namespace perfbench

#endif  // TCQ_PERFBENCH_REPLAY_H_
