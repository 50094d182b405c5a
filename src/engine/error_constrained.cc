#include "engine/error_constrained.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "engine/prepared_query.h"
#include "sampling/block_sampler.h"
#include "sim/clock.h"
#include "sim/ledger.h"
#include "util/stats.h"

namespace tcq {

namespace {

double TargetHalfWidth(const ErrorConstrainedOptions& options,
                       double estimate) {
  double target = std::numeric_limits<double>::infinity();
  if (options.abs_halfwidth > 0.0) target = options.abs_halfwidth;
  if (options.rel_halfwidth > 0.0 && estimate > 0.0) {
    target = std::min(target, options.rel_halfwidth * estimate);
  }
  return target;
}

}  // namespace

Result<ErrorConstrainedResult> RunErrorConstrainedCount(
    const ExprPtr& expr, const Catalog& catalog,
    const ErrorConstrainedOptions& options) {
  if (options.rel_halfwidth <= 0.0 && options.abs_halfwidth <= 0.0) {
    return Status::InvalidArgument(
        "error-constrained evaluation needs a precision target");
  }
  VirtualClock clock;
  CostLedger ledger(&clock);
  Rng rng(options.seed);
  Rng noise_rng = rng.Fork();
  ledger.AttachNoise(&noise_rng, options.physical.stage_speed_cv,
                     options.physical.block_read_jitter);

  // The time-constrained engine's preparation step; the loop runs
  // serially, so every term charges the one clocked ledger.
  TCQ_ASSIGN_OR_RETURN(
      PreparedQuery query,
      PrepareQuery(expr, AggregateSpec::Count(), catalog, options.fulfillment,
                   options.physical, &ledger));
  std::map<std::string, std::unique_ptr<BlockSampler>> samplers;
  for (const auto& [name, rel] : query.relations) {
    samplers[name] = std::make_unique<BlockSampler>(rel);
  }

  ErrorConstrainedResult result;
  result.ci.level = options.confidence;
  if (query.evaluators.empty()) {
    CountEstimate combined = CombineTermEstimates(
        query, ObsHandle(), CombineVariance::kIndependent);
    result.estimate = combined.value;
    result.met_target = true;
    result.ci = NormalConfidenceInterval(combined, options.confidence);
    return result;
  }

  const double z = NormalQuantile(0.5 + options.confidence / 2.0);
  int64_t next_blocks = std::max<int64_t>(1, options.initial_blocks);
  for (int stage = 0; stage < options.max_stages; ++stage) {
    // Draw and evaluate.
    ledger.BeginStage();
    ledger.Charge(CostCategory::kStageOverhead,
                  options.physical.stage_overhead_s);
    std::map<std::string, std::vector<const Block*>> stage_blocks;
    int64_t drawn = 0;
    for (auto& [name, sampler] : samplers) {
      auto blocks = sampler->Draw(next_blocks, &rng);
      drawn += static_cast<int64_t>(blocks.size());
      ledger.ChargeN(CostCategory::kBlockRead,
                     static_cast<int64_t>(blocks.size()),
                     options.physical.block_read_s);
      stage_blocks[name] = std::move(blocks);
    }
    if (drawn == 0) break;  // exhausted every relation
    for (auto& ev : query.evaluators) {
      TCQ_RETURN_NOT_OK(ev->ExecuteStage(stage_blocks));
    }
    result.blocks_sampled += drawn;
    ++result.stages;

    // Estimate (the time-constrained engine's term estimators: cluster
    // counts, Goodman for projections).
    CountEstimate combined = CombineTermEstimates(
        query, ObsHandle(), CombineVariance::kIndependent);
    result.estimate = combined.value;
    result.variance = combined.variance;
    result.ci = NormalConfidenceInterval(combined, options.confidence);

    double target = TargetHalfWidth(options, combined.value);
    double half_width = z * std::sqrt(combined.variance);
    if (std::isfinite(target) && half_width <= target) {
      result.met_target = true;
      break;
    }

    // Size the next stage: variance shrinks roughly like 1/m, so the
    // sample must grow by Var_now / Var_target; cap the growth.
    double ratio = std::isfinite(target) && target > 0.0
                       ? (half_width * half_width) / (target * target)
                       : options.max_growth;
    ratio = std::clamp(ratio, 1.2, options.max_growth);
    int64_t have = 0;
    for (const auto& [name, sampler] : samplers) {
      have = std::max(have, sampler->drawn_blocks());
    }
    next_blocks = std::max<int64_t>(
        1, static_cast<int64_t>(std::ceil(
               static_cast<double>(have) * (ratio - 1.0))));
  }
  result.elapsed_seconds = clock.Now();
  return result;
}

}  // namespace tcq
