#include "replay.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <variant>

#include "cost/adaptive_model.h"
#include "estimator/cluster_variance.h"
#include "estimator/combined.h"
#include "estimator/count_estimator.h"
#include "exec/staged.h"
#include "ra/inclusion_exclusion.h"
#include "sampling/block_sampler.h"
#include "sim/clock.h"
#include "sim/ledger.h"
#include "timectrl/selectivity.h"

namespace perfbench {

namespace {

using SteadyClock = std::chrono::steady_clock;

double Since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

std::string StageError(const QueryFamily& family, int stage,
                       const std::string& what) {
  return "replay fidelity: " + family.name + " stage " +
         std::to_string(stage) + ": " + what;
}

// Per-block count of tuples with key < bound, for DesignEffect.
int64_t BlockHits(const tcq::BlockView& view, int key_col, int64_t bound) {
  int64_t hits = 0;
  for (const tcq::Tuple& t : view.rows()) {
    if (std::get<int64_t>(t[static_cast<size_t>(key_col)]) < bound) ++hits;
  }
  return hits;
}

}  // namespace

tcq::Status ReplayQuery(const QueryFamily& family, uint64_t seed,
                        const tcq::QueryResult& result, bool check_fidelity,
                        tcq::ThreadPool* pool, SpanLog* log, int64_t query,
                        ReplayStats* stats) {
  const tcq::Catalog& catalog = family.session->catalog();
  ScopedSpan query_span(log, "replay.query", query);
  TCQ_ASSIGN_OR_RETURN(std::vector<tcq::SignedTerm> terms,
                       tcq::ExpandCount(family.query));

  tcq::WallClock clock;
  const tcq::CostModel model = tcq::CostModel::ModernInMemory();
  std::vector<std::unique_ptr<tcq::CostLedger>> ledgers;
  std::vector<std::unique_ptr<tcq::StagedTermEvaluator>> evaluators;
  std::vector<int> signs;
  // Keyed by relation name: the engine draws relations in name order.
  std::map<std::string, std::unique_ptr<tcq::BlockSampler>> samplers;
  for (const tcq::SignedTerm& term : terms) {
    ledgers.push_back(std::make_unique<tcq::CostLedger>());
    TCQ_ASSIGN_OR_RETURN(
        auto ev, tcq::StagedTermEvaluator::Create(
                     term.expr, catalog, tcq::Fulfillment::kFull,
                     ledgers.back().get(), model));
    ev->MeasureStepsWith(&clock);
    ev->UseThreadPool(pool);
    std::vector<std::string> scans;
    tcq::CollectScans(term.expr, &scans);
    for (const std::string& name : scans) {
      if (samplers.count(name) != 0) continue;
      TCQ_ASSIGN_OR_RETURN(tcq::RelationPtr rel, catalog.Find(name));
      samplers[name] = std::make_unique<tcq::BlockSampler>(std::move(rel));
    }
    evaluators.push_back(std::move(ev));
    signs.push_back(term.sign);
  }

  // DesignEffect inputs of a Select query: hits of every block drawn by
  // the counted stages.
  const bool design_effect = family.select_bound > 0 && family.clustered &&
                             samplers.size() == 1 && result.stages_counted > 0;
  std::vector<int64_t> block_hits;
  double sampled_points = 0.0;
  int key_col = -1;
  if (design_effect) {
    TCQ_ASSIGN_OR_RETURN(
        key_col, samplers.begin()->second->relation()->schema().IndexOf("key"));
  }

  for (const tcq::StageReport& report : result.stage_reports) {
    ScopedSpan stage_span(log, "replay.stage", query);
    const auto stage = static_cast<uint64_t>(report.index);
    std::map<std::string, std::vector<const tcq::Block*>> blocks;
    int64_t drawn = 0;
    for (auto& [name, sampler] : samplers) {
      const int64_t count = std::min<int64_t>(
          tcq::BlocksForFraction(report.planned_fraction,
                                 sampler->total_blocks()),
          sampler->remaining_blocks());
      auto start = SteadyClock::now();
      {
        ScopedSpan span(log, "sampling.draw_substream", query);
        blocks[name] = sampler->DrawSubstream(count, seed, stage);
      }
      stats->draw_s += Since(start);
      drawn += static_cast<int64_t>(blocks[name].size());

      const tcq::Relation& rel = *sampler->relation();
      const bool collect = design_effect && report.index < result.stages_counted;
      int64_t rows = 0;
      start = SteadyClock::now();
      {
        ScopedSpan span(log, "storage.read_block", query);
        for (uint32_t id : sampler->last_draw_indices()) {
          TCQ_ASSIGN_OR_RETURN(tcq::BlockView view, rel.ReadBlock(id));
          rows += view.num_rows();
        }
      }
      stats->read_s += Since(start);
      if (collect) {
        for (uint32_t id : sampler->last_draw_indices()) {
          block_hits.push_back(
              BlockHits(rel.ViewBlock(id), key_col, family.select_bound));
        }
        sampled_points += static_cast<double>(rows);
      }
    }
    if (check_fidelity && drawn != report.blocks_drawn) {
      return tcq::Status::Internal(StageError(
          family, report.index,
          "replay drew " + std::to_string(drawn) + " blocks, engine " +
              std::to_string(report.blocks_drawn)));
    }
    stats->blocks += drawn;
    ++stats->stages;

    auto start = SteadyClock::now();
    {
      ScopedSpan span(log, "exec.execute_stage", query);
      for (auto& ev : evaluators) {
        TCQ_RETURN_NOT_OK(ev->ExecuteStage(blocks));
      }
    }
    const double exec_s = Since(start);
    double operator_s = 0.0;
    for (const auto& ev : evaluators) {
      for (const tcq::StagedNode* node : ev->NodesPreOrder()) {
        const tcq::NodeStageRecord& rec = node->stages.back();
        switch (node->kind) {
          case tcq::ExprKind::kScan:
            stats->scan_tuples += rec.new_tuples;
            continue;
          case tcq::ExprKind::kSelect:
            stats->filter_tuples += rec.process.in_tuples;
            stats->filter_s += rec.process.seconds;
            break;
          case tcq::ExprKind::kJoin:
          case tcq::ExprKind::kIntersect:
            stats->sort_tuples += rec.sort.in_tuples;
            stats->sort_s += rec.sort.seconds;
            stats->merge_tuples += rec.process.in_tuples;
            stats->merge_s += rec.process.seconds;
            break;
          default:
            break;
        }
        stats->write_output_s += rec.write.seconds + rec.output.seconds;
        operator_s += rec.seconds;
      }
    }
    stats->scan_s += std::max(0.0, exec_s - operator_s);

    start = SteadyClock::now();
    {
      ScopedSpan span(log, "timectrl.revise_selectivities", query);
      for (const auto& ev : evaluators) {
        tcq::ReviseSelectivities(*ev, tcq::SelectivityOptions{});
      }
    }
    stats->revise_s += Since(start);

    tcq::CountEstimate combined;
    start = SteadyClock::now();
    {
      ScopedSpan span(log, "estimator.estimate", query);
      std::vector<tcq::CountEstimate> estimates;
      estimates.reserve(evaluators.size());
      for (const auto& ev : evaluators) {
        estimates.push_back(tcq::ClusterCountEstimate(
            ev->total_space_blocks(), ev->cum_space_blocks(), ev->cum_hits(),
            ev->cum_points(), ev->total_points()));
      }
      combined = tcq::CombineSignedEstimates(signs, estimates);
      tcq::ConfidenceInterval ci =
          tcq::NormalConfidenceInterval(combined, result.ci.level);
      if (!(ci.lo <= ci.hi)) {
        return tcq::Status::Internal("replay produced an inverted interval");
      }
    }
    stats->estimator_s += Since(start);
    if (check_fidelity && (combined.value != report.estimate_after ||
                           combined.variance != report.variance_after)) {
      return tcq::Status::Internal(StageError(
          family, report.index,
          "replay estimate " + std::to_string(combined.value) + " (var " +
              std::to_string(combined.variance) + "), engine " +
              std::to_string(report.estimate_after) + " (var " +
              std::to_string(report.variance_after) +
              "): the drawn blocks differ"));
    }
    if (check_fidelity) ++stats->fidelity_stages;
  }

  if (design_effect) {
    const tcq::Relation& rel = *samplers.begin()->second->relation();
    ScopedSpan span(log, "estimator.design_effect", query);
    stats->design_effects.push_back(tcq::DesignEffect(
        static_cast<double>(rel.NumBlocks()),
        static_cast<double>(rel.NumTuples()), sampled_points, block_hits));
  }
  const auto start = SteadyClock::now();
  {
    ScopedSpan span(log, "exec.teardown", query);
    evaluators.clear();
  }
  stats->teardown_s += Since(start);
  ++stats->queries;
  return tcq::Status::OK();
}

}  // namespace perfbench
