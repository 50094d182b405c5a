#include "engine/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "cache/warm_start.h"
#include "cost/predictor.h"
#include "engine/prepared_query.h"
#include "estimator/goodman.h"
#include "estimator/sum_estimator.h"
#include "obs/metric_names.h"
#include "ra/inclusion_exclusion.h"
#include "sampling/block_sampler.h"
#include "util/check.h"
#include "util/stats.h"

namespace tcq {

std::unique_ptr<TimeControlStrategy> MakeStrategy(
    const StrategyConfig& config) {
  switch (config.kind) {
    case StrategyConfig::Kind::kOneAtATime:
      return std::make_unique<OneAtATimeStrategy>(config.one_at_a_time);
    case StrategyConfig::Kind::kSingleInterval:
      return std::make_unique<SingleIntervalStrategy>(
          config.single_interval);
    case StrategyConfig::Kind::kHeuristic:
      return std::make_unique<HeuristicStrategy>(config.heuristic);
  }
  return std::make_unique<OneAtATimeStrategy>(config.one_at_a_time);
}

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The current estimate of one term (cluster estimator, or guarded
/// Goodman for projection roots).
CountEstimate EstimateTerm(const StagedTermEvaluator& ev) {
  if (!ev.root_is_project()) {
    return ClusterCountEstimate(ev.total_space_blocks(),
                                ev.cum_space_blocks(), ev.cum_hits(),
                                ev.cum_points(), ev.total_points());
  }
  // Projection: COUNT is the number of distinct groups among the
  // expression's output tuples. Estimate the qualifying population from
  // the child's selectivity, then apply Goodman's estimator to the sample
  // occupancies ([HoOT 88]'s revised-Goodman approach; see DESIGN.md).
  const StagedNode& root = ev.root();
  const StagedNode& child = *root.left;
  std::vector<int64_t> occupancies = ev.RootOccupancies();
  int64_t sample_n = 0;
  for (int64_t c : occupancies) sample_n += c;
  double sel_child =
      child.cum_points > 0.0
          ? static_cast<double>(child.cum_tuples) / child.cum_points
          : 0.0;
  double qualifying_pop = std::max(sel_child * ev.total_points(),
                                   static_cast<double>(sample_n));
  CountEstimate e;
  e.value = GoodmanEstimate(qualifying_pop, occupancies);
  e.hits = static_cast<int64_t>(occupancies.size());
  e.points = ev.cum_points();
  e.total_points = ev.total_points();
  if (sample_n > 0 && qualifying_pop > 0.0) {
    // Two uncertainty sources: the distinct share within the qualifying
    // population, and the size of that population itself (estimated from
    // the child's sample). With all-singleton samples the share variance
    // degenerates to 0, so the population term keeps the interval honest.
    double distinct_share = static_cast<double>(occupancies.size()) /
                            static_cast<double>(sample_n);
    double share_var = qualifying_pop * qualifying_pop *
                       SrsProportionVariance(distinct_share, qualifying_pop,
                                             static_cast<double>(sample_n));
    double pop_var = ev.total_points() * ev.total_points() *
                     SrsProportionVariance(sel_child, ev.total_points(),
                                           child.cum_points);
    e.variance = share_var + distinct_share * distinct_share * pop_var;
  }
  TCQ_CHECK_INVARIANT(e.variance >= 0.0,
                      "projection term variance went negative");
  return e;
}

// ---- The stage planner, shared by Run and Explain. ----

/// One relation's blocks as the planner sees them. The next
/// `pooled_remaining` draws replay cached blocks at the discounted rate.
struct RelationBlocks {
  int64_t total = 0;
  int64_t remaining = 0;
  int64_t pooled_remaining = 0;
};

int64_t BlocksAtFraction(const RelationBlocks& relation, double f) {
  return std::min<int64_t>(BlocksForFraction(f, relation.total),
                           relation.remaining);
}

/// Largest drawable fraction (0 once every relation is fully sampled)
/// and the one-block fraction step.
struct SampleFrame {
  double f_max = 0.0;
  double min_step = 1.0;
};

SampleFrame FrameOf(const std::vector<RelationBlocks>& relations) {
  SampleFrame frame;
  for (const RelationBlocks& r : relations) {
    if (r.total <= 0) continue;
    const double total = static_cast<double>(r.total);
    frame.f_max =
        std::max(frame.f_max, static_cast<double>(r.remaining) / total);
    frame.min_step = std::min(frame.min_step, 1.0 / total);
  }
  return frame;
}

/// Everything the planner reads for one stage: an immutable snapshot of
/// live (Run) or hypothetical (Explain) state. Pointers are borrowed.
struct PlannerSnapshot {
  const ExecutorOptions* options = nullptr;  // quota, ε, faults, obs
  const std::vector<std::unique_ptr<StagedTermEvaluator>>* evaluators =
      nullptr;
  std::vector<RelationBlocks> relations;  // relation-name order
  const std::vector<std::map<int, double>>* sel_prev = nullptr;
  /// Per-node predictor inflation widths; null plans with the flat d_β.
  const std::vector<std::map<int, double>>* widths = nullptr;
  Fulfillment mode = Fulfillment::kFull;
  /// §5.B: when no full-fulfillment stage fits, plan a partial one.
  bool final_partial_stages = false;
  int stage = 0;
  double time_left = 0.0;
  const AdaptiveCostModel* coefs = nullptr;
};

/// A planned stage (fraction 0: no affordable stage remains) and the
/// fulfillment mode it runs under.
struct PlannedStage {
  StagePlan plan;
  Fulfillment mode = Fulfillment::kFull;
};

// Block fetches of a stage at fraction f, priced once per relation.
double FetchCost(const PlannerSnapshot& s, double f) {
  const CostModel& physical = s.options->physical;
  const double fault_overhead_s =
      s.options->faults.ExpectedOverheadSeconds(physical.block_read_s);
  double seconds = 0.0;
  for (const RelationBlocks& r : s.relations) {
    const int64_t d_new = BlocksAtFraction(r, f);
    const double coef = s.coefs->Coef(kGlobalCostNode, CostStep::kFetch);
    // Expected fault overhead (retry re-reads, backoff, straggler
    // inflation) is priced into the plan: the time-control loop replans
    // around retries instead of discovering them mid-stage and blowing
    // the hard deadline.
    seconds += static_cast<double>(d_new) * fault_overhead_s;
    // Pooled draws replay cached blocks at the discounted rate; pricing
    // them as full reads would make the planner under-fill warm stages.
    const int64_t replayed = std::min<int64_t>(d_new, r.pooled_remaining);
    const int64_t fresh = d_new - replayed;
    seconds += (static_cast<double>(replayed) * physical.cached_read_factor +
                static_cast<double>(fresh)) *
               coef;
  }
  return seconds;
}

// QCOST(f, SEL⁺(d_β)): per-stage overhead + block fetches + every term's
// operator costs at the inflated selectivities.
Result<double> QCost(const PlannerSnapshot& s, Fulfillment mode, double f,
                     double d_beta) {
  const auto& evaluators = *s.evaluators;
  double seconds =
      s.coefs->Coef(kGlobalCostNode, CostStep::kSetup) + FetchCost(s, f);
  for (size_t t = 0; t < evaluators.size(); ++t) {
    std::map<int, double> sel_plus = ComputeSelPlus(
        *evaluators[t], (*s.sel_prev)[t], f, d_beta, mode,
        s.widths != nullptr ? &(*s.widths)[t] : nullptr);
    TCQ_ASSIGN_OR_RETURN(
        TermStagePrediction p,
        PredictTermStageCost(*evaluators[t], f, sel_plus, *s.coefs, mode));
    seconds += p.seconds;
  }
  return seconds;
}

// First-order std-dev of the stage cost: per-operator selectivity sigmas
// propagated through the cost formula, combined with the conservative
// perfect-correlation bound (§3.3.1's covariances are upper-bounded
// rather than estimated).
Result<double> QCostSigma(const PlannerSnapshot& s, Fulfillment mode,
                          double f) {
  const auto& evaluators = *s.evaluators;
  double sigma = 0.0;
  for (size_t t = 0; t < evaluators.size(); ++t) {
    const std::map<int, double>& sel_prev = (*s.sel_prev)[t];
    std::map<int, NodePoints> points =
        PredictNodePoints(*evaluators[t], f, mode);
    TCQ_ASSIGN_OR_RETURN(
        TermStagePrediction base,
        PredictTermStageCost(*evaluators[t], f, sel_prev, *s.coefs, mode));
    for (const auto& [id, sel] : sel_prev) {
      auto it = points.find(id);
      if (it == points.end()) continue;
      double sd = std::sqrt(SrsProportionVariance(
          sel, it->second.remaining_points, it->second.new_points));
      if (sd <= 0.0) continue;
      std::map<int, double> bumped = sel_prev;
      bumped[id] = std::min(1.0, sel + sd);
      TCQ_ASSIGN_OR_RETURN(
          TermStagePrediction hi,
          PredictTermStageCost(*evaluators[t], f, bumped, *s.coefs, mode));
      sigma += std::max(0.0, hi.seconds - base.seconds);
    }
  }
  return sigma;
}

// Plans one stage: the strategy (Sample-Size-Determine) over QCOST and its
// standard deviation, with the §5.B downgrade to partial fulfillment when
// allowed and no full stage fits.
Result<PlannedStage> PlanStage(const PlannerSnapshot& snapshot,
                               TimeControlStrategy& strategy) {
  PlannedStage out;
  out.mode = snapshot.mode;
  StagePlanContext context;
  context.next_stage = snapshot.stage;
  context.time_left = snapshot.time_left;
  context.quota = snapshot.options->quota_s;
  const SampleFrame frame = FrameOf(snapshot.relations);
  context.f_max = frame.f_max;
  context.f_min_step = frame.min_step;
  context.epsilon = snapshot.options->epsilon_s;
  context.predictor_active = snapshot.widths != nullptr;
  context.obs = snapshot.options->obs;
  context.qcost = [&](double f, double d_beta) {
    return QCost(snapshot, out.mode, f, d_beta);
  };
  context.qcost_sigma = [&](double f) {
    return QCostSigma(snapshot, out.mode, f);
  };
  for (;;) {
    TCQ_ASSIGN_OR_RETURN(out.plan, strategy.PlanStage(context));
    if (out.plan.fraction > 0.0 || !snapshot.final_partial_stages ||
        out.mode != Fulfillment::kFull) {
      return out;
    }
    // §5.B hybrid: a full stage no longer fits, but a cheap partial
    // (new×new only) stage might still use the residual time.
    out.mode = Fulfillment::kPartial;
  }
}

// ---- The time-constrained run. ----

// The cost model's worker count: virtual time always charges the serial
// machine's work (keeping simulated runs bit-identical at any thread
// count), so only wall-clock planning sees the real width.
CostModel PlanningPhysical(const ExecutorOptions& options, int width) {
  CostModel physical = options.physical;
  physical.workers = options.use_wall_clock ? width : 1;
  return physical;
}

// Layout-aware planning, wall-clock only: the columnar path evaluates the
// per-block filter/sort/merge steps faster, so the initial coefficients
// are divided by the measured speedup ratio. Simulated charges never
// depend on the layout — scaling them would change the planned fractions
// and with them the drawn blocks, breaking the row/columnar bit-identity
// guarantee.
AdaptiveCostModel PlanningCostModel(const ExecutorOptions& options,
                                    const CostModel& physical) {
  AdaptiveCostModel::Options cost = options.cost;
  if (options.use_wall_clock && options.layout == Layout::kColumnar) {
    cost.eval_speedup = physical.columnar_eval_speedup;
  }
  return AdaptiveCostModel(physical, cost);
}

/// The stage in flight (Figure 3.1's while-loop body), filled phase by
/// phase: plan → draw/resolve faults → evaluate → estimate → report/count.
struct StageState {
  StageReport report;
  // Plan: per-term planning selectivities and, under the hybrid
  // predictor, its per-node widths and predictions.
  std::vector<std::map<int, double>> sel_prev;
  std::vector<std::map<int, double>> widths;
  std::vector<std::map<int, SelPrediction>> predictions;
  // Draw: the surviving blocks per relation.
  double start = 0.0;
  std::map<std::string, std::vector<const Block*>> blocks;
  // Estimate.
  CountEstimate combined;
  double fault_widen = 1.0;
};

/// One time-constrained run: the state Figure 3.1's loop carries from
/// stage to stage, and one method per phase of the loop body.
class TimeConstrainedRun {
 public:
  TimeConstrainedRun(const ExprPtr& expr, const AggregateSpec& aggregate,
                     const ExecutorOptions& options)
      : expr_(expr), aggregate_(aggregate), options_(options) {}
  // The tracer and the evaluators hold pointers into the run.
  TimeConstrainedRun(const TimeConstrainedRun&) = delete;
  TimeConstrainedRun& operator=(const TimeConstrainedRun&) = delete;

  Result<QueryResult> Execute(const Catalog& catalog) {
    TCQ_ASSIGN_OR_RETURN(query_, PrepareQuery(expr_, aggregate_, catalog,
                                              options_.fulfillment, physical_,
                                              /*shared_ledger=*/nullptr));
    if (query_.empty()) {
      QueryResult r;
      r.ci.level = options_.confidence;
      return r;
    }
    Setup();
    if (query_.evaluators.empty()) {
      // Fully constant query (e.g. COUNT(r1)).
      CountEstimate combined =
          CombineTermEstimates(query_, obs_, combine_rule_);
      result_.estimate = combined.value;
      result_.variance = combined.variance;
      result_.ci = NormalConfidenceInterval(combined, options_.confidence);
      if (obs_.observer != nullptr) {
        obs_.observer->OnQueryEnd(result_.estimate, result_.variance, false);
      }
      return std::move(result_);
    }
    deadline_ = Deadline::StartingNow(clock_, options_.quota_s);
    TraceSpan query_span(obs_.tracer, "query", "engine");
    query_span.Arg("terms", static_cast<double>(query_.evaluators.size()));
    query_span.Arg("quota_s", options_.quota_s);
    result_.ci.level = options_.confidence;
    for (int stage = 0; stage < options_.max_stages; ++stage) {
      TCQ_ASSIGN_OR_RETURN(bool more, RunStage(stage));
      if (!more) break;
    }
    return Finish();
  }

 private:
  void Setup() {
    if (obs_.tracer != nullptr && !wall_) {
      // Simulated runs stamp trace events with virtual time: the exported
      // trace becomes a pure function of the seed (golden-schema test).
      obs_.tracer->UseClock(&virtual_clock_);
    }
    if (!wall_) {
      ledger_.AttachNoise(&noise_rng_, options_.physical.stage_speed_cv,
                          options_.physical.block_read_jitter);
    }
    if (obs_.metering()) {
      obs_.metrics->gauge(metric_names::kEngineQuotaS)->Set(options_.quota_s);
      obs_.metrics->gauge(metric_names::kPoolWidth)
          ->Set(static_cast<double>(width_));
      if (pool_ != nullptr) {
        obs_.metrics->gauge(metric_names::kPoolWorkers)
            ->Set(static_cast<double>(pool_->workers()));
      }
    }
    // Warm start: with a session cache attached, begin from the fitted
    // cost coefficients of the last run of a canonically equal query (the
    // coefficients' node ids only transfer between structurally identical
    // plans, hence the whole-query key). The stats snapshot taken here
    // turns the cache's cumulative counters into this run's deltas for
    // the metric export in Finish.
    if (cache_ != nullptr) {
      cache_stats_before_ = cache_->Stats();
      std::optional<AdaptiveCostModel::Snapshot> snapshot =
          cache_->LookupCostSnapshot(CanonicalSignature(*expr_));
      if (snapshot.has_value()) coefs_.RestoreSnapshot(*snapshot);
    }
    const auto& evaluators = query_.evaluators;
    if (obs_.observer != nullptr) {
      obs_.observer->OnQueryBegin(options_.quota_s,
                                  static_cast<int>(evaluators.size()));
    }
    // Each term charges a private clockless ledger so the evaluators can
    // run on separate workers without racing on the shared clock or noise
    // stream; Evaluate folds every term's charges into the virtual clock
    // in term order after each stage's barrier.
    for (size_t t = 0; t < evaluators.size(); ++t) {
      if (wall_) evaluators[t]->MeasureStepsWith(&clock_);
      evaluators[t]->UseThreadPool(pool_, max_width_);
      evaluators[t]->SetLayout(options_.layout);
      evaluators[t]->SetObs(obs_, static_cast<int>(t));
    }
    for (const auto& [name, rel] : query_.relations) {
      // With a warm cache the sampler replays the relation's pooled prefix
      // before drawing fresh blocks (see BlockSampler); an empty pool
      // degenerates to the cold sampler.
      RelationSamplePool* rel_pool =
          cache_ != nullptr ? cache_->PoolFor(name, rel->NumBlocks())
                            : nullptr;
      auto sampler = std::make_unique<BlockSampler>(rel, rel_pool);
      sampler->SetMetrics(obs_.metrics);
      samplers_.emplace(name, std::move(sampler));
    }
    // Warm-start selectivity priors: one lookup per operator node before
    // the stage loop, keyed by the node subtree's canonical signature. The
    // resulting per-term maps seed stage 0 of ReviseSelectivities; once a
    // node has its own samples the priors are ignored.
    term_priors_.resize(evaluators.size());
    for (size_t t = 0; t < evaluators.size() && cache_ != nullptr; ++t) {
      for (const StagedNode* node : evaluators[t]->NodesPreOrder()) {
        if (node->kind == ExprKind::kScan) continue;
        std::optional<double> prior =
            cache_->LookupPrior(CanonicalSignature(*node->expr));
        if (prior.has_value()) term_priors_[t][node->id] = *prior;
      }
    }
    // Hybrid selectivity predictor (DESIGN.md §12): session-lifetime when
    // a warm cache is attached (its history persists alongside the
    // priors), query-local otherwise. freeze_initial is the prestored-
    // statistics ablation — predictions would fight the frozen values, so
    // it wins. With the predictor off no predictor code runs, and the
    // stage loop is bit-identical to a build without it.
    if (!options_.sel_predictor.enabled ||
        options_.selectivity.freeze_initial) {
      return;
    }
    if (cache_ != nullptr) {
      predictor_ = cache_->PredictorFor(options_.sel_predictor);
    } else {
      query_predictor_ =
          std::make_unique<SelPredictor>(options_.sel_predictor);
      predictor_ = query_predictor_.get();
    }
    predictor_->BeginQuery(CanonicalSignature(*expr_));
    node_keys_.resize(evaluators.size());
    node_structs_.resize(evaluators.size());
    for (size_t t = 0; t < evaluators.size(); ++t) {
      for (const StagedNode* node : evaluators[t]->NodesPreOrder()) {
        if (node->kind == ExprKind::kScan) continue;
        node_keys_[t].emplace(node->id, CanonicalSignature(*node->expr));
        node_structs_[t].emplace(node->id, StructuralSignature(*node->expr));
      }
    }
  }

  std::vector<RelationBlocks> RelationSnapshot() const {
    std::vector<RelationBlocks> relations;
    for (const auto& [name, sampler] : samplers_) {
      RelationBlocks r;
      r.total = sampler->total_blocks();
      r.remaining = sampler->remaining_blocks();
      // Replayed blocks are priced at the discounted rate in simulation
      // only; a wall-clock fetch coefficient measures them as they come.
      if (!wall_ && cache_ != nullptr) {
        r.pooled_remaining = sampler->pooled_remaining();
      }
      relations.push_back(r);
    }
    return relations;
  }

  // One stage of Figure 3.1's loop; false once the loop should stop.
  Result<bool> RunStage(int index) {
    StageState s;
    s.report.index = index;
    s.report.time_left_before = deadline_.Remaining(clock_);
    if (s.report.time_left_before <= 0.0) return false;
    if (FrameOf(RelationSnapshot()).f_max <= 0.0) {
      return false;  // every relation fully sampled
    }
    TraceSpan stage_span(obs_.tracer, "stage", "engine");
    stage_span.Arg("index", static_cast<double>(index));
    stage_span.Arg("time_left_s", s.report.time_left_before);
    TCQ_RETURN_NOT_OK(Plan(&s));
    if (s.report.planned_fraction <= 0.0) {
      result_.stopped_no_affordable_stage = true;
      return false;
    }
    // Strategies must hand back a usable sampling fraction: (0, 1] and no
    // larger than what is left to draw (paper §3.1 selectivity revision
    // assumes stages sample fresh blocks).
    TCQ_CHECK_INVARIANT(
        s.report.planned_fraction > 0.0 && s.report.planned_fraction <= 1.0,
        "stage plan fraction outside (0, 1]");
    s.start = clock_.Now();
    ledger_.BeginStage();
    if (!wall_) {
      // Simulated per-stage bookkeeping overhead; under a wall clock the
      // planning work above took real time already.
      ledger_.Charge(CostCategory::kStageOverhead,
                     options_.physical.stage_overhead_s);
      coefs_.Observe(kGlobalCostNode, CostStep::kSetup, 1.0,
                     options_.physical.stage_overhead_s);
    } else {
      coefs_.Observe(kGlobalCostNode, CostStep::kSetup, 1.0,
                     clock_.Now() - s.start);
    }
    TCQ_RETURN_NOT_OK(Draw(&s));
    TCQ_RETURN_NOT_OK(Evaluate(&s));
    Estimate(&s);
    Report(s);
    return Count(s);
  }

  // Plan: revise per-operator selectivities from all samples (Figure 3.3),
  // let the hybrid predictor override them and supply per-node inflation
  // widths, then run the stage planner over the live sampler state. The
  // predictor section is serial, in node order — deterministic at a fixed
  // seed and cache state at any thread count.
  Status Plan(StageState* s) {
    const auto& evaluators = query_.evaluators;
    for (size_t t = 0; t < evaluators.size(); ++t) {
      s->sel_prev.push_back(ReviseSelectivities(
          *evaluators[t], options_.selectivity, obs_,
          cache_ != nullptr ? &term_priors_[t] : nullptr));
    }
    if (predictor_ != nullptr) {
      s->widths.resize(evaluators.size());
      s->predictions.resize(evaluators.size());
    }
    for (size_t t = 0; t < evaluators.size() && predictor_ != nullptr; ++t) {
      for (const StagedNode* node : evaluators[t]->NodesPreOrder()) {
        if (node->kind == ExprKind::kScan) continue;
        std::optional<double> observed;
        if (evaluators[t]->num_stages() > 0 && node->cum_points > 0.0) {
          observed = s->sel_prev[t].at(node->id);
        }
        std::optional<double> prior;
        auto pit = term_priors_[t].find(node->id);
        if (pit != term_priors_[t].end()) {
          prior = SanitizedStagePrior(pit->second, node->total_points,
                                      options_.selectivity.zero_hit_beta);
        }
        SelPrediction p = predictor_->Predict(
            node_keys_[t].at(node->id), node_structs_[t].at(node->id),
            observed, prior,
            InitialSelectivity(*node, options_.selectivity, nullptr));
        s->sel_prev[t][node->id] = p.selectivity;
        s->widths[t][node->id] = p.width_scale;
        s->predictions[t].emplace(node->id, p);
        if (obs_.metering()) {
          Metrics* m = obs_.metrics;
          m->counter(metric_names::kPredictorPredictions)->Increment();
          m->counter(p.history_hit ? metric_names::kPredictorHistoryHits
                                   : metric_names::kPredictorHistoryMisses)
              ->Increment();
          m->histogram(metric_names::kPredictorWidthScale)
              ->Record(p.width_scale);
        }
      }
    }
    PlannerSnapshot snapshot;
    snapshot.options = &options_;
    snapshot.evaluators = &evaluators;
    snapshot.relations = RelationSnapshot();
    snapshot.sel_prev = &s->sel_prev;
    snapshot.widths = predictor_ != nullptr ? &s->widths : nullptr;
    snapshot.mode = mode_;
    snapshot.final_partial_stages = options_.final_partial_stages;
    snapshot.stage = s->report.index;
    snapshot.time_left = s->report.time_left_before;
    snapshot.coefs = &coefs_;
    TraceSpan plan_span(obs_.tracer, "plan_stage", "engine");
    TCQ_ASSIGN_OR_RETURN(PlannedStage planned, PlanStage(snapshot, *strategy_));
    plan_span.Arg("fraction", planned.plan.fraction);
    plan_span.Arg("predicted_s", planned.plan.predicted_seconds);
    s->report.planned_fraction = planned.plan.fraction;
    s->report.d_beta_used = planned.plan.d_beta_used;
    s->report.predicted_seconds = planned.plan.predicted_seconds;
    s->report.predictor_used = planned.plan.predictor_used;
    mode_ = planned.mode;
    return Status::OK();
  }

  // Draw: parallel block draws, one task per relation, each from its own
  // deterministic substream derived from (seed, relation, stage). Ledger
  // charges — which consume the per-block jitter noise — coefficient
  // observations and fault resolution happen post-barrier in
  // relation-name order, so none of them depends on the worker count.
  Status Draw(StageState* s) {
    TraceSpan draw_span(obs_.tracer, "draw_blocks", "engine");
    struct DrawSlot {
      std::string name;
      BlockSampler* sampler = nullptr;
      int64_t count = 0;
      std::vector<const Block*> blocks;
      std::vector<uint32_t> indices;  // fault path: drawn block ids
      Status status;
      double seconds = 0.0;
    };
    std::vector<DrawSlot> draws;
    draws.reserve(samplers_.size());
    for (auto& [name, sampler] : samplers_) {
      DrawSlot slot;
      slot.name = name;
      slot.sampler = sampler.get();
      slot.count = std::min<int64_t>(
          BlocksForFraction(s->report.planned_fraction,
                            sampler->total_blocks()),
          sampler->remaining_blocks());
      draws.push_back(std::move(slot));
    }
    const uint64_t seed = options_.seed;
    const uint64_t stage_idx = static_cast<uint64_t>(s->report.index);
    const bool checked = faults_on_;
    std::vector<std::function<void()>> tasks;
    tasks.reserve(draws.size());
    for (DrawSlot& slot : draws) {
      tasks.push_back([sp = &slot, seed, stage_idx, checked] {
        auto start = std::chrono::steady_clock::now();
        if (!checked) {
          sp->blocks = sp->sampler->DrawSubstream(sp->count, seed, stage_idx);
        } else {
          // Fault path: the draw is identical, but blocks come back with
          // their indices through the checked storage read API (the
          // injector keys on the physical block identity).
          Result<std::vector<DrawnBlock>> drawn =
              sp->sampler->DrawSubstreamChecked(sp->count, seed, stage_idx);
          if (!drawn.ok()) {
            sp->status = drawn.status();
          } else {
            for (const DrawnBlock& b : *drawn) {
              sp->indices.push_back(b.index);
              sp->blocks.push_back(b.block);
            }
          }
        }
        sp->seconds = SecondsSince(start);
      });
    }
    auto section_start = std::chrono::steady_clock::now();
    RunTasks(pool_, &tasks, max_width_);
    s->report.span_seconds += SecondsSince(section_start);
    s->report.parallel_tasks += static_cast<int>(tasks.size());

    TraceSpan fault_span(faults_on_ ? obs_.tracer : nullptr, "inject_faults",
                         "fault");
    double wall_fault_sleep_s = 0.0;
    int64_t replayed_blocks = 0;
    for (DrawSlot& slot : draws) {
      TCQ_RETURN_NOT_OK(slot.status);
      s->report.work_seconds += slot.seconds;
      s->report.blocks_drawn += static_cast<int64_t>(slot.blocks.size());
      const int64_t replayed = slot.sampler->last_draw_replayed();
      replayed_blocks += replayed;
      if (!wall_) {
        // Replayed blocks come from the session's sample cache and charge
        // the discounted rate; fresh draws pay a full random read. The
        // charge count — and with it the per-block jitter stream — is the
        // same replayed + fresh split or not, and with no (or an empty)
        // warm cache `replayed` is zero, so the first ChargeN is a no-op.
        const int64_t fresh =
            static_cast<int64_t>(slot.blocks.size()) - replayed;
        ledger_.ChargeN(CostCategory::kBlockRead, replayed,
                        options_.physical.block_read_s *
                            options_.physical.cached_read_factor);
        ledger_.ChargeN(CostCategory::kBlockRead, fresh,
                        options_.physical.block_read_s);
      }
      // The fetch coefficient keeps meaning "seconds per *fresh* read": in
      // simulation the observation feeds the nominal full-read cost
      // regardless of the replay split, and the planner applies the
      // replay discount itself.
      coefs_.Observe(kGlobalCostNode, CostStep::kFetch,
                     static_cast<double>(slot.blocks.size()),
                     wall_ ? slot.seconds
                           : static_cast<double>(slot.blocks.size()) *
                                 options_.physical.block_read_s);
      if (faults_on_) {
        ResolveFaults(slot.name, slot.indices, &slot.blocks, s,
                      &wall_fault_sleep_s);
      }
      s->blocks[slot.name] = std::move(slot.blocks);
    }
    if (wall_ && wall_fault_sleep_s > 0.0) {
      // Wall-clock runs pay fault latency in real time: the deadline, the
      // strategy's outcome feedback, and the serving layer all see the
      // backoff/straggler seconds.
      std::this_thread::sleep_for(
          std::chrono::duration<double>(wall_fault_sleep_s));
    }
    if (faults_on_) {
      fault_span.Arg("transient",
                     static_cast<double>(s->report.transient_faults));
      fault_span.Arg("lost", static_cast<double>(s->report.blocks_lost));
    }
    draw_span.Arg("blocks", static_cast<double>(s->report.blocks_drawn));
    if (cache_ != nullptr) {
      draw_span.Arg("replayed", static_cast<double>(replayed_blocks));
    }
    return Status::OK();
  }

  // Resolves each drawn block's read of one relation through the
  // injector: retries transient faults with exponential backoff, drops
  // permanently unreadable blocks from the frame, and charges every retry,
  // backoff, and straggler second to the ledger so the deadline arithmetic
  // sees the fault overhead.
  void ResolveFaults(const std::string& relation,
                     const std::vector<uint32_t>& indices,
                     std::vector<const Block*>* blocks, StageState* s,
                     double* wall_sleep_s) {
    std::vector<const Block*> survivors;
    survivors.reserve(blocks->size());
    RelationFaultCounts& rf = rel_faults_[relation];
    rf.relation = relation;
    for (size_t i = 0; i < blocks->size(); ++i) {
      const BlockReadOutcome outcome = ReadBlockWithFaults(
          injector_, relation, static_cast<int64_t>(indices[i]),
          options_.physical.block_read_s);
      rf.read_attempts += outcome.read_attempts;
      const int64_t retries = outcome.read_attempts - 1;
      // A retry re-reads the block: charged like any other read (consuming
      // per-read jitter) but never a new draw — `drawn` counts this block
      // exactly once.
      s->report.retries += retries;
      if (retries > 0 && !wall_) {
        ledger_.ChargeN(CostCategory::kBlockRead, retries,
                        options_.physical.block_read_s);
      }
      s->report.transient_faults += outcome.transient_faults;
      rf.transient_faults += outcome.transient_faults;
      const double delay_s = outcome.backoff_s + outcome.straggler_extra_s;
      if (delay_s > 0.0) {
        s->report.fault_delay_s += delay_s;
        if (!wall_) {
          ledger_.Charge(CostCategory::kFaultDelay, delay_s);
        } else {
          *wall_sleep_s += delay_s;
        }
      }
      if (outcome.lost) {
        ++s->report.blocks_lost;
        ++rf.blocks_lost;
        if (obs_.tracing()) {
          obs_.tracer->Instant("block_lost", "fault", "block",
                               static_cast<double>(indices[i]));
        }
        continue;
      }
      if (outcome.straggler) {
        ++s->report.stragglers;
        ++rf.stragglers;
      }
      survivors.push_back((*blocks)[i]);
    }
    *blocks = std::move(survivors);
  }

  // Evaluate: every inclusion–exclusion term runs as its own task (each
  // term's merge pairs fan out further inside the evaluator). Term ledgers
  // are synced to this stage's machine-speed factor up front; statuses,
  // clock advancement, and coefficient re-fits reduce in term order after
  // the barrier.
  Status Evaluate(StageState* s) {
    const auto& evaluators = query_.evaluators;
    const auto& term_ledgers = query_.term_ledgers;
    std::vector<double> term_prev_totals(evaluators.size(), 0.0);
    for (size_t t = 0; t < evaluators.size(); ++t) {
      term_ledgers[t]->SetStageFactor(ledger_.current_stage_factor());
      term_prev_totals[t] = term_ledgers[t]->GrandTotal();
    }
    {
      TraceSpan eval_span(obs_.tracer, "eval_terms", "engine");
      std::vector<Status> statuses(evaluators.size());
      std::vector<double> durs(evaluators.size(), 0.0);
      std::vector<std::function<void()>> tasks;
      tasks.reserve(evaluators.size());
      for (size_t t = 0; t < evaluators.size(); ++t) {
        tasks.push_back([ev = evaluators[t].get(), status = &statuses[t],
                         dur = &durs[t], blocks = &s->blocks, mode = mode_] {
          auto start = std::chrono::steady_clock::now();
          *status = ev->ExecuteStageWithMode(*blocks, mode);
          *dur = SecondsSince(start);
        });
      }
      auto section_start = std::chrono::steady_clock::now();
      RunTasks(pool_, &tasks, max_width_);
      s->report.span_seconds += SecondsSince(section_start);
      s->report.parallel_tasks += static_cast<int>(tasks.size());
      for (size_t t = 0; t < evaluators.size(); ++t) {
        TCQ_RETURN_NOT_OK(statuses[t]);
        s->report.work_seconds += durs[t];
      }
      // The term ledgers fold into the virtual clock inside this span so
      // its duration covers the stage's simulated evaluation cost.
      for (size_t t = 0; t < evaluators.size(); ++t) {
        double delta = term_ledgers[t]->GrandTotal() - term_prev_totals[t];
        if (!wall_ && delta > 0.0) virtual_clock_.Advance(delta);
        ObserveTermStage(*evaluators[t], &coefs_);
      }
    }
    // Score this stage's predictions against the realized per-node stage
    // selectivities and fold them into the history tables. Serial section,
    // node order — deterministic. Aborted stages still update: their
    // samples are real even though they never count.
    for (size_t t = 0; t < evaluators.size() && predictor_ != nullptr; ++t) {
      for (const StagedNode* node : evaluators[t]->NodesPreOrder()) {
        if (node->kind == ExprKind::kScan || node->stages.empty()) continue;
        const NodeStageRecord& rec = node->stages.back();
        if (rec.new_points <= 0.0) continue;
        double realized =
            static_cast<double>(rec.new_tuples) / rec.new_points;
        predictor_->Update(node_keys_[t].at(node->id),
                           node_structs_[t].at(node->id), realized);
        auto it = s->predictions[t].find(node->id);
        if (obs_.metering() && it != s->predictions[t].end()) {
          obs_.metrics->histogram(metric_names::kPredictorAbsError)
              ->Record(std::abs(it->second.selectivity - realized));
        }
      }
    }
    if (wall_) {
      // Re-fit the parallel-efficiency coefficient η from the realized
      // speedup of this stage's fan-out sections.
      coefs_.ObserveParallelism(s->report.work_seconds,
                                s->report.span_seconds);
    }
    // In simulation the clock advances only inside the stage, so the
    // ledger spends telescope: Σ ledger_spend_s over all reports equals
    // the query's elapsed_seconds (the acceptance identity).
    s->report.actual_seconds = clock_.Now() - s->start;
    s->report.ledger_spend_s = s->report.actual_seconds;
    s->report.within_quota = deadline_.Remaining(clock_) >= 0.0;
    strategy_->OnStageOutcome(s->report.predicted_seconds,
                              s->report.actual_seconds,
                              !s->report.within_quota);
    return Status::OK();
  }

  // Estimate: recompute the combined estimate.
  void Estimate(StageState* s) {
    CountEstimate combined =
        CombineTermEstimates(query_, obs_, combine_rule_);
    if (aggregate_.kind != AggregateSpec::Kind::kCount) {
      std::vector<CountEstimate> sum_estimates;
      for (const auto& ev : query_.evaluators) {
        sum_estimates.push_back(ClusterSumEstimate(
            ev->total_space_blocks(), ev->cum_space_blocks(),
            ev->cum_value_sum(), ev->cum_value_sq_sum(), ev->cum_points(),
            ev->total_points()));
      }
      CountEstimate sum_combined =
          CombineSignedEstimates(query_.signs, sum_estimates, combine_rule_);
      if (aggregate_.kind == AggregateSpec::Kind::kSum) {
        combined = sum_combined;
      } else {
        // AVG = SUM / COUNT, delta-method variance (covariance ignored).
        CountEstimate avg;
        avg.points = combined.points;
        avg.total_points = combined.total_points;
        if (combined.value != 0.0) {
          double ratio = sum_combined.value / combined.value;
          avg.value = ratio;
          avg.variance =
              (sum_combined.variance + ratio * ratio * combined.variance) /
              (combined.value * combined.value);
        }
        combined = avg;
      }
    }
    // Degraded-answer accounting (DESIGN.md §10): fault decisions are
    // content-agnostic, so the surviving blocks remain a uniform
    // without-replacement sample and the cluster estimator stays unbiased
    // over the reduced frame. The smaller effective sample is priced by
    // widening the variance by (1 + lost/read) over the counted stages
    // (including this one).
    const int64_t lost_blocks = lost_counted_ + s->report.blocks_lost;
    if (faults_on_ && lost_blocks > 0) {
      const int64_t read_blocks = result_.blocks_sampled +
                                  s->report.blocks_drawn -
                                  s->report.blocks_lost;
      s->fault_widen =
          1.0 + static_cast<double>(lost_blocks) /
                    static_cast<double>(std::max<int64_t>(1, read_blocks));
      combined.variance *= s->fault_widen;
    }
    s->combined = combined;
    s->report.estimate_after = combined.value;
    s->report.variance_after = combined.variance;
  }

  // Report: the stage report, streamed to the metrics, the trace and the
  // progress observer.
  void Report(StageState& s) {
    StageReport& report = s.report;
    report.quota_s = options_.quota_s;
    report.layout = options_.layout;
    report.cumulative_spend_s = deadline_.Elapsed(clock_);
    for (size_t t = 0; t < query_.evaluators.size(); ++t) {
      for (const StagedNode* node : query_.evaluators[t]->NodesPreOrder()) {
        auto it = s.sel_prev[t].find(node->id);
        if (it == s.sel_prev[t].end()) continue;
        OperatorSelectivity sel;
        sel.term = static_cast<int>(t);
        sel.node = node->id;
        sel.op = std::string(ExprKindName(node->kind));
        sel.selectivity = it->second;
        if (predictor_ != nullptr) {
          const SelPrediction& p = s.predictions[t].at(node->id);
          sel.component = std::string(SelComponentName(p.component));
          sel.confidence = p.confidence;
          sel.width_scale = p.width_scale;
        }
        report.selectivities.push_back(std::move(sel));
      }
    }
    ++result_.stages_run;
    result_.faults.transient_faults += s.report.transient_faults;
    result_.faults.retries += s.report.retries;
    result_.faults.blocks_lost += s.report.blocks_lost;
    result_.faults.stragglers += s.report.stragglers;
    result_.faults.fault_delay_s += s.report.fault_delay_s;
    if (obs_.metering()) {
      Metrics* m = obs_.metrics;
      m->counter(metric_names::kEngineStagesRun)->Increment();
      m->counter(metric_names::kEngineBlocksDrawn)->Add(s.report.blocks_drawn);
      if (faults_on_) {
        // Deterministic at a fixed fault seed: every increment happens in
        // this serial section, in relation-name order.
        m->counter(metric_names::kFaultTransient)
            ->Add(s.report.transient_faults);
        m->counter(metric_names::kFaultRetries)->Add(s.report.retries);
        m->counter(metric_names::kFaultBlocksLost)->Add(s.report.blocks_lost);
        m->counter(metric_names::kFaultStragglers)->Add(s.report.stragglers);
      }
      m->gauge(metric_names::kEngineSpendS)->Set(report.cumulative_spend_s);
      m->gauge(metric_names::kEngineTimeLeftS)
          ->Set(deadline_.Remaining(clock_));
      for (const OperatorSelectivity& sel : report.selectivities) {
        char name[64];
        std::snprintf(name, sizeof(name), "timectrl.sel.t%d.n%d", sel.term,
                      sel.node);
        m->gauge(name)->Set(sel.selectivity);
      }
    }
    if (obs_.tracing()) {
      obs_.tracer->Counter("ledger_spend_s", report.cumulative_spend_s);
      obs_.tracer->Counter("estimate", s.combined.value);
      obs_.tracer->Counter("blocks_drawn", static_cast<double>(
                                               result_.blocks_sampled +
                                               s.report.blocks_drawn));
    }
    result_.stage_reports.push_back(report);
    if (obs_.observer != nullptr) {
      obs_.observer->OnStage(result_.stage_reports.back());
    }
  }

  // Count: the stage counts toward the returned estimate unless a hard
  // deadline aborted it. Returns false once the loop should stop.
  bool Count(const StageState& s) {
    if (!s.report.within_quota) {
      result_.overspent = true;
      result_.overspend_seconds =
          deadline_.Elapsed(clock_) - options_.quota_s;
      if (options_.deadline_mode == DeadlineMode::kHard) {
        // The interrupted stage is aborted: its samples are wasted and the
        // previous stage's estimate stands. The wasted draws still hit the
        // disk (and the blocks_drawn metric) — account for them so
        // blocks_sampled + blocks_wasted reconciles with the per-stage
        // reports and the `engine.blocks_drawn` counter.
        result_.blocks_wasted += s.report.blocks_drawn;
        return false;
      }
    }
    // Lost blocks cost I/O but contribute nothing to the estimate — they
    // land in blocks_wasted, keeping the reconciliation identity
    // blocks_sampled + blocks_wasted == Σ stage blocks_drawn.
    result_.estimate = s.combined.value;
    result_.variance = s.combined.variance;
    ++result_.stages_counted;
    result_.blocks_sampled += s.report.blocks_drawn - s.report.blocks_lost;
    result_.blocks_wasted += s.report.blocks_lost;
    lost_counted_ += s.report.blocks_lost;
    result_.faults.variance_widening = s.fault_widen;
    counted_elapsed_ = deadline_.Elapsed(clock_);
    // Soft deadline: the finished stage counts, then we stop.
    if (!s.report.within_quota) return false;
    // In simulation the clock advances only by ledger charges, so a stage
    // that passed the within-quota check cannot have pushed the ledger
    // past the quota (the paper's hard-constraint promise).
    TCQ_CHECK_INVARIANT(wall_ || counted_elapsed_ <= options_.quota_s,
                        "ledger exceeded the time quota in a counted stage");
    if (ShouldStopForPrecision(options_.precision, s.combined,
                               previous_estimate_)) {
      result_.stopped_for_precision = true;
      return false;
    }
    previous_estimate_ = s.combined.value;
    return true;
  }

  QueryResult Finish() {
    CountEstimate final_estimate;
    final_estimate.value = result_.estimate;
    final_estimate.variance = result_.variance;
    result_.ci = NormalConfidenceInterval(final_estimate, options_.confidence);
    result_.elapsed_seconds = deadline_.Elapsed(clock_);
    // The true ratio, deliberately unclamped: under a soft deadline the
    // counted final stage may overrun the quota, and utilization > 1 is
    // exactly the overspend signal callers need to see. Hard-deadline runs
    // never exceed 1 (counted stages cannot pass the quota — see Count);
    // display paths clamp for presentation.
    result_.utilization = counted_elapsed_ / options_.quota_s;
    Metrics* m = obs_.metrics;
    if (faults_on_) {
      result_.degraded = result_.faults.blocks_lost > 0;
      for (auto& [name, counts] : rel_faults_) {
        result_.faults.per_relation.push_back(std::move(counts));
      }
      if (m != nullptr) {
        m->gauge(metric_names::kFaultDelayS)
            ->Set(result_.faults.fault_delay_s);
        m->gauge(metric_names::kFaultVarianceWidening)
            ->Set(result_.faults.variance_widening);
      }
    }
    if (cache_ != nullptr) {
      // Feed the cache for the next query: every operator node that
      // sampled points records its revised selectivity (exactly what the
      // next stage of *this* run would have planned with), and the fitted
      // cost coefficients are snapshotted under the whole-query signature.
      for (const auto& ev : query_.evaluators) {
        if (ev->num_stages() == 0) continue;
        std::map<int, double> revised =
            ReviseSelectivities(*ev, options_.selectivity);
        for (const StagedNode* node : ev->NodesPreOrder()) {
          if (node->kind == ExprKind::kScan || node->cum_points <= 0.0) {
            continue;
          }
          cache_->RecordPrior(CanonicalSignature(*node->expr),
                              revised.at(node->id));
        }
      }
      cache_->RecordCostSnapshot(CanonicalSignature(*expr_),
                                 coefs_.ExportSnapshot());
    }
    if (m != nullptr && cache_ != nullptr) {
      // This run's deltas against the session-cumulative cache counters,
      // plus the pool-size gauge. All deterministic at a fixed seed and
      // cache state: replay counts depend only on pool contents and the
      // plan, never on the worker count.
      const WarmStartStats& before = cache_stats_before_;
      WarmStartStats after = cache_->Stats();
      m->counter(metric_names::kCacheBlocksReplayed)
          ->Add(after.replayed_blocks - before.replayed_blocks);
      m->counter(metric_names::kCacheBlocksFresh)
          ->Add(after.fresh_blocks - before.fresh_blocks);
      m->counter(metric_names::kCachePriorHits)
          ->Add(after.prior_hits - before.prior_hits);
      m->counter(metric_names::kCachePriorMisses)
          ->Add(after.prior_misses - before.prior_misses);
      m->gauge(metric_names::kCachePoolBlocks)
          ->Set(static_cast<double>(after.pooled_blocks));
      m->gauge(metric_names::kCachePriorEntries)
          ->Set(static_cast<double>(after.prior_entries));
    }
    if (m != nullptr) ExportRunMetrics(m);
    if (obs_.observer != nullptr) {
      obs_.observer->OnQueryEnd(result_.estimate, result_.variance,
                                result_.overspent);
    }
    return std::move(result_);
  }

  void ExportRunMetrics(Metrics* m) {
    if (predictor_ != nullptr) {
      m->gauge(metric_names::kPredictorEntries)
          ->Set(static_cast<double>(predictor_->stats().chooser_entries));
    }
    m->gauge(metric_names::kEngineSpendS)->Set(result_.elapsed_seconds);
    m->gauge(metric_names::kEngineUtilization)->Set(result_.utilization);
    m->gauge(metric_names::kEngineOverspendS)->Set(result_.overspend_seconds);
    // The shared ledger holds global charges (stage overhead, block reads);
    // the per-term ledgers hold operator work. Export both, terms folded
    // in term order (serial section — gauges stay deterministic).
    ledger_.ExportTo(m, "ledger");
    for (size_t c = 0; c < static_cast<size_t>(CostCategory::kNumCategories);
         ++c) {
      auto cat = static_cast<CostCategory>(c);
      double total = 0.0;
      double ops = 0.0;
      for (const auto& term_ledger : query_.term_ledgers) {
        total += term_ledger->Total(cat);
        ops += static_cast<double>(term_ledger->Count(cat));
      }
      const std::string base =
          std::string("ledger.terms.") + std::string(CostCategoryName(cat));
      m->gauge(base + "_s")->Set(total);
      m->gauge(base + "_ops")->Set(ops);
    }
    if (pool_ != nullptr) {
      // Scheduling-dependent: exported as gauges, never counters, so the
      // deterministic metric sections stay bit-identical across widths.
      m->gauge(metric_names::kPoolBatches)
          ->Set(static_cast<double>(pool_->batches_run()));
      m->gauge(metric_names::kPoolTasksByWorkers)
          ->Set(static_cast<double>(pool_->tasks_run_by_workers()));
      m->gauge(metric_names::kPoolTasksByCallers)
          ->Set(static_cast<double>(pool_->tasks_run_by_callers()));
    }
  }

  const ExprPtr& expr_;
  const AggregateSpec& aggregate_;
  const ExecutorOptions& options_;
  const ObsHandle& obs_ = options_.obs;
  const bool wall_ = options_.use_wall_clock;
  VirtualClock virtual_clock_;
  WallClock wall_clock_;
  const Clock& clock_ = wall_ ? static_cast<const Clock&>(wall_clock_)
                              : static_cast<const Clock&>(virtual_clock_);
  CostLedger ledger_{wall_ ? nullptr : &virtual_clock_};
  Rng rng_{options_.seed};
  Rng noise_rng_ = rng_.Fork();
  // Fault injection (DESIGN.md §10): a stateless oracle whose decisions
  // are pure in (fault_seed, relation, block, attempt) — the same fault
  // sequence replays at any thread count. With `faults_on_` false every
  // fault branch is dead and execution is bit-identical to a fault-free
  // build.
  const bool faults_on_ = options_.faults.enabled;
  const FaultInjector injector_{options_.faults};
  // Execution pool: `threads` counts the calling thread, so threads = N
  // creates N - 1 workers. An external pool (tcq::Session) may be wider
  // than this query asks for (high-water reuse): `threads` > 1 then caps
  // the participating threads per batch, while `threads` = 1 keeps the
  // meaning "use the pool's full width".
  std::unique_ptr<ThreadPool> owned_pool_ =
      options_.pool == nullptr && options_.threads > 1
          ? std::make_unique<ThreadPool>(options_.threads - 1)
          : nullptr;
  ThreadPool* const pool_ =
      options_.pool != nullptr ? options_.pool : owned_pool_.get();
  const int max_width_ = options_.pool != nullptr && options_.threads > 1
                             ? std::min(options_.threads, pool_->width())
                             : 0;
  const int width_ =
      pool_ == nullptr ? 1 : (max_width_ > 0 ? max_width_ : pool_->width());
  const CostModel physical_ = PlanningPhysical(options_, width_);
  AdaptiveCostModel coefs_ = PlanningCostModel(options_, physical_);
  WarmStartCache* const cache_ = options_.warm_cache;
  WarmStartStats cache_stats_before_;
  std::unique_ptr<TimeControlStrategy> strategy_ =
      MakeStrategy(options_.strategy);
  const CombineVariance combine_rule_ = options_.conservative_term_variance
                                            ? CombineVariance::kConservative
                                            : CombineVariance::kIndependent;
  PreparedQuery query_;
  std::map<std::string, std::unique_ptr<BlockSampler>> samplers_;
  std::vector<std::map<int, double>> term_priors_;
  SelPredictor* predictor_ = nullptr;
  std::unique_ptr<SelPredictor> query_predictor_;
  // Per-node signature and structural keys, computed once per run.
  std::vector<std::map<int, CacheKey>> node_keys_;
  std::vector<std::map<int, std::string>> node_structs_;
  Deadline deadline_{0.0, 0.0};
  QueryResult result_;
  double counted_elapsed_ = 0.0;
  double previous_estimate_ = std::nan("");
  // Losses inside *counted* stages feed the variance widening; the
  // per-relation tallies feed the serving layer's circuit breaker.
  int64_t lost_counted_ = 0;
  std::map<std::string, RelationFaultCounts> rel_faults_;
  // Current fulfillment mode; may downgrade to partial once (§5.B).
  Fulfillment mode_ = options_.fulfillment;
};

}  // namespace

Result<PreparedQuery> PrepareQuery(const ExprPtr& expr,
                                   const AggregateSpec& aggregate,
                                   const Catalog& catalog,
                                   Fulfillment fulfillment,
                                   const CostModel& physical,
                                   CostLedger* shared_ledger) {
  PreparedQuery query;
  TCQ_ASSIGN_OR_RETURN(Schema schema, InferSchema(expr, catalog));
  const bool count = aggregate.kind == AggregateSpec::Kind::kCount;
  int value_col = -1;
  if (!count) {
    TCQ_ASSIGN_OR_RETURN(value_col, schema.IndexOf(aggregate.column));
  }
  TCQ_ASSIGN_OR_RETURN(std::vector<SignedTerm> terms, ExpandCount(expr));
  for (const SignedTerm& term : terms) {
    // A bare scan's SUM/AVG would need one pass over the relation; those
    // terms stay sampled for simplicity (rare in practice).
    if (count && term.expr->kind == ExprKind::kScan) {
      TCQ_ASSIGN_OR_RETURN(RelationPtr rel,
                           catalog.Find(term.expr->relation));
      CountEstimate constant;
      constant.value = static_cast<double>(rel->NumTuples());
      constant.hits = rel->NumTuples();
      constant.total_points = constant.value;
      query.constant_estimates.push_back(constant);
      query.constant_signs.push_back(term.sign);
      continue;
    }
    CostLedger* ledger = shared_ledger;
    if (ledger == nullptr) {
      query.term_ledgers.push_back(std::make_unique<CostLedger>());
      ledger = query.term_ledgers.back().get();
    }
    TCQ_ASSIGN_OR_RETURN(
        auto ev, StagedTermEvaluator::Create(term.expr, catalog, fulfillment,
                                             ledger, physical));
    if (value_col >= 0) {
      TCQ_RETURN_NOT_OK(ev->TrackValueColumn(value_col));
    }
    std::vector<std::string> scans;
    CollectScans(term.expr, &scans);
    for (const std::string& name : scans) {
      if (query.relations.count(name) != 0) continue;
      TCQ_ASSIGN_OR_RETURN(RelationPtr rel, catalog.Find(name));
      query.relations.emplace(name, std::move(rel));
    }
    query.evaluators.push_back(std::move(ev));
    query.signs.push_back(term.sign);
  }
  return query;
}

CountEstimate CombineTermEstimates(const PreparedQuery& query,
                                   const ObsHandle& obs,
                                   CombineVariance rule) {
  std::vector<CountEstimate> estimates;
  estimates.reserve(query.evaluators.size() +
                    query.constant_estimates.size());
  for (const auto& ev : query.evaluators) {
    estimates.push_back(EstimateTerm(*ev));
  }
  estimates.insert(estimates.end(), query.constant_estimates.begin(),
                   query.constant_estimates.end());
  std::vector<int> signs = query.signs;
  signs.insert(signs.end(), query.constant_signs.begin(),
               query.constant_signs.end());
  return CombineSignedEstimates(signs, estimates, obs, rule);
}

Status ExecutorOptions::Validate() const {
  // Explicit finiteness checks everywhere: NaN compares false against
  // everything, so a plain `x < 0` guard lets NaN through (and +inf
  // passes any one-sided bound) — each would corrupt the deadline
  // arithmetic much later with no typed error.
  if (!std::isfinite(quota_s) || !(quota_s > 0.0)) {
    return Status::InvalidArgument(
        "time quota must be finite and positive; got " +
        std::to_string(quota_s));
  }
  if (!std::isfinite(epsilon_s) || !(epsilon_s > 0.0 && epsilon_s < 1.0)) {
    return Status::InvalidArgument(
        "epsilon_s must lie in (0, 1); got " + std::to_string(epsilon_s));
  }
  if (!std::isfinite(confidence) ||
      !(confidence > 0.0 && confidence < 1.0)) {
    return Status::InvalidArgument(
        "confidence must lie in (0, 1); got " + std::to_string(confidence));
  }
  if (threads < 1) {
    return Status::InvalidArgument(
        "threads must be >= 1 (it counts the calling thread); got " +
        std::to_string(threads));
  }
  if (max_stages < 1) {
    return Status::InvalidArgument("max_stages must be >= 1; got " +
                                   std::to_string(max_stages));
  }
  if (!std::isfinite(serve_deadline_s) || serve_deadline_s < 0.0) {
    return Status::InvalidArgument(
        "serve_deadline_s must be finite and >= 0 (0 means quota_s); got " +
        std::to_string(serve_deadline_s));
  }
  // Precision-stop targets: NaN compares false against the > 0 "enabled"
  // probes, so a NaN target would silently disable the stop the caller
  // asked for instead of erroring.
  if (!std::isfinite(precision.rel_halfwidth) ||
      precision.rel_halfwidth < 0.0 ||
      !std::isfinite(precision.abs_halfwidth) ||
      precision.abs_halfwidth < 0.0 ||
      !std::isfinite(precision.min_improvement) ||
      precision.min_improvement < 0.0) {
    return Status::InvalidArgument(
        "precision-stop targets must be finite and >= 0 (0 disables)");
  }
  if (precision.enabled() &&
      (!std::isfinite(precision.confidence) ||
       !(precision.confidence > 0.0 && precision.confidence < 1.0))) {
    return Status::InvalidArgument(
        "precision.confidence must lie in (0, 1); got " +
        std::to_string(precision.confidence));
  }
  TCQ_RETURN_NOT_OK(faults.Validate());
  TCQ_RETURN_NOT_OK(sel_predictor.Validate());
  return Status::OK();
}

Result<QueryResult> RunTimeConstrainedCount(const ExprPtr& expr,
                                            const Catalog& catalog,
                                            const ExecutorOptions& options) {
  return RunTimeConstrainedAggregate(expr, AggregateSpec::Count(), catalog,
                                     options);
}

Result<QueryResult> RunTimeConstrainedAggregate(
    const ExprPtr& expr, const AggregateSpec& aggregate,
    const Catalog& catalog, const ExecutorOptions& options) {
  TCQ_RETURN_NOT_OK(options.Validate());
  TimeConstrainedRun run(expr, aggregate, options);
  return run.Execute(catalog);
}

std::string ExplainResult::ToString() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "time-constrained aggregate plan (strategy %s, quota %.3f s, "
                "%s layout)\n",
                strategy.c_str(), quota_s,
                std::string(LayoutName(layout)).c_str());
  out += line;
  std::snprintf(
      line, sizeof(line),
      "terms: %d sampled, %d answered from the catalog; %lld blocks total\n",
      num_sampled_terms, num_constant_terms,
      static_cast<long long>(total_blocks));
  out += line;
  if (stages.empty()) {
    out += "no sampling stage fits the quota\n";
    return out;
  }
  out += "stage  time_left_s  fraction  d_beta  predicted_s   blocks\n";
  for (const StagePrediction& s : stages) {
    std::snprintf(line, sizeof(line),
                  "%5d  %11.4f  %8.5f  %6.2f  %11.4f  %7lld\n", s.index,
                  s.time_left_before, s.planned_fraction, s.d_beta_used,
                  s.predicted_seconds, static_cast<long long>(s.blocks_planned));
    out += line;
  }
  out += exhausts_samples
             ? "plan exhausts every relation's blocks within the quota\n"
             : "plan stops when no further stage fits the remaining time\n";
  if (predictor_active) {
    out += "predictor (stage-0 peek): term node op         component  "
           "selectivity  conf  width\n";
    for (const PredictorNodeView& n : predictor_nodes) {
      std::snprintf(line, sizeof(line),
                    "predictor:                %4d %4d %-10s %-9s  %11.6f  "
                    "%4.2f  %5.2f\n",
                    n.term, n.node, n.op.c_str(), n.component.c_str(),
                    n.selectivity, n.confidence, n.width_scale);
      out += line;
    }
  }
  return out;
}

Result<ExplainResult> ExplainTimeConstrainedAggregate(
    const ExprPtr& expr, const AggregateSpec& aggregate,
    const Catalog& catalog, const ExecutorOptions& options) {
  TCQ_RETURN_NOT_OK(options.Validate());
  ExplainResult out;
  out.quota_s = options.quota_s;
  out.layout = options.layout;
  std::unique_ptr<TimeControlStrategy> strategy =
      MakeStrategy(options.strategy);
  out.strategy = std::string(strategy->name());

  // Stage-0 evaluators: the planner's view before any sample is drawn.
  // The cost model plans for the serial machine exactly like a simulated
  // run; the evaluators' private ledgers are never charged.
  const CostModel physical = PlanningPhysical(options, /*width=*/1);
  TCQ_ASSIGN_OR_RETURN(
      PreparedQuery query,
      PrepareQuery(expr, aggregate, catalog, options.fulfillment, physical,
                   /*shared_ledger=*/nullptr));
  out.num_constant_terms = static_cast<int>(query.constant_estimates.size());
  out.num_sampled_terms = static_cast<int>(query.evaluators.size());
  if (query.evaluators.empty()) return out;
  const AdaptiveCostModel coefs = PlanningCostModel(options, physical);

  std::vector<std::map<int, double>> sel_prev;
  sel_prev.reserve(query.evaluators.size());
  for (const auto& ev : query.evaluators) {
    sel_prev.push_back(ReviseSelectivities(*ev, options.selectivity));
  }
  // Hybrid-predictor peek (read-only; no counters move): what the chooser
  // would pick at stage 0. The peeked selectivities and widths also drive
  // the planning below, so EXPLAIN shows the stages a predictor-enabled
  // run would actually plan. With a warm cache attached the session
  // predictor and the prior cache are consulted; cold, a scratch
  // predictor yields the default component.
  out.predictor_active =
      options.sel_predictor.enabled && !options.selectivity.freeze_initial;
  std::vector<std::map<int, double>> widths(query.evaluators.size());
  if (out.predictor_active) {
    SelPredictor* session_predictor =
        options.warm_cache != nullptr ? options.warm_cache->predictor()
                                      : nullptr;
    const SelPredictor scratch(options.sel_predictor);
    const SelPredictor& pred =
        session_predictor != nullptr ? *session_predictor : scratch;
    const CacheKey query_sig = CanonicalSignature(*expr);
    for (size_t t = 0; t < query.evaluators.size(); ++t) {
      for (const StagedNode* node : query.evaluators[t]->NodesPreOrder()) {
        if (node->kind == ExprKind::kScan) continue;
        CacheKey node_key = CanonicalSignature(*node->expr);
        std::optional<double> prior;
        if (options.warm_cache != nullptr) {
          std::optional<double> raw = options.warm_cache->PeekPrior(node_key);
          if (raw.has_value()) {
            prior = SanitizedStagePrior(*raw, node->total_points,
                                        options.selectivity.zero_hit_beta);
          }
        }
        double fallback =
            InitialSelectivity(*node, options.selectivity, nullptr);
        SelPrediction p = pred.Peek(query_sig, node_key,
                                    StructuralSignature(*node->expr),
                                    std::nullopt, prior, fallback);
        sel_prev[t][node->id] = p.selectivity;
        widths[t][node->id] = p.width_scale;
        PredictorNodeView view;
        view.term = static_cast<int>(t);
        view.node = node->id;
        view.op = std::string(ExprKindName(node->kind));
        view.component = std::string(SelComponentName(p.component));
        view.selectivity = p.selectivity;
        view.confidence = p.confidence;
        view.width_scale = p.width_scale;
        out.predictor_nodes.push_back(std::move(view));
      }
    }
  }

  // The run's stage planner over hypothetical time/block state: each
  // chosen stage charges its predicted cost to the budget and decrements
  // the relations' remaining blocks. Selectivity revisions and
  // coefficient re-fits need samples, so the stage-0 view persists (the
  // EXPLAIN vs. EXPLAIN ANALYZE gap, documented in the header).
  PlannerSnapshot snapshot;
  snapshot.options = &options;
  snapshot.evaluators = &query.evaluators;
  for (const auto& [name, rel] : query.relations) {
    RelationBlocks blocks;
    blocks.total = rel->NumBlocks();
    blocks.remaining = blocks.total;
    snapshot.relations.push_back(blocks);
    out.total_blocks += blocks.total;
  }
  snapshot.sel_prev = &sel_prev;
  snapshot.widths = out.predictor_active ? &widths : nullptr;
  // Planned under the configured fulfillment mode only: EXPLAIN does not
  // predict §5.B final partial stages (final_partial_stages stays false).
  snapshot.mode = options.fulfillment;
  snapshot.time_left = options.quota_s;
  snapshot.coefs = &coefs;
  for (int stage = 0; stage < options.max_stages; ++stage) {
    if (snapshot.time_left <= 0.0) break;
    if (FrameOf(snapshot.relations).f_max <= 0.0) break;
    snapshot.stage = stage;
    TCQ_ASSIGN_OR_RETURN(PlannedStage planned, PlanStage(snapshot, *strategy));
    if (planned.plan.fraction <= 0.0) break;
    StagePrediction prediction;
    prediction.index = stage;
    prediction.time_left_before = snapshot.time_left;
    prediction.planned_fraction = planned.plan.fraction;
    prediction.d_beta_used = planned.plan.d_beta_used;
    prediction.predicted_seconds = planned.plan.predicted_seconds;
    for (RelationBlocks& r : snapshot.relations) {
      const int64_t d_new = BlocksAtFraction(r, planned.plan.fraction);
      r.remaining -= d_new;
      prediction.blocks_planned += d_new;
    }
    out.stages.push_back(prediction);
    snapshot.time_left -= planned.plan.predicted_seconds;
    if (prediction.blocks_planned <= 0) break;  // cannot progress further
  }
  out.exhausts_samples = FrameOf(snapshot.relations).f_max <= 0.0;
  return out;
}

}  // namespace tcq
