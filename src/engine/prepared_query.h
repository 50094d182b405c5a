#ifndef TCQ_ENGINE_PREPARED_QUERY_H_
#define TCQ_ENGINE_PREPARED_QUERY_H_

// Internal to src/engine: the query-preparation and estimate steps that
// the time-constrained run, EXPLAIN and the error-constrained loop share.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "estimator/combined.h"

namespace tcq {

/// A query expanded by inclusion–exclusion. Bare-scan terms of a COUNT
/// are answered exactly from the catalog (priced at zero and never
/// sampled: COUNT(r1 ∪ r2) spends its whole quota on r1 ∩ r2); every
/// other term gets a staged evaluator. SUM/AVG sample every term.
struct PreparedQuery {
  std::vector<CountEstimate> constant_estimates;
  std::vector<int> constant_signs;
  /// The evaluators' private clockless ledgers (empty when they all
  /// charge one shared ledger); declared first so they outlive them.
  std::vector<std::unique_ptr<CostLedger>> term_ledgers;
  std::vector<std::unique_ptr<StagedTermEvaluator>> evaluators;
  std::vector<int> signs;
  /// Every relation a sampled term scans, in name order.
  std::map<std::string, RelationPtr> relations;

  /// True when the expansion produced no terms at all.
  bool empty() const {
    return evaluators.empty() && constant_estimates.empty();
  }
};

/// InferSchema, the value column, ExpandCount, the constant/sampled split
/// and the evaluators. With `shared_ledger` null each evaluator charges a
/// private ledger, so terms can run on separate workers.
[[nodiscard]] Result<PreparedQuery> PrepareQuery(
    const ExprPtr& expr, const AggregateSpec& aggregate,
    const Catalog& catalog, Fulfillment fulfillment,
    const CostModel& physical, CostLedger* shared_ledger);

/// The combined COUNT estimate: every sampled term's cluster estimate (or
/// guarded Goodman estimate for a projection root) and the constant
/// terms, combined by sign under `rule` and published to `obs`.
CountEstimate CombineTermEstimates(const PreparedQuery& query,
                                   const ObsHandle& obs,
                                   CombineVariance rule);

}  // namespace tcq

#endif  // TCQ_ENGINE_PREPARED_QUERY_H_
