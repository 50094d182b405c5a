#ifndef TCQ_PERFBENCH_WORKLOADS_H_
#define TCQ_PERFBENCH_WORKLOADS_H_

// The benchmark's three workloads. Each builds its relations from the
// workload seed with the library's generators, registers them in
// Sessions, and defines the closed loop's query sequence: query i runs
// family i mod F at quota (i div F) mod Q, with a sampling seed derived
// from the workload seed and i. README.md says why each workload exists.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/tcq.h"

namespace perfbench {

// One repeated query of a workload.
struct QueryFamily {
  std::string name;
  tcq::Session* session = nullptr;
  tcq::ExprPtr query;
  int64_t exact_count = 0;  // from the generator
  int threads = 1;
  // Select families: the query is COUNT(SELECT[key < select_bound](r)),
  // and `clustered` marks the block-clustered relation.
  int64_t select_bound = 0;
  bool clustered = false;
};

struct Workload {
  std::string name;
  std::vector<std::unique_ptr<tcq::Session>> sessions;
  std::vector<QueryFamily> families;
  std::vector<double> quotas_s;
  bool warm = false;
  // Warm workloads only: timed rounds per cache epoch. Each epoch starts
  // from a cleared cache refilled by one untimed round, so a run averages
  // over many independent pool contents instead of one.
  int64_t epoch_rounds = 0;
  int64_t stored_tuples = 0;
  int tuple_bytes = 0;
  uint64_t seed = 0;

  const QueryFamily& FamilyOf(int64_t i) const;
  double QuotaOf(int64_t i) const;
  uint64_t SamplingSeedOf(int64_t i) const;
  // Queries per full cycle of families x quotas.
  int64_t RoundLength() const {
    return static_cast<int64_t>(families.size() * quotas_s.size());
  }
  // Query i as the benchmark runs it: wall clock, ModernInMemory cost
  // model, hard deadline, default layout and strategy.
  tcq::QueryBuilder MakeQuery(int64_t i) const;
};

bool IsWorkloadName(const std::string& name);

// Generates the named workload's relations and registers them.
[[nodiscard]] tcq::Result<std::unique_ptr<Workload>> MakeWorkload(
    const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // TCQ_PERFBENCH_WORKLOADS_H_
