// Wall-clock whole-query benchmark program: runs one workload in this
// process and prints its metrics. See README.md for the workloads, the
// metric definitions and how the layer metrics relate to the end-to-end
// ones.
//
//   tcq_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans <path>]
//
// --trace 0 times whole queries with tracing off and prints the
// end-to-end metrics; --trace 1 prints the per-layer metrics from an
// interleaved untraced/traced run plus the layer replay. The last line of
// standard output is the result object. Any failed correctness check
// exits with code 1 before a result is printed.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/tcq.h"
#include "exec/exact.h"
#include "obs/metric_names.h"
#include "replay.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using SteadyClock = std::chrono::steady_clock;

// Setups per run; setup_s is their median.
constexpr int kSetupRepeats = 9;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && IsWorkloadName(args->workload);
}

double Since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

// Linear-interpolation quantile (p in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Resident-set figure from /proc/self/status ("VmRSS", "VmHWM") in MB.
double ProcStatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

// The checks every answered result must pass; a violation ends the run.
void CheckResult(const QueryFamily& family, int64_t index,
                 const tcq::QueryResult& r) {
  int64_t drawn = 0;
  for (const tcq::StageReport& s : r.stage_reports) drawn += s.blocks_drawn;
  const std::string where =
      family.name + " query " + std::to_string(index) + ": ";
  if (r.blocks_sampled + r.blocks_wasted != drawn) {
    Fail(where + "blocks_sampled + blocks_wasted != sum of blocks_drawn");
  }
  if (r.stages_counted == 0) return;
  if (!std::isfinite(r.estimate)) Fail(where + "estimate is not finite");
  if (!(r.variance >= 0.0)) Fail(where + "variance is negative");
  if (!(r.ci.lo <= r.estimate && r.estimate <= r.ci.hi)) {
    Fail(where + "estimate lies outside its confidence interval");
  }
}

// One query as the caller sees it.
struct QueryRecord {
  int64_t index = 0;
  double quota_s = 0.0;
  double latency_s = 0.0;
  bool ok = false;
  tcq::QueryResult result;
};

QueryRecord RunQuery(const Workload& w, int64_t index, tcq::Tracer* tracer,
                     tcq::Metrics* metrics) {
  QueryRecord rec;
  rec.index = index;
  rec.quota_s = w.QuotaOf(index);
  tcq::QueryBuilder query = w.MakeQuery(index);
  if (tracer != nullptr) query.WithTracer(tracer).WithMetrics(metrics);
  const auto start = SteadyClock::now();
  tcq::Result<tcq::QueryResult> result = query.Run();
  rec.latency_s = Since(start);
  rec.ok = result.ok();
  if (rec.ok) {
    rec.result = std::move(*result);
    CheckResult(w.FamilyOf(index), index, rec.result);
  } else {
    std::fprintf(stderr, "perfbench: query %lld failed: %s\n",
                 static_cast<long long>(index),
                 result.status().ToString().c_str());
  }
  return rec;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Prints the metrics readably, then the result object as the last line.
void PrintResult(const std::vector<Metric>& metrics, int64_t attempted,
                 int64_t failed) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// Caller-side metrics of a set of whole queries.
struct EndToEnd {
  std::vector<double> ratios;       // caller latency / quota
  std::vector<double> halfwidths;   // over answered queries
  std::vector<double> block_rates;  // blocks_sampled / caller latency
  int64_t attempted = 0, failed = 0, misses = 0, answered = 0, covered = 0;
  // Per (family, quota) breakdown, printed for diagnosis.
  struct Group {
    int64_t attempted = 0, answered = 0, misses = 0;
    std::vector<double> ratios, halfwidths;
  };
  std::map<std::pair<std::string, double>, Group> groups;

  void Add(const Workload& w, const QueryRecord& q) {
    const QueryFamily& family = w.FamilyOf(q.index);
    Group& g = groups[{family.name, q.quota_s}];
    const double ratio = q.latency_s / q.quota_s;
    const bool miss = !q.ok || q.latency_s > q.quota_s;
    ++attempted;
    ++g.attempted;
    ratios.push_back(ratio);
    g.ratios.push_back(ratio);
    misses += miss ? 1 : 0;
    g.misses += miss ? 1 : 0;
    if (!q.ok) {
      ++failed;
      return;
    }
    const tcq::QueryResult& r = q.result;
    block_rates.push_back(static_cast<double>(r.blocks_sampled) / q.latency_s);
    if (r.stages_counted == 0) return;
    const auto exact = static_cast<double>(family.exact_count);
    if (r.ci.lo <= exact && exact <= r.ci.hi) ++covered;
    ++answered;
    ++g.answered;
    halfwidths.push_back(r.ci.HalfWidth() / exact);
    g.halfwidths.push_back(r.ci.HalfWidth() / exact);
  }

  void PrintGroups() const {
    for (const auto& [key, g] : groups) {
      const auto n = static_cast<double>(g.attempted);
      std::printf(
          "# group %s quota_ms=%g queries=%lld answered_pct=%.1f "
          "deadline_miss_pct=%.1f quota_ratio_p50=%.3f "
          "ci_halfwidth_rel_p50=%.4f\n",
          key.first.c_str(), key.second * 1e3,
          static_cast<long long>(g.attempted),
          100.0 * static_cast<double>(g.answered) / n,
          100.0 * static_cast<double>(g.misses) / n, Quantile(g.ratios, 0.5),
          Quantile(g.halfwidths, 0.5));
    }
  }
};

// Per-layer figures that come from the engine's own reports, spans and
// counters.
struct EngineLayers {
  std::vector<double> unbudgeted_ms, stage_ratio, stage0_ratio, stages;
  int64_t sampled = 0, wasted = 0;
  double work_s = 0.0, span_s = 0.0;

  void Add(const QueryRecord& q) {
    if (!q.ok) return;
    const tcq::QueryResult& r = q.result;
    unbudgeted_ms.push_back((q.latency_s - r.elapsed_seconds) * 1e3);
    stages.push_back(r.stages_run);
    sampled += r.blocks_sampled;
    wasted += r.blocks_wasted;
    for (const tcq::StageReport& s : r.stage_reports) {
      if (s.predicted_seconds > 0.0) {
        const double ratio = s.actual_seconds / s.predicted_seconds;
        stage_ratio.push_back(ratio);
        if (s.index == 0) stage0_ratio.push_back(ratio);
      }
      work_s += s.work_seconds;
      span_s += s.span_seconds;
    }
  }
};

// Span-derived figures of the traced queries.
struct TracedLayers {
  int64_t queries = 0, stages = 0, blocks = 0;
  int64_t ssd_probes = 0, replayed = 0, fresh = 0;
  double plan_us = 0.0, draw_self_us = 0.0, eval_us = 0.0;
  double glue_us = 0.0, caller_us = 0.0;
  double traced_s = 0.0, untraced_s = 0.0;
};

// Hands out the closed loop's query indices. Every workload starts with
// one untimed round: warm_repeat fills its sample pools, the others start
// their worker pools and touch their relations once. On a warm workload
// each later epoch of `epoch_rounds` timed rounds starts by clearing the
// cache and refilling it with another untimed round.
class QueryStream {
 public:
  explicit QueryStream(const Workload& w) : w_(w) { UntimedRound(); }

  // The next timed query index; adds refill time to `untimed_s`.
  int64_t Next(double* untimed_s) {
    const int64_t epoch = w_.epoch_rounds * w_.RoundLength();
    if (epoch > 0 && timed_ > 0 && timed_ % epoch == 0) {
      const auto start = SteadyClock::now();
      for (const auto& session : w_.sessions) session->ClearCache();
      UntimedRound();
      *untimed_s += Since(start);
    }
    ++timed_;
    return next_++;
  }

 private:
  void UntimedRound() {
    for (int64_t end = next_ + w_.RoundLength(); next_ < end; ++next_) {
      RunQuery(w_, next_, nullptr, nullptr);
    }
  }

  const Workload& w_;
  int64_t next_ = 0;
  int64_t timed_ = 0;
};

std::unique_ptr<Workload> Setup(const Args& args, std::vector<double>* times) {
  std::unique_ptr<Workload> w;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    w.reset();  // free the previous copy before timing the next
    const auto start = SteadyClock::now();
    tcq::Result<std::unique_ptr<Workload>> made =
        MakeWorkload(args.workload, args.seed);
    times->push_back(Since(start));
    if (!made.ok()) Fail("setup: " + made.status().ToString());
    w = std::move(*made);
  }
  return w;
}

// Cross-checks each family's generator count with the exact evaluator.
void CheckExactCounts(const Workload& w) {
  for (const QueryFamily& f : w.families) {
    tcq::Result<int64_t> exact =
        tcq::ExactCount(f.query, f.session->catalog());
    if (!exact.ok()) Fail("ExactCount: " + exact.status().ToString());
    if (*exact != f.exact_count) {
      Fail(f.name + ": generator count " + std::to_string(f.exact_count) +
           " != ExactCount " + std::to_string(*exact));
    }
  }
}

std::vector<Metric> EndToEndMetrics(const EndToEnd& e, double loop_s,
                                    double setup_s) {
  const auto pct = [](int64_t n, int64_t d) {
    return d > 0 ? 100.0 * static_cast<double>(n) / static_cast<double>(d)
                 : 0.0;
  };
  return {
      {"setup_s", setup_s, "s"},
      {"quota_ratio_p50", Quantile(e.ratios, 0.50), "ratio"},
      {"quota_ratio_p95", Quantile(e.ratios, 0.95), "ratio"},
      {"deadline_miss_pct", pct(e.misses, e.attempted), "%"},
      {"answered_pct", pct(e.answered, e.attempted), "%"},
      {"ci_coverage_pct", pct(e.covered, e.answered), "%"},
      {"ci_halfwidth_rel_p50", Quantile(e.halfwidths, 0.50), "ratio"},
      {"blocks_per_s", Quantile(e.block_rates, 0.50), "blocks/s"},
      {"queries_per_s", Ratio(static_cast<double>(e.attempted), loop_s),
       "q/s"},
      {"peak_rss_mb", ProcStatusMb("VmHWM"), "MB"},
  };
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: tcq_perfbench --workload "
                 "select_large|join_sortmerge|warm_repeat --seed N "
                 "--seconds S --trace 0|1 [--spans PATH]\n");
    return 2;
  }
  std::vector<double> setup_times;
  std::unique_ptr<Workload> w = Setup(args, &setup_times);
  const double rss_after_setup_mb = ProcStatusMb("VmRSS");
  CheckExactCounts(*w);
  std::printf(
      "# perfbench workload=%s seed=%llu nproc=%ld build=%s trace=%d "
      "seconds=%g\n",
      w->name.c_str(), static_cast<unsigned long long>(args.seed),
      sysconf(_SC_NPROCESSORS_ONLN), TCQ_PERFBENCH_BUILD_TYPE,
      args.trace ? 1 : 0, args.seconds);
  std::printf("# setup_s");
  for (double t : setup_times) std::printf(" %.4f", t);
  std::printf("\n");


  QueryStream stream(*w);
  double untimed_s = 0.0;
  if (!args.trace) {
    EndToEnd e;
    const auto loop_start = SteadyClock::now();
    while (Since(loop_start) - untimed_s < args.seconds) {
      e.Add(*w, RunQuery(*w, stream.Next(&untimed_s), nullptr, nullptr));
    }
    const double loop_s = Since(loop_start) - untimed_s;
    std::printf("# queries=%lld answered=%lld errors=%lld error_pct=%.3f\n",
                static_cast<long long>(e.attempted),
                static_cast<long long>(e.answered),
                static_cast<long long>(e.failed),
                100.0 * static_cast<double>(e.failed) /
                    static_cast<double>(std::max<int64_t>(1, e.attempted)));
    e.PrintGroups();
    PrintResult(EndToEndMetrics(e, loop_s, Quantile(setup_times, 0.5)),
                e.attempted, e.failed);
    return 0;
  }

  // Traced run: each query index runs untraced, then traced, then through
  // the layer replay. Cold workloads check the replay's fidelity.
  const bool check_fidelity = !w->warm;
  std::unique_ptr<tcq::ThreadPool> replay_pool;
  for (const QueryFamily& f : w->families) {
    if (f.threads > 1 && replay_pool == nullptr) {
      replay_pool = std::make_unique<tcq::ThreadPool>(f.threads - 1);
    }
  }
  SpanLog log;
  EngineLayers engine;
  TracedLayers traced;
  ReplayStats replay;
  int64_t attempted = 0, failed = 0;
  const auto loop_start = SteadyClock::now();
  while (Since(loop_start) - untimed_s < args.seconds) {
    const int64_t index = stream.Next(&untimed_s);
    QueryRecord plain = RunQuery(*w, index, nullptr, nullptr);
    engine.Add(plain);

    tcq::Tracer tracer;
    tcq::Metrics metrics;
    const size_t first_span = log.size();
    const double offset_us = log.NowUs() - tracer.NowUs();
    const int root = log.Begin("api.run", index);
    QueryRecord q = RunQuery(*w, index, &tracer, &metrics);
    log.End(root);
    attempted += 2;
    failed += (plain.ok ? 0 : 1) + (q.ok ? 0 : 1);
    if (!plain.ok || !q.ok) continue;

    log.ImportChromeTrace(tracer.ExportChromeJson(), index, offset_us);
    log.AssignParents(first_span);
    const std::map<std::string, double> self =
        log.SelfTimeUsByName(first_span);
    const std::map<std::string, double> dur =
        log.DurationUsByName(first_span);
    const auto at = [](const std::map<std::string, double>& m,
                       const char* k) {
      auto it = m.find(k);
      return it == m.end() ? 0.0 : it->second;
    };
    ++traced.queries;
    traced.stages += q.result.stages_run;
    traced.blocks += q.result.blocks_sampled + q.result.blocks_wasted;
    traced.plan_us += at(dur, "plan_stage");
    traced.draw_self_us += at(self, "draw_blocks");
    traced.eval_us += at(dur, "eval_terms");
    traced.glue_us += at(self, "query") + at(self, "stage");
    traced.caller_us += at(dur, "api.run");
    traced.traced_s += q.latency_s;
    traced.untraced_s += plain.latency_s;
    traced.ssd_probes +=
        metrics.counter(tcq::metric_names::kTimectrlSsdProbes)->value();
    traced.replayed +=
        metrics.counter(tcq::metric_names::kCacheBlocksReplayed)->value();
    traced.fresh +=
        metrics.counter(tcq::metric_names::kCacheBlocksFresh)->value();

    tcq::Status st = ReplayQuery(w->FamilyOf(index), w->SamplingSeedOf(index),
                                 q.result, check_fidelity, replay_pool.get(),
                                 &log, index, &replay);
    if (!st.ok()) Fail(st.ToString());
  }
  if (traced.queries == 0) Fail("no traced query completed");
  if (!args.spans_path.empty() && !log.WriteJsonLines(args.spans_path)) {
    Fail("cannot write spans to " + args.spans_path);
  }

  const auto per = [](double num, int64_t den) {
    return den > 0 ? num / static_cast<double>(den) : 0.0;
  };
  std::printf(
      "# traced=%lld replayed_stages=%lld fidelity_stages=%lld "
      "replay_draw_us_per_block=%.4f replay_revise_us_per_stage=%.3f "
      "replay_teardown_ms_per_query=%.3f\n",
      static_cast<long long>(traced.queries),
      static_cast<long long>(replay.stages),
      static_cast<long long>(replay.fidelity_stages),
      per(replay.draw_s * 1e6, replay.blocks),
      per(replay.revise_s * 1e6, replay.stages),
      per(replay.teardown_s * 1e3, replay.queries));
  std::vector<Metric> metrics = {
      {"api.unbudgeted_ms_p50", Quantile(engine.unbudgeted_ms, 0.5), "ms"},
      {"engine.stage_pred_ratio_p50", Quantile(engine.stage_ratio, 0.5),
       "ratio"},
      {"engine.stage0_pred_ratio_p50", Quantile(engine.stage0_ratio, 0.5),
       "ratio"},
      {"engine.wasted_blocks_pct",
       100.0 * Ratio(static_cast<double>(engine.wasted),
                     static_cast<double>(engine.sampled + engine.wasted)),
       "%"},
      {"engine.stages_p50", Quantile(engine.stages, 0.5), "count"},
      {"timectrl.plan_us_per_stage", per(traced.plan_us, traced.stages),
       "us"},
      {"timectrl.ssd_probes", per(static_cast<double>(traced.ssd_probes),
                                  traced.queries),
       "count/query"},
      {"sampling.draw_us_per_block", per(traced.draw_self_us, traced.blocks),
       "us"},
      {"cache.replayed_pct",
       100.0 * Ratio(static_cast<double>(traced.replayed),
                     static_cast<double>(traced.replayed + traced.fresh)),
       "%"},
      {"storage.read_ns_per_block", per(replay.read_s * 1e9, replay.blocks),
       "ns"},
      {"storage.bytes_per_user_byte",
       rss_after_setup_mb * 1024.0 * 1024.0 /
           static_cast<double>(w->stored_tuples * w->tuple_bytes),
       "ratio"},
      {"exec.eval_ms_per_stage", per(traced.eval_us / 1e3, traced.stages),
       "ms"},
      {"exec.scan_ns_per_tuple", per(replay.scan_s * 1e9, replay.scan_tuples),
       "ns"},
      {"exec.filter_ns_per_tuple",
       per(replay.filter_s * 1e9, replay.filter_tuples), "ns"},
      {"exec.sort_ns_per_tuple", per(replay.sort_s * 1e9, replay.sort_tuples),
       "ns"},
      {"exec.merge_ns_per_tuple",
       per(replay.merge_s * 1e9, replay.merge_tuples), "ns"},
      {"exec.write_output_ms_per_stage",
       per(replay.write_output_s * 1e3, replay.stages), "ms"},
      {"parallel.work_over_span", Ratio(engine.work_s, engine.span_s),
       "ratio"},
      {"estimator.us_per_stage", per(replay.estimator_s * 1e6, replay.stages),
       "us"},
      {"estimator.design_effect_p50", Quantile(replay.design_effects, 0.5),
       "ratio"},
      {"obs.trace_overhead_pct",
       100.0 * (Ratio(traced.traced_s, traced.untraced_s) - 1.0), "%"},
      {"unattributed_pct", 100.0 * Ratio(traced.glue_us, traced.caller_us),
       "%"},
  };
  PrintResult(metrics, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
