#ifndef TCQ_PERFBENCH_SPANS_H_
#define TCQ_PERFBENCH_SPANS_H_

// In-memory span log of the traced run. Spans come from two sources: the
// engine's own trace (parsed from each query's Chrome trace export) and
// the benchmark's spans around its calls into each layer (the layer
// replay and the api root span). All spans share one microsecond
// timebase and carry the id of the query they belong to; the log is
// written out once, when the benchmark ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int64_t query = 0;
  int tid = 0;      // recording thread (0 = the benchmark's own spans)
  int parent = -1;  // index into the log, -1 for a root

  double dur_us() const { return end_us - start_us; }
};

class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  // Opens a span now; returns its index. Spans opened while another is
  // open become its children.
  int Begin(const std::string& name, int64_t query);
  void End(int index);

  // Imports every complete ('X') event of a Chrome trace export, shifting
  // its timestamps by `offset_us` into this log's timebase.
  void ImportChromeTrace(const std::string& json, int64_t query,
                         double offset_us);

  // Sets each parentless span's parent to the innermost span of the same
  // query that contains it, preferring the same thread.
  void AssignParents(size_t first);

  // Self time of every span from index `first` on: its duration minus the
  // part of it covered by its children. Summed per span name.
  std::map<std::string, double> SelfTimeUsByName(size_t first) const;
  // Total duration per span name from index `first` on.
  std::map<std::string, double> DurationUsByName(size_t first) const;

  size_t size() const { return spans_.size(); }

  // Writes one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII helper around SpanLog::Begin/End; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t query)
      : log_(log), index_(log != nullptr ? log->Begin(name, query) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace perfbench

#endif  // TCQ_PERFBENCH_SPANS_H_
