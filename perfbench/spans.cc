#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace perfbench {

namespace {

// Value of `"key":"..."` in one exported event line, or "" when absent.
std::string StringField(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":\"";
  size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  at += needle.size();
  size_t end = line.find('"', at);
  return end == std::string::npos ? "" : line.substr(at, end - at);
}

// Value of `"key":<number>` in one exported event line.
bool NumberField(const std::string& line, const char* key, double* out) {
  const std::string needle = std::string("\"") + key + "\":";
  size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const char* begin = line.c_str() + at + needle.size();
  char* end = nullptr;
  *out = std::strtod(begin, &end);
  return end != begin;
}

// Length of the union of [lo, hi) intervals, each clipped to [a, b).
double Coverage(std::vector<std::pair<double, double>> parts, double a,
                double b) {
  std::sort(parts.begin(), parts.end());
  double covered = 0.0;
  double cursor = a;
  for (auto [lo, hi] : parts) {
    lo = std::max(lo, cursor);
    hi = std::min(hi, b);
    if (hi <= lo) continue;
    covered += hi - lo;
    cursor = hi;
  }
  return covered;
}

std::string Escaped(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int SpanLog::Begin(const std::string& name, int64_t query) {
  Span span;
  span.name = name;
  span.query = query;
  span.start_us = NowUs();
  span.end_us = span.start_us;
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanLog::End(int index) {
  spans_[static_cast<size_t>(index)].end_us = NowUs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::ImportChromeTrace(const std::string& json, int64_t query,
                                double offset_us) {
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    if (StringField(line, "ph") != "X") continue;
    Span span;
    span.name = StringField(line, "name");
    span.query = query;
    double ts = 0.0, dur = 0.0, tid = 0.0;
    if (!NumberField(line, "ts", &ts) || !NumberField(line, "dur", &dur)) {
      continue;
    }
    NumberField(line, "tid", &tid);
    span.start_us = ts + offset_us;
    span.end_us = ts + dur + offset_us;
    // Engine threads are numbered from 1 so they never collide with the
    // benchmark's own thread 0.
    span.tid = static_cast<int>(tid) + 1;
    spans_.push_back(std::move(span));
  }
}

void SpanLog::AssignParents(size_t first) {
  for (size_t i = first; i < spans_.size(); ++i) {
    Span& s = spans_[i];
    if (s.parent >= 0) continue;
    int best = -1;
    bool best_same_tid = false;
    for (size_t j = first; j < spans_.size(); ++j) {
      if (j == i) continue;
      const Span& p = spans_[j];
      if (p.query != s.query || p.start_us > s.start_us ||
          p.end_us < s.end_us) {
        continue;
      }
      // A span of equal extent is the parent only if it was recorded
      // earlier (the outer one of two identical intervals).
      if (p.start_us == s.start_us && p.end_us == s.end_us && j > i) continue;
      const bool same_tid = p.tid == s.tid;
      if (best >= 0) {
        const Span& b = spans_[static_cast<size_t>(best)];
        if (best_same_tid && !same_tid) continue;
        if (best_same_tid == same_tid && p.dur_us() >= b.dur_us()) continue;
      }
      best = static_cast<int>(j);
      best_same_tid = same_tid;
    }
    s.parent = best;
  }
}

std::map<std::string, double> SpanLog::SelfTimeUsByName(size_t first) const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (size_t i = first; i < spans_.size(); ++i) {
    int p = spans_[i].parent;
    if (p >= 0) {
      children[static_cast<size_t>(p)].push_back(
          {spans_[i].start_us, spans_[i].end_us});
    }
  }
  std::map<std::string, double> out;
  for (size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] +=
        s.dur_us() - Coverage(children[i], s.start_us, s.end_us);
  }
  return out;
}

std::map<std::string, double> SpanLog::DurationUsByName(size_t first) const {
  std::map<std::string, double> out;
  for (size_t i = first; i < spans_.size(); ++i) {
    out[spans_[i].name] += spans_[i].dur_us();
  }
  return out;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"query\":%lld,\"tid\":%d,"
                 "\"parent\":%d,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 i, Escaped(s.name).c_str(), static_cast<long long>(s.query),
                 s.tid, s.parent, s.start_us, s.end_us);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
