// Small helpers shared by the end-to-end benchmark: clocks, order
// statistics, order-independent answer digests, an in-memory span
// tracer and a minimal JSON writer.

#ifndef TRIAL_E2EBENCH_COMMON_H_
#define TRIAL_E2EBENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "storage/triple_set.h"
#include "util/metrics.h"

namespace e2e {

/// Steady-clock seconds since an arbitrary origin.
inline double NowSeconds() {
  return static_cast<double>(trial::MonotonicNanos()) * 1e-9;
}

/// Median of `v` (mean of the two middle values for even sizes); 0 for
/// an empty vector.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile of `v` that still has at least `beyond`
/// samples above it: the (beyond+1)-th largest value.  With fewer than
/// beyond+1 samples it degrades to the maximum.
struct TailStat {
  double value = 0;
  double percentile = 0;  ///< in [0, 100]
  size_t samples = 0;
};

inline TailStat Tail(std::vector<double> v, size_t beyond = 10) {
  TailStat t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  size_t idx = v.size() > beyond ? v.size() - 1 - beyond : v.size() - 1;
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) /
                 static_cast<double>(v.size());
  return t;
}

/// Row count plus an order-independent digest of a result: two routes
/// that produce the same triple set produce the same Answer.
struct Answer {
  size_t rows = 0;
  uint64_t digest = 0;
  bool operator==(const Answer& o) const {
    return rows == o.rows && digest == o.digest;
  }
  bool operator!=(const Answer& o) const { return !(*this == o); }
};

inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Wrapping sum of a per-triple mix: independent of iteration order.
inline Answer Summarize(const trial::TripleSet& set) {
  Answer a;
  for (const trial::Triple& t : set) {
    a.digest += Mix64((static_cast<uint64_t>(t.s) << 32 | t.p) ^
                      Mix64(t.o + 0x9e3779b97f4a7c15ULL));
  }
  a.rows = set.size();
  return a;
}

/// Nested spans recorded by the benchmark around its calls into the
/// library.  Kept in memory; rendered once at the end.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
  };

  /// Opens a span under the innermost open one; returns its id.
  int Begin(std::string name) {
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = trial::MonotonicNanos();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  /// Closes span `id` (must be the innermost open one).
  void End(int id) {
    spans_[id].end_ns = trial::MonotonicNanos();
    open_.pop_back();
  }
  /// Records an already-measured interval as a closed child of span
  /// `parent` (used for phases the library times itself).
  int Add(std::string name, int parent, uint64_t start_ns, uint64_t end_ns) {
    Span s;
    s.name = std::move(name);
    s.parent = parent;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }

  const Span& span(int id) const { return spans_[id]; }
  /// The innermost open span, -1 when none is open.
  int Innermost() const { return open_.empty() ? -1 : open_.back(); }

  /// Spans as a JSON array, times in ns relative to the first span.
  std::string ToJson() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, std::string name)
      : t_(t), id_(t != nullptr ? t->Begin(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int id_;
};

/// A number in JSON with full precision (non-finite values become 0).
inline std::string JsonNumber(double v) {
  if (!(v == v) || v > 1e300 || v < -1e300) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// A JSON string literal.
std::string JsonString(const std::string& s);

}  // namespace e2e

#endif  // TRIAL_E2EBENCH_COMMON_H_
