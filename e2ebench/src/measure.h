// The two kinds of run: the untraced run that measures the end-to-end
// metrics, and the traced run that splits the same work into the
// library's layers.

#ifndef TRIAL_E2EBENCH_MEASURE_H_
#define TRIAL_E2EBENCH_MEASURE_H_

#include <string>
#include <vector>

#include "util/status.h"
#include "workloads.h"

namespace e2e {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Metric> metrics;
  /// The run record: seed, host cores, threads, sizes, tail details.
  /// A JSON object.
  std::string record;
  /// Traced run only: spans plus the metrics-registry snapshot.
  std::string trace_json;
};

/// Measures `w` for cfg.seconds with tracing off.
trial::Result<RunResult> RunUntraced(Workload& w);

/// The traced run: same workload, every query split into parse, plan,
/// exec and materialize spans, plus the registry counters.
trial::Result<RunResult> RunTraced(Workload& w);

}  // namespace e2e

#endif  // TRIAL_E2EBENCH_MEASURE_H_
