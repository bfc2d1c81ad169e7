// e2e_bench: the end-to-end benchmark binary.  Normally driven by
// run.py, which builds it, prepares the inputs in a process of their own
// and then measures:
//
//   e2e_bench prepare --workload W --seed N --data-dir DIR [--tiny]
//   e2e_bench run --workload W --seed N --seconds S --trace 0|1
//             --data-dir DIR [--tiny] [--corrupt] [--trace-out FILE]
//
// `run` prints the run record (seed, host cores, threads, store sizes,
// tail percentile, ...) as one JSON line, then the result as the last
// line: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}} — the end-to-end metrics with --trace 0, the per-layer ones
// with --trace 1.  Exit code 0 unless the run could not be carried out.

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "measure.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench prepare|run --workload W --seed N "
               "--data-dir DIR [--seconds S] [--trace 0|1] [--tiny] "
               "[--corrupt] [--trace-out FILE]\n");
  return 2;
}

bool ParseNumber(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

bool ParseSeed(const char* s, uint64_t* out) {
  if (*s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(s, &end, 10);
  return errno == 0 && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string mode = argv[1];
  e2e::BenchConfig cfg;
  std::string trace_out;
  unsigned cores = std::thread::hardware_concurrency();
  cfg.threads = std::min<size_t>(4, cores == 0 ? 1 : cores);
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    double num = 0;
    if (a == "--tiny") {
      cfg.tiny = true;
    } else if (a == "--corrupt") {
      cfg.corrupt = true;
    } else if (v == nullptr) {
      return Usage();
    } else if (a == "--workload") {
      cfg.workload = v;
      ++i;
    } else if (a == "--data-dir") {
      cfg.data_dir = v;
      ++i;
    } else if (a == "--trace-out") {
      trace_out = v;
      ++i;
    } else if (a == "--seed" && ParseSeed(v, &cfg.seed)) {
      ++i;
    } else if (a == "--seconds" && ParseNumber(v, &num) && num > 0) {
      cfg.seconds = num;
      ++i;
    } else if (a == "--trace" && ParseNumber(v, &num)) {
      cfg.trace = num != 0;
      ++i;
    } else {
      return Usage();
    }
  }
  std::unique_ptr<e2e::Workload> w = e2e::MakeWorkload(cfg);
  if (w == nullptr || cfg.data_dir.empty()) return Usage();

  if (mode == "prepare") {
    std::error_code ec;
    std::filesystem::create_directories(cfg.data_dir, ec);
    trial::Status st = w->Prepare();
    if (!st.ok()) {
      std::fprintf(stderr, "prepare: %s\n", st.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (mode != "run") return Usage();

  trial::Result<e2e::RunResult> r =
      cfg.trace ? e2e::RunTraced(*w) : e2e::RunUntraced(*w);
  if (!r.ok()) {
    std::fprintf(stderr, "run: %s\n", r.status().ToString().c_str());
    return 1;
  }
  if (!trace_out.empty() && !r->trace_json.empty()) {
    std::FILE* f = std::fopen(trace_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::fputs(r->trace_json.c_str(), f);
    std::fclose(f);
  }
  std::string metrics;
  for (const e2e::Metric& m : r->metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += e2e::JsonString(m.name) + ": {\"value\": " +
               e2e::JsonNumber(m.value) + ", \"unit\": " +
               e2e::JsonString(m.unit) + "}";
  }
  std::printf("%s\n", r->record.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              r->correct ? "true" : "false", r->attempted, r->failed,
              metrics.c_str());
  return 0;
}
