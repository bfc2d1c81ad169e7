#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <map>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/eval.h"
#include "core/parser.h"
#include "core/plan/adapt.h"
#include "core/plan/plan.h"
#include "core/plan/profile.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "util/metrics.h"

namespace e2e {

using trial::Result;
using trial::Status;
using trial::TripleSet;
using trial::TripleStore;

namespace {

// Query classes of all workloads, for the per-class exec metrics.
const char* const kClasses[] = {
    "point",     "point_hop", "star3",         "chain3",
    "hop2",      "triangle",  "pred_path",     "reach_any",
    "reach_same_company",     "query_q",       "reach_derived",
    "datalog_opr",            "sp_dijkstra"};

// Plan operators whose self time is reported under exec.op_self_ms; the
// star routes go under reach.star_self_ms.
const char* const kSelfOps[] = {"IndexScan", "SelectFilter", "IndexProbeJoin",
                                "HashJoin",  "MergeJoin",    "DijkstraScan"};
const char* const kStarRoutes[] = {"ReachIndexScan", "ReachFastPath",
                                   "FixpointStar"};

size_t HostCores() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

trial::ExecLimits Limits(size_t threads, bool adaptive) {
  trial::ExecLimits l;
  l.exec.num_threads = threads;
  l.adaptive = adaptive;
  return l;
}

// ---- answer checking ------------------------------------------------------

// Compares every op's answer with the workload's second route, outside
// any timed region.  Reference answers are memoized per (op, store
// epoch), so a repeated query on an unchanged store is checked against
// the answer computed the first time.
class Checker {
 public:
  explicit Checker(const Workload& w) : w_(w) {}

  void Check(const Op& op, const Result<TripleSet>& got,
             const TripleStore& store) {
    ++attempted_;
    if (op.kind == OpKind::kWrite) return;
    if (!got.ok()) {
      Fail(op, got.status().ToString());
      return;
    }
    Answer seen = ObservedAnswer(op, *got, store);
    if (w_.config().corrupt && attempted_ % 7 == 3) seen.digest ^= 1;
    std::string key = op.cls + '\n' + op.text + '\n' + op.src + '\n' +
                      op.dst + '\n' + std::to_string(store.Epoch());
    auto it = memo_.find(key);
    if (it == memo_.end()) {
      Result<Answer> ref = ReferenceAnswer(op, store, w_.RouteFor(op));
      if (!ref.ok()) {
        Fail(op, "second route: " + ref.status().ToString());
        return;
      }
      it = memo_.emplace(std::move(key), *ref).first;
    }
    if (seen != it->second) {
      Fail(op, "rows " + std::to_string(seen.rows) + " vs " +
                   std::to_string(it->second.rows) +
                   (seen.rows == it->second.rows ? ", digest differs" : ""));
    }
  }

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

  std::string FailuresJson() const {
    std::string out = "[";
    for (size_t i = 0; i < failures_.size(); ++i) {
      out += (i > 0 ? ", " : "") + JsonString(failures_[i]);
    }
    return out + "]";
  }

 private:
  void Fail(const Op& op, const std::string& why) {
    ++failed_;
    if (failures_.size() < 5) failures_.push_back(op.cls + ": " + why);
  }

  const Workload& w_;
  std::unordered_map<std::string, Answer> memo_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> failures_;
};

// ---- the untraced client loop --------------------------------------------

struct PassTiming {
  double seconds = 0;  ///< summed op latencies (checks excluded)
  size_t ops = 0;
  std::vector<double> query_seconds;
  std::map<std::string, std::vector<double>> by_class;  ///< op seconds
};

PassTiming RunClientPass(const Workload& w, size_t index, TripleStore& store,
                         Client& client, Checker& checker) {
  PassTiming pt;
  for (const Op& op : w.Pass(index, store)) {
    double t0 = NowSeconds();
    Result<TripleSet> r = client.Run(op, store);
    double dt = NowSeconds() - t0;
    pt.seconds += dt;
    ++pt.ops;
    if (op.kind != OpKind::kWrite) pt.query_seconds.push_back(dt);
    pt.by_class[op.cls].push_back(dt);
    checker.Check(op, r, store);
  }
  return pt;
}

std::string RecordHead(const Workload& w, const TripleStore& store) {
  const BenchConfig& cfg = w.config();
  return "\"workload\": " + JsonString(cfg.workload) +
         ", \"seed\": " + std::to_string(cfg.seed) +
         ", \"size\": " + JsonString(cfg.tiny ? "tiny" : "full") +
         ", \"host_cores\": " + std::to_string(HostCores()) +
         ", \"query_threads\": " + std::to_string(cfg.threads) +
         ", \"loader_threads\": " + std::to_string(cfg.threads) +
         ", \"adaptive\": " + (w.Adaptive() ? "true" : "false") + ", " +
         w.SizesJson(store);
}

// ---- the traced route ------------------------------------------------------

// Per-layer samples of one traced pass.
struct LayerSamples {
  std::vector<double> parse_us, plan_us;
  std::map<std::string, std::vector<double>> exec_ms, materialize_ms;
  std::map<std::string, double> self_ms;  // by plan operator
  std::vector<double> root_q_error;
  double max_q_error = 0;
  double rows_examined = 0;
  double result_rows = 0;
  double peak_rows = 0;
  std::vector<double> datalog_ms;
  double dijkstra_settled = 0;
  double replans = 0;
  double replan_ms = 0;
  std::vector<double> write_ms, normalize_ms, perm_build_ms, stats_build_ms;
  double layer_ns = 0;  // summed layer spans of the queries
  double query_ns = 0;  // summed query wall time, checks excluded
  double busy_s = 0;    // the pass's op time, checks excluded
};

double Ms(uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

// Folds a profiled plan tree into the samples.
void NotePlan(const trial::plan::PlanNode& n, bool root, LayerSamples* s) {
  const trial::plan::PlanRuntime& rt = n.runtime;
  if (!rt.executed) return;
  if (rt.profiled) s->self_ms[trial::plan::PlanOpName(n.op)] += Ms(rt.self_ns);
  if (rt.rows_known) {
    double q = trial::plan::QError(n.est_rows,
                                   static_cast<double>(rt.actual_rows));
    s->max_q_error = std::max(s->max_q_error, q);
    if (root) {
      s->root_q_error.push_back(q);
      s->result_rows += static_cast<double>(rt.actual_rows);
    } else {
      s->rows_examined += static_cast<double>(rt.actual_rows);
    }
  }
  s->peak_rows = std::max(s->peak_rows, static_cast<double>(rt.peak_rows));
  for (const trial::plan::PlanPtr& c : n.children) NotePlan(*c, false, s);
}

// Runs ops one public library call at a time, each call in its own
// span: query -> [normalize, perm_build, stats_build after a write]
// -> parse -> plan -> exec -> materialize -> verify.
class TracedClient {
 public:
  TracedClient(const Workload& w, Tracer* tr)
      : w_(w), tr_(tr), limits_(Limits(w.config().threads, w.Adaptive())) {}

  // Explicit permutation and stats builds of relation E, as the first
  // read after set-up or after a write pays them.  Returns the time
  // spent, in ns.
  uint64_t BuildStorage(const TripleStore& store, LayerSamples* s) {
    uint64_t ns = 0;
    const TripleSet* rel = store.FindRelation("E");
    if (rel == nullptr) return ns;
    int b = tr_->Begin("storage.perm_build");
    for (trial::IndexOrder order :
         {trial::IndexOrder::kSPO, trial::IndexOrder::kPOS,
          trial::IndexOrder::kOSP}) {
      ScopedSpan m(tr_, std::string("materialize.") +
                            trial::IndexOrderName(order));
      rel->Materialize(order);
    }
    s->perm_build_ms.push_back(Close(b, &ns));
    int st = tr_->Begin("storage.stats_build");
    for (trial::RelId r = 0; r < store.NumRelations(); ++r) {
      if (store.RelationName(r) == "E") store.RelationStats(r);
    }
    s->stats_build_ms.push_back(Close(st, &ns));
    return ns;
  }

  void Run(const Op& op, TripleStore& store, Checker& checker,
           LayerSamples* s) {
    if (op.kind == OpKind::kWrite) {
      int id = tr_->Begin("write");
      ApplyWrite(op, store);
      tr_->End(id);
      s->write_ms.push_back(tr_->span(id).ms());
      s->busy_s += tr_->span(id).ms() * 1e-3;
      pending_write_ = true;
      checker.Check(op, TripleSet(), store);
      return;
    }
    int q = tr_->Begin("query." + op.cls);
    uint64_t layer_ns = 0;
    if (pending_write_) {
      pending_write_ = false;
      const TripleSet* rel = store.FindRelation("E");
      int n = tr_->Begin("storage.normalize");
      if (rel != nullptr) (void)rel->size();
      s->normalize_ms.push_back(Close(n, &layer_ns));
      layer_ns += BuildStorage(store, s);
    }
    Result<TripleSet> result = RunLayers(op, store, s, &layer_ns);
    uint64_t done = trial::MonotonicNanos();
    {
      ScopedSpan v(tr_, "verify");
      checker.Check(op, result, store);
    }
    tr_->End(q);
    uint64_t wall = done - tr_->span(q).start_ns;
    s->layer_ns += static_cast<double>(layer_ns);
    s->query_ns += static_cast<double>(wall);
    s->busy_s += static_cast<double>(wall) * 1e-9;
  }

 private:
  // Closes span `id`, adds its duration to the layer total and returns
  // it in ms.
  double Close(int id, uint64_t* layer_ns) {
    tr_->End(id);
    const Tracer::Span& sp = tr_->span(id);
    *layer_ns += sp.end_ns - sp.start_ns;
    return sp.ms();
  }

  // ExecutePlan with profiling, split at the root operator's end: what
  // follows inside the call (the root's normalization) and the first
  // read are the materialize span.
  Result<TripleSet> ExecProfiled(trial::plan::PlanNode& pl,
                                 const TripleStore& store, const Op& op,
                                 LayerSamples* s, uint64_t* layer_ns) {
    uint64_t t0 = trial::MonotonicNanos();
    Result<TripleSet> r =
        trial::plan::ExecutePlan(pl, store, limits_, /*profile=*/true);
    uint64_t t1 = trial::MonotonicNanos();
    uint64_t exec_end =
        pl.runtime.profiled ? std::min(t1, t0 + pl.runtime.end_ns) : t1;
    if (r.ok()) (void)r->size();
    uint64_t t2 = trial::MonotonicNanos();
    int q = tr_->Innermost();
    tr_->Add("exec", q, t0, exec_end);
    tr_->Add("materialize", q, exec_end, t2);
    *layer_ns += t2 - t0;
    s->exec_ms[op.cls].push_back(Ms(exec_end - t0));
    s->materialize_ms[op.cls].push_back(Ms(t2 - exec_end));
    if (r.ok()) NotePlan(pl, /*root=*/true, s);
    return r;
  }

  Result<TripleSet> RunLayers(const Op& op, TripleStore& store,
                              LayerSamples* s, uint64_t* layer_ns) {
    namespace plan = trial::plan;
    if (op.kind == OpKind::kDatalog) {
      int p = tr_->Begin("parse");
      Result<trial::datalog::Program> prog =
          trial::datalog::ParseProgram(op.text);
      s->parse_us.push_back(Close(p, layer_ns) * 1e3);
      if (!prog.ok()) return prog.status();
      trial::datalog::DatalogOptions dopts;
      static_cast<trial::ExecLimits&>(dopts) = limits_;
      int e = tr_->Begin("exec");
      Result<TripleSet> r =
          trial::datalog::EvalProgram(*prog, store, "ans", dopts);
      double ms = Close(e, layer_ns);
      s->exec_ms[op.cls].push_back(ms);
      s->datalog_ms.push_back(ms);
      int m = tr_->Begin("materialize");
      if (r.ok()) (void)r->size();
      s->materialize_ms[op.cls].push_back(Close(m, layer_ns));
      return r;
    }
    if (op.kind == OpKind::kShortestPath) {
      int p = tr_->Begin("plan");
      plan::PlanPtr pl = plan::PlanShortestPath(store, "E", op.src, op.dst);
      s->plan_us.push_back(Close(p, layer_ns) * 1e3);
      Result<TripleSet> r = ExecProfiled(*pl, store, op, s, layer_ns);
      s->dijkstra_settled += static_cast<double>(pl->runtime.sp_settled);
      return r;
    }
    int p = tr_->Begin("parse");
    Result<trial::ExprPtr> e = trial::ParseTriAL(op.text, &store);
    Status valid = e.ok() ? trial::ValidateExpr(*e) : e.status();
    s->parse_us.push_back(Close(p, layer_ns) * 1e3);
    if (!valid.ok()) return valid;
    int pl_span = tr_->Begin("plan");
    plan::PlanningHints hints;
    if (w_.Adaptive()) hints.feedback = &plan::FeedbackCache::Global();
    plan::PlanPtr pl = plan::PlanExpr(*e, store, hints);
    s->plan_us.push_back(Close(pl_span, layer_ns) * 1e3);
    if (!w_.Adaptive()) return ExecProfiled(*pl, store, op, s, layer_ns);
    // Adaptive execution plans again internally (with the same
    // feedback) and runs stage by stage; it is timed as one exec span.
    plan::AdaptiveResult ar;
    int x = tr_->Begin("exec");
    Result<TripleSet> r = plan::ExecuteAdaptive(*e, store, limits_,
                                                /*profile=*/false, &ar);
    s->exec_ms[op.cls].push_back(Close(x, layer_ns));
    int m = tr_->Begin("materialize");
    if (r.ok()) (void)r->size();
    s->materialize_ms[op.cls].push_back(Close(m, layer_ns));
    s->replans += static_cast<double>(ar.replans);
    s->replan_ms += Ms(ar.replan_ns);
    if (r.ok() && ar.plan != nullptr) {
      plan::RecordRootRows(*ar.plan, *r);
      NotePlan(*ar.plan, /*root=*/true, s);
    }
    return r;
  }

  const Workload& w_;
  Tracer* tr_;
  trial::ExecLimits limits_;
  bool pending_write_ = false;
};

// ---- registry snapshots ----------------------------------------------------

struct Registry {
  trial::MetricsSnapshot snap = trial::MetricsRegistry::Global().Snapshot();

  double Counter(const std::string& name) const {
    for (const auto& c : snap.counters) {
      if (c.name == name) return static_cast<double>(c.value);
    }
    return 0;
  }
  double HistSumMs(const std::string& name) const {
    for (const auto& h : snap.histograms) {
      if (h.name == name) return Ms(h.sum);
    }
    return 0;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// `<prefix>.hits / (hits + misses)` between two snapshots.
double HitRate(const Registry& before, const Registry& after,
               const std::string& prefix) {
  double hits = after.Counter(prefix + ".hits") - before.Counter(prefix + ".hits");
  double misses =
      after.Counter(prefix + ".misses") - before.Counter(prefix + ".misses");
  return Ratio(hits, hits + misses);
}

// Median over passes of a per-pass quantity.
template <typename F>
double MedianOverPasses(const std::vector<LayerSamples>& passes, F f) {
  std::vector<double> v;
  for (const LayerSamples& p : passes) v.push_back(f(p));
  return Median(v);
}

// Median over every sample a field collected in any pass.
double PooledMedian(const std::vector<LayerSamples>& passes,
                    std::vector<double> LayerSamples::*field) {
  std::vector<double> v;
  for (const LayerSamples& p : passes) {
    v.insert(v.end(), (p.*field).begin(), (p.*field).end());
  }
  return Median(v);
}

double ClassMedian(const std::vector<LayerSamples>& passes,
                   std::map<std::string, std::vector<double>> LayerSamples::*field,
                   const std::string& cls) {
  std::vector<double> v;
  for (const LayerSamples& p : passes) {
    auto it = (p.*field).find(cls);
    if (it != (p.*field).end()) {
      v.insert(v.end(), it->second.begin(), it->second.end());
    }
  }
  return Median(v);
}

double SumAll(const std::map<std::string, std::vector<double>>& m) {
  double t = 0;
  for (const auto& kv : m) {
    for (double x : kv.second) t += x;
  }
  return t;
}

double SelfMs(const LayerSamples& p, const std::string& op) {
  auto it = p.self_ms.find(op);
  return it == p.self_ms.end() ? 0 : it->second;
}

struct MetricName {
  std::string name;
  std::string unit;
};

// Name and unit of every per-layer metric, in report order.
const std::vector<MetricName>& PerLayerMetrics() {
  static const std::vector<MetricName> kSpecs = [] {
    std::vector<MetricName> v = {
        {"loader.read_s", "s"},
        {"loader.parse_s", "s"},
        {"loader.merge_s", "s"},
        {"segment.open_ms", "ms"},
        {"segment.decode_ms", "ms"},
        {"segment.decodes", "count"},
        {"segment.bytes_per_triple", "B/triple"},
        {"storage.perm_build_ms", "ms"},
        {"storage.stats_build_ms", "ms"},
        {"storage.write_ms", "ms"},
        {"storage.normalize_ms", "ms"},
        {"parser.parse_us", "us"},
        {"planner.plan_us", "us"},
        {"planner.root_q_error", "ratio"},
        {"planner.max_q_error", "ratio"},
        {"planner.plan_cache_hit_rate", "ratio"},
        {"exec.exec_ms", "ms"},
        {"exec.materialize_ms", "ms"},
    };
    for (const char* c : kClasses) {
      v.push_back({std::string("exec.exec_ms.") + c, "ms"});
      v.push_back({std::string("exec.materialize_ms.") + c, "ms"});
    }
    for (const char* op : kSelfOps) {
      v.push_back({std::string("exec.op_self_ms.") + op, "ms"});
    }
    v.push_back({"exec.rows_examined_per_result", "ratio"});
    v.push_back({"exec.peak_rows", "count"});
    v.push_back({"adapt.replans", "count"});
    v.push_back({"adapt.replan_ms", "ms"});
    v.push_back({"adapt.feedback_hit_rate", "ratio"});
    v.push_back({"reach.index_builds", "count"});
    v.push_back({"reach.index_build_ms", "ms"});
    for (const char* route : kStarRoutes) {
      v.push_back({std::string("reach.star_self_ms.") + route, "ms"});
    }
    v.push_back({"reach.dijkstra_settled", "count"});
    v.push_back({"datalog.eval_ms", "ms"});
    v.push_back({"pool.queue_wait_ms", "ms"});
    v.push_back({"pool.tasks", "count"});
    v.push_back({"pool.inline_runs", "count"});
    v.push_back({"parallel.speedup", "ratio"});
    v.push_back({"trace.coverage", "ratio"});
    v.push_back({"trace.overhead", "ratio"});
    return v;
  }();
  return kSpecs;
}

}  // namespace

Result<RunResult> RunUntraced(Workload& w) {
  const BenchConfig& cfg = w.config();
  // Set-up SetupRepeats() times; the last ColdRepeats() set-ups are each
  // followed by a cold pass on a fresh client (empty plan cache).  The
  // last store and client serve the warm passes.
  std::vector<double> setups, colds;
  TripleStore store;
  std::unique_ptr<Client> client;
  Checker checker(w);
  double rss_setup = 0;
  for (int r = 0; r < w.SetupRepeats(); ++r) {
    store = TripleStore();  // release the previous copy first
    SetupInfo info;
    TRIAL_ASSIGN_OR_RETURN(store, w.Setup(&info));
    setups.push_back(info.seconds);
    rss_setup = std::max(rss_setup, PeakRssMb());
    if (r + w.ColdRepeats() < w.SetupRepeats()) continue;
    client = std::make_unique<Client>(Limits(cfg.threads, w.Adaptive()));
    colds.push_back(RunClientPass(w, 0, store, *client, checker).seconds);
  }
  double rss_cold = PeakRssMb();

  // Whole passes until the measured time is reached.
  std::vector<double> latencies, pass_rates;
  std::map<std::string, std::vector<double>> by_class;
  double busy = 0;
  size_t ops = 0;
  size_t passes = 0;
  while (passes == 0 || busy < cfg.seconds) {
    PassTiming pt = RunClientPass(w, 1 + passes, store, *client, checker);
    busy += pt.seconds;
    ops += pt.ops;
    pass_rates.push_back(static_cast<double>(pt.ops) / pt.seconds);
    latencies.insert(latencies.end(), pt.query_seconds.begin(),
                     pt.query_seconds.end());
    for (auto& kv : pt.by_class) {
      by_class[kv.first].insert(by_class[kv.first].end(), kv.second.begin(),
                                kv.second.end());
    }
    ++passes;
  }
  TailStat tail = Tail(latencies);

  RunResult out;
  out.attempted = checker.attempted();
  out.failed = checker.failed();
  out.correct = out.failed == 0;
  double error_rate = Ratio(static_cast<double>(out.failed),
                            static_cast<double>(out.attempted));
  out.metrics = {
      {"setup_s", Median(setups), "s"},
      {"cold_pass_s", Median(colds), "s"},
      {"query_p50_ms", Median(latencies) * 1e3, "ms"},
      {"query_tail_ms", tail.value * 1e3, "ms"},
      {"ops_per_s", Median(pass_rates), "1/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"ok_rate", 1.0 - error_rate, "ratio"},
  };
  // Per-class medians, so a change in the mix's percentiles can be
  // traced to the class that moved.
  std::string classes;
  for (const auto& kv : by_class) {
    classes += (classes.empty() ? "" : ", ") + JsonString(kv.first) +
               ": {\"p50_ms\": " + JsonNumber(Median(kv.second) * 1e3) +
               ", \"count\": " + std::to_string(kv.second.size()) + "}";
  }
  std::string setup_all;
  for (double s : setups) setup_all += (setup_all.empty() ? "" : ", ") + JsonNumber(s);
  out.record = "{" + RecordHead(w, store) +
               ", \"setup_repeats\": " + std::to_string(setups.size()) +
               ", \"setup_s_all\": [" + setup_all + "]" +
               ", \"cold_passes\": " + std::to_string(colds.size()) +
               ", \"peak_rss_mb_after_setup\": " + JsonNumber(rss_setup) +
               ", \"peak_rss_mb_after_cold_pass\": " + JsonNumber(rss_cold) +
               ", \"warm_passes\": " + std::to_string(passes) +
               ", \"warm_ops\": " + std::to_string(ops) +
               ", \"warm_seconds\": " + JsonNumber(busy) +
               ", \"query_tail_percentile\": " + JsonNumber(tail.percentile) +
               ", \"query_tail_samples\": " + std::to_string(tail.samples) +
               ", \"warm_classes\": {" + classes + "}" +
               ", \"error_rate\": " + JsonNumber(error_rate) +
               ", \"failures\": " + checker.FailuresJson() + "}";
  return out;
}

Result<RunResult> RunTraced(Workload& w) {
  const BenchConfig& cfg = w.config();
  trial::SetMetricsEnabled(true);
  Tracer tr;
  Checker checker(w);
  TracedClient traced(w, &tr);
  int run = tr.Begin("run." + cfg.workload);

  // Set-up once, its phases as child spans.
  SetupInfo info;
  int setup = tr.Begin("setup");
  Result<TripleStore> opened = w.Setup(&info);
  tr.End(setup);
  if (!opened.ok()) return opened.status();
  TripleStore store = std::move(opened).value();
  uint64_t t = tr.span(setup).start_ns;
  auto phase = [&](const char* name, double seconds) {
    uint64_t ns = static_cast<uint64_t>(seconds * 1e9);
    tr.Add(name, setup, t, t + ns);
    t += ns;
  };
  if (info.bulk_loaded) {
    phase("loader.read", info.load.read_seconds);
    phase("loader.parse", info.load.parse_seconds);
    phase("loader.merge", info.load.merge_seconds);
  }
  if (info.snapshot_opened) phase("segment.open", info.open.seconds);

  // Cold pass: explicit storage builds first, then the mix.
  LayerSamples cold;
  int cold_span = tr.Begin("cold_pass");
  traced.BuildStorage(store, &cold);
  for (const Op& op : w.Pass(0, store)) traced.Run(op, store, checker, &cold);
  tr.End(cold_span);

  size_t pass = 1;
  // Untraced reference pass at the run's thread count, metrics off.
  trial::SetMetricsEnabled(false);
  Client client(Limits(cfg.threads, w.Adaptive()));
  double untraced_s =
      RunClientPass(w, pass++, store, client, checker).seconds;
  trial::SetMetricsEnabled(true);

  // One pass through the client with metrics on: plan-cache, feedback
  // and pool counters as the production route sees them.
  Registry before;
  RunClientPass(w, pass++, store, client, checker);
  Registry after;

  // Traced warm passes until the measured time is reached.
  std::vector<LayerSamples> warm;
  double traced_busy = 0;
  while (warm.empty() || traced_busy < cfg.seconds) {
    warm.emplace_back();
    int p = tr.Begin("warm_pass");
    for (const Op& op : w.Pass(pass, store)) {
      traced.Run(op, store, checker, &warm.back());
    }
    tr.End(p);
    ++pass;
    traced_busy += warm.back().busy_s;
  }

  // The same mix at one thread, for the parallel speedup.
  trial::SetMetricsEnabled(false);
  Client serial(Limits(1, w.Adaptive()));
  double serial_s = RunClientPass(w, pass++, store, serial, checker).seconds;
  double parallel_s = RunClientPass(w, pass++, store, client, checker).seconds;
  trial::SetMetricsEnabled(true);
  tr.End(run);
  Registry end;

  // ---- fold everything into the per-layer metrics ----
  std::vector<LayerSamples> events = warm;
  events.push_back(cold);
  std::map<std::string, double> m;
  m["loader.read_s"] = info.load.read_seconds;
  m["loader.parse_s"] = info.load.parse_seconds;
  m["loader.merge_s"] = info.load.merge_seconds;
  m["segment.open_ms"] = info.snapshot_opened ? info.open.seconds * 1e3 : 0;
  m["segment.decode_ms"] = end.HistSumMs("segment.decode_ns");
  m["segment.decodes"] = end.Counter("segment.decodes");
  m["segment.bytes_per_triple"] =
      info.snapshot_opened ? Ratio(static_cast<double>(info.open.bytes),
                                   static_cast<double>(info.open.triples))
                           : 0;
  m["storage.perm_build_ms"] =
      PooledMedian(events, &LayerSamples::perm_build_ms);
  m["storage.stats_build_ms"] =
      PooledMedian(events, &LayerSamples::stats_build_ms);
  m["storage.write_ms"] = PooledMedian(events, &LayerSamples::write_ms);
  m["storage.normalize_ms"] =
      PooledMedian(events, &LayerSamples::normalize_ms);
  m["parser.parse_us"] = PooledMedian(warm, &LayerSamples::parse_us);
  m["planner.plan_us"] = PooledMedian(warm, &LayerSamples::plan_us);
  m["planner.root_q_error"] = PooledMedian(warm, &LayerSamples::root_q_error);
  m["planner.max_q_error"] = MedianOverPasses(
      warm, [](const LayerSamples& p) { return p.max_q_error; });
  m["planner.plan_cache_hit_rate"] = HitRate(before, after, "plan_cache");
  m["exec.exec_ms"] = MedianOverPasses(
      warm, [](const LayerSamples& p) { return SumAll(p.exec_ms); });
  m["exec.materialize_ms"] = MedianOverPasses(
      warm, [](const LayerSamples& p) { return SumAll(p.materialize_ms); });
  for (const char* c : kClasses) {
    m[std::string("exec.exec_ms.") + c] =
        ClassMedian(warm, &LayerSamples::exec_ms, c);
    m[std::string("exec.materialize_ms.") + c] =
        ClassMedian(warm, &LayerSamples::materialize_ms, c);
  }
  for (const char* op : kSelfOps) {
    m[std::string("exec.op_self_ms.") + op] = MedianOverPasses(
        warm, [op](const LayerSamples& p) { return SelfMs(p, op); });
  }
  for (const char* route : kStarRoutes) {
    m[std::string("reach.star_self_ms.") + route] = MedianOverPasses(
        warm, [route](const LayerSamples& p) { return SelfMs(p, route); });
  }
  m["exec.rows_examined_per_result"] = MedianOverPasses(
      warm, [](const LayerSamples& p) {
        return Ratio(p.rows_examined, p.result_rows);
      });
  m["exec.peak_rows"] = MedianOverPasses(
      warm, [](const LayerSamples& p) { return p.peak_rows; });
  m["adapt.replans"] = MedianOverPasses(
      warm, [](const LayerSamples& p) { return p.replans; });
  m["adapt.replan_ms"] = MedianOverPasses(
      warm, [](const LayerSamples& p) { return p.replan_ms; });
  m["adapt.feedback_hit_rate"] = HitRate(before, after, "feedback");
  m["reach.index_builds"] = end.Counter("reach.index_builds");
  m["reach.index_build_ms"] = end.HistSumMs("reach.index_build_ns");
  m["reach.dijkstra_settled"] = MedianOverPasses(
      warm, [](const LayerSamples& p) { return p.dijkstra_settled; });
  m["datalog.eval_ms"] = PooledMedian(warm, &LayerSamples::datalog_ms);
  m["pool.queue_wait_ms"] =
      after.HistSumMs("pool.queue_wait_ns") - before.HistSumMs("pool.queue_wait_ns");
  m["pool.tasks"] = after.Counter("pool.tasks") - before.Counter("pool.tasks");
  m["pool.inline_runs"] =
      after.Counter("pool.inline_runs") - before.Counter("pool.inline_runs");
  m["parallel.speedup"] = Ratio(serial_s, parallel_s);
  double layer_ns = 0, query_ns = 0;
  for (const LayerSamples& p : warm) {
    layer_ns += p.layer_ns;
    query_ns += p.query_ns;
  }
  m["trace.coverage"] = Ratio(layer_ns, query_ns);
  m["trace.overhead"] = Ratio(
      MedianOverPasses(warm, [](const LayerSamples& p) { return p.busy_s; }),
      untraced_s);

  RunResult out;
  for (const MetricName& spec : PerLayerMetrics()) {
    out.metrics.push_back({spec.name, m[spec.name], spec.unit});
  }
  out.attempted = checker.attempted();
  out.failed = checker.failed();
  out.correct = out.failed == 0;
  out.record = "{" + RecordHead(w, store) +
               ", \"traced_passes\": " + std::to_string(warm.size()) +
               ", \"error_rate\": " +
               JsonNumber(Ratio(static_cast<double>(out.failed),
                                static_cast<double>(out.attempted))) +
               ", \"failures\": " + checker.FailuresJson() + "}";
  out.trace_json = "{\"record\": " + out.record +
                   ",\n\"spans\": " + tr.ToJson() +
                   ",\n\"registry\": " +
                   trial::MetricsRegistry::Global().RenderJson() + "}\n";
  return out;
}

}  // namespace e2e
