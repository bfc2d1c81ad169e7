#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <unordered_map>
#include <utility>

#include "core/eval.h"
#include "core/parser.h"
#include "core/plan/plan.h"
#include "datalog/eval.h"
#include "datalog/from_trial.h"
#include "datalog/parser.h"
#include "datalog/to_trial.h"
#include "graph/generators.h"
#include "loader/ntriples_writer.h"
#include "util/rng.h"

namespace e2e {
namespace {

using trial::Result;
using trial::Status;
using trial::TripleSet;
using trial::TripleStore;

const char kBase[] = "http://db.example.org/";

std::string Term(const char* stem, size_t i) {
  return kBase + std::string(stem) + std::to_string(i);
}

// The IRI of predicate rank k (rank 0 is the most frequent).
std::string Pred(size_t k) { return Term("p", k); }

std::string Quote(const std::string& name) { return "\"" + name + "\""; }

// Inputs are complete once this marker exists; a generation cut short
// is redone on the next run.
const char kReady[] = "READY";

bool Ready(const std::string& dir) {
  return std::filesystem::exists(std::filesystem::path(dir) / kReady);
}

Status MarkReady(const std::string& dir) {
  std::FILE* f =
      std::fopen((std::filesystem::path(dir) / kReady).string().c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot write marker in " + dir);
  std::fclose(f);
  return Status::OK();
}

// Per-pass and per-batch generator streams, independent of each other.
trial::Rng StreamRng(uint64_t seed, uint64_t stream, uint64_t index) {
  return trial::Rng(Mix64(seed * 0x9e3779b97f4a7c15ULL + stream) ^
                    Mix64(index + 1));
}

// ---- the 10^6-triple Zipf store shared by bgp_mix and update_mix -------

trial::SyntheticNTriplesOptions ZipfStoreOptions(const BenchConfig& cfg) {
  trial::SyntheticNTriplesOptions o;
  o.num_triples = cfg.tiny ? 20'000 : 1'000'000;
  o.zipf_p = 1.2;
  o.base = kBase;
  o.seed = cfg.seed;
  return o;
}

size_t NumSubjects(const BenchConfig& cfg) {
  return ZipfStoreOptions(cfg).num_triples / 8 + 4;
}
size_t NumPredicates(const BenchConfig& cfg) {
  return ZipfStoreOptions(cfg).num_triples / 64 + 4;
}
size_t NumObjects(const BenchConfig& cfg) {
  return ZipfStoreOptions(cfg).num_triples / 8 + 4;
}

// Zipf (exponent 1) draw over subjects that occur in the store, so a
// point query never names an unknown object.
class SubjectPicker {
 public:
  explicit SubjectPicker(const BenchConfig& cfg)
      : zipf_(NumSubjects(cfg), 1.0) {}
  std::string Pick(trial::Rng* rng, const TripleStore& store) const {
    std::string name;
    for (int attempt = 0; attempt < 64; ++attempt) {
      name = Term("s", zipf_.Sample(rng));
      if (store.FindObject(name) != trial::kInvalidIntern) break;
    }
    return name;
  }

 private:
  trial::ZipfRankSampler zipf_;
};

Op TriAL(std::string cls, std::string text) {
  Op op;
  op.cls = std::move(cls);
  op.text = std::move(text);
  return op;
}

Op PointOp(const std::string& subject) {
  return TriAL("point", "sigma[1=" + Quote(subject) + "](E)");
}

Op PointHopOp(const std::string& subject) {
  return TriAL("point_hop", "(sigma[1=" + Quote(subject) +
                                "](E) JOIN[1,2,3'; 3=1'] E)");
}

std::string PredSelect(size_t k) {
  return "sigma[2=" + Quote(Pred(k)) + "](E)";
}

// SP²Bench Q2 shape: three predicates on one subject.
Op Star3Op() {
  return TriAL("star3", "((" + PredSelect(0) + " JOIN[1,2,3; 1=1'] " +
                            PredSelect(1) + ") JOIN[1,2,3; 1=1'] " +
                            PredSelect(2) + ")");
}

// A mid-rank predicate for pred_path: frequent enough to form paths,
// rare enough that its closure stays small.
size_t PredPathRank(const BenchConfig& cfg) { return cfg.tiny ? 3 : 20; }

Op PredPathOp(const BenchConfig& cfg) {
  return TriAL("pred_path",
               "(" + PredSelect(PredPathRank(cfg)) + " JOIN[1,2,3'; 3=1'])*");
}

Status SaveZipfSnapshot(const BenchConfig& cfg, const std::string& path) {
  std::string doc = trial::SyntheticNTriples(ZipfStoreOptions(cfg));
  trial::BulkLoadOptions lo;
  lo.num_threads = cfg.threads;
  TRIAL_ASSIGN_OR_RETURN(TripleStore store, trial::BulkLoadNTriples(doc, lo));
  return trial::SaveStoreSnapshot(store, path);
}

Result<TripleStore> OpenSnapshot(const std::string& path, SetupInfo* info) {
  double t0 = NowSeconds();
  Result<TripleStore> store =
      trial::OpenStoreSnapshot(path, {}, &info->open);
  info->seconds = NowSeconds() - t0;
  info->snapshot_opened = true;
  return store;
}

std::string ZipfSizes(const BenchConfig& cfg, const TripleStore& store) {
  return "\"store_triples\": " + std::to_string(store.TotalTriples()) +
         ", \"store_objects\": " + std::to_string(store.NumObjects()) +
         ", \"subjects\": " + std::to_string(NumSubjects(cfg)) +
         ", \"predicates\": " + std::to_string(NumPredicates(cfg)) +
         ", \"zipf_p\": 1.2";
}

// ---- bgp_mix ------------------------------------------------------------

class BgpMix final : public Workload {
 public:
  using Workload::Workload;

  std::string NtPath() const { return cfg_.data_dir + "/store.nt"; }

  Status Prepare() override {
    if (Ready(cfg_.data_dir)) return Status::OK();
    TRIAL_RETURN_IF_ERROR(
        trial::WriteSyntheticNTriples(NtPath(), ZipfStoreOptions(cfg_)));
    return MarkReady(cfg_.data_dir);
  }

  Result<TripleStore> Setup(SetupInfo* info) override {
    trial::BulkLoadOptions lo;
    lo.num_threads = cfg_.threads;
    double t0 = NowSeconds();
    Result<TripleStore> store =
        trial::BulkLoadNTriplesFile(NtPath(), lo, &info->load);
    info->seconds = NowSeconds() - t0;
    info->bulk_loaded = true;
    return store;
  }

  int SetupRepeats() const override { return 3; }

  // One pass: 17 ops.  Point lookups are the majority, so the median
  // latency falls inside them; the joins take the time, and the cyclic
  // query runs twice so the tail percentile falls inside its latencies
  // rather than on a class boundary.  Between two uses of a fixed-shape
  // query at most 15 other distinct texts run, so the 16-entry plan
  // cache keeps the fixed shapes while most Zipf-drawn point constants
  // miss it.
  std::vector<Op> Pass(size_t index, const TripleStore& store) const override {
    trial::Rng rng = StreamRng(cfg_.seed, 1, index);
    SubjectPicker subjects(cfg_);
    auto point = [&] { return PointOp(subjects.Pick(&rng, store)); };
    const Op triangle = TriAL(
        "triangle", "((E JOIN[1,2,3'; 3=1'] E) JOIN[1,2,3; 3=1', 1=3'] E)");
    std::vector<Op> ops;
    ops.push_back(point());
    ops.push_back(Star3Op());
    ops.push_back(point());
    ops.push_back(PointHopOp(subjects.Pick(&rng, store)));
    ops.push_back(point());
    ops.push_back(TriAL("hop2", "(E JOIN[1,2,3'; 3=1'] E)"));
    ops.push_back(point());
    ops.push_back(triangle);
    ops.push_back(point());
    ops.push_back(TriAL("chain3", "((" + PredSelect(0) +
                                      " JOIN[1,2,3'; 3=1'] " + PredSelect(1) +
                                      ") JOIN[1,2,3'; 3=1'] " + PredSelect(2) +
                                      ")"));
    ops.push_back(point());
    ops.push_back(triangle);
    ops.push_back(point());
    ops.push_back(PredPathOp(cfg_));
    ops.push_back(point());
    ops.push_back(point());
    return ops;
  }

  CheckRoute RouteFor(const Op&) const override {
    return CheckRoute::kSerialPlan;
  }

  std::string SizesJson(const TripleStore& store) const override {
    return ZipfSizes(cfg_, store);
  }
};

// ---- transport_paths ----------------------------------------------------

trial::TransportOptions TransportOpts(const BenchConfig& cfg) {
  trial::TransportOptions o;
  o.num_cities = cfg.tiny ? 200 : 2000;
  o.num_services = o.num_cities / 10 + 3;
  o.num_companies = 4;
  o.hierarchy_depth = 2;
  o.extra_edge_fraction = 0.6;
  o.seed = cfg.seed;
  return o;
}

// The same-operator program of `datalog_cli --demo`.
const char kSameOperatorProgram[] = R"(
  hopo(X, C, Y) :- E(X, S, Y), E(S, P, C), P = part_of.
  hopo(X, P, Y) :- E(X, P, Y), P = part_of.
  opr(X, C, Y)  :- hopo(X, C, Y).
  opr(X, C2, Y) :- opr(X, C, Y), hopo(C, P, C2), P = part_of.
  ans(X, C, Z)  :- opr(X, C, Z), C != part_of.
)";

class TransportPaths final : public Workload {
 public:
  using Workload::Workload;

  std::string SnapPath() const { return cfg_.data_dir + "/transport.trial"; }

  Status Prepare() override {
    if (Ready(cfg_.data_dir)) return Status::OK();
    TripleStore store = trial::TransportNetwork(TransportOpts(cfg_));
    TRIAL_RETURN_IF_ERROR(trial::SaveStoreSnapshot(store, SnapPath()));
    return MarkReady(cfg_.data_dir);
  }

  Result<TripleStore> Setup(SetupInfo* info) override {
    return OpenSnapshot(SnapPath(), info);
  }

  // A sub-millisecond open: many repeats keep its median steady.
  int SetupRepeats() const override { return 31; }

  // One pass: 12 ops.  The Procedure 3 star (reach_derived) runs twice
  // so the tail percentile falls inside its latencies; the indexed star
  // (reach_any) runs six times so the median falls inside its latencies,
  // which vary least from seed to seed.
  std::vector<Op> Pass(size_t, const TripleStore&) const override {
    const Op any = TriAL("reach_any", "(E JOIN[1,2,3'; 3=1'])*");
    const Op derived = TriAL(
        "reach_derived", "(sigma[2!=\"part_of\"](E) JOIN[1,2,3'; 3=1'])*");
    Op sp;
    sp.cls = "sp_dijkstra";
    sp.kind = OpKind::kShortestPath;
    sp.src = "city0";
    sp.dst = "city" + std::to_string(TransportOpts(cfg_).num_cities - 1);
    Op prog;
    prog.cls = "datalog_opr";
    prog.kind = OpKind::kDatalog;
    prog.text = kSameOperatorProgram;
    return {any,
            sp,
            any,
            prog,
            any,
            derived,
            any,
            TriAL("reach_same_company", "(E JOIN[1,2,3'; 3=1', 2=2'])*"),
            any,
            TriAL("query_q",
                  "((E JOIN[1,3',3; 2=1'])* JOIN[1,2,3'; 3=1', 2=2'])*"),
            any,
            derived};
  }

  CheckRoute RouteFor(const Op& op) const override {
    switch (op.kind) {
      case OpKind::kDatalog: return CheckRoute::kTranslated;
      case OpKind::kShortestPath: return CheckRoute::kBfsPath;
      default: break;
    }
    // The Datalog route saturates the any-path closures (millions of
    // rows) and query Q's nested star far too slowly to finish inside a
    // run; those classes are checked on the 1-thread plan instead.
    return op.cls == "reach_same_company" ? CheckRoute::kDatalog
                                          : CheckRoute::kSerialPlan;
  }

  std::string SizesJson(const TripleStore& store) const override {
    return "\"store_triples\": " + std::to_string(store.TotalTriples()) +
           ", \"store_objects\": " + std::to_string(store.NumObjects()) +
           ", \"cities\": " + std::to_string(TransportOpts(cfg_).num_cities);
  }
};

// ---- update_mix ---------------------------------------------------------

class UpdateMix final : public Workload {
 public:
  using Workload::Workload;

  std::string SnapPath() const { return cfg_.data_dir + "/store.trial"; }

  Status Prepare() override {
    if (Ready(cfg_.data_dir)) return Status::OK();
    TRIAL_RETURN_IF_ERROR(SaveZipfSnapshot(cfg_, SnapPath()));
    return MarkReady(cfg_.data_dir);
  }

  Result<TripleStore> Setup(SetupInfo* info) override {
    return OpenSnapshot(SnapPath(), info);
  }

  int SetupRepeats() const override { return 11; }
  // A short cold pass (about 0.5 s): more repeats keep its median steady.
  int ColdRepeats() const override { return 7; }

  size_t BatchSize() const { return cfg_.tiny ? 100 : 1000; }

  // A write batch shaped like the store: uniform subjects, Zipf
  // predicates, a quarter of the objects linking back to subjects.
  Op WriteOp(size_t index, size_t slot) const {
    trial::Rng rng = StreamRng(cfg_.seed, 3, index * 8 + slot);
    trial::ZipfRankSampler preds(NumPredicates(cfg_), 1.2);
    Op op;
    op.cls = "write";
    op.kind = OpKind::kWrite;
    op.batch.reserve(BatchSize());
    for (size_t i = 0; i < BatchSize(); ++i) {
      std::string s = Term("s", rng.Below(NumSubjects(cfg_)));
      std::string p = Pred(preds.Sample(&rng));
      std::string o = rng.Unit() < 0.25 ? Term("s", rng.Below(NumSubjects(cfg_)))
                                        : Term("o", rng.Below(NumObjects(cfg_)));
      op.batch.push_back({std::move(s), std::move(p), std::move(o)});
    }
    return op;
  }

  // Every read follows a write, so each pays the rebuilds the write
  // forced.
  std::vector<Op> Pass(size_t index, const TripleStore& store) const override {
    trial::Rng rng = StreamRng(cfg_.seed, 2, index);
    SubjectPicker subjects(cfg_);
    std::vector<Op> ops;
    ops.push_back(WriteOp(index, 0));
    ops.push_back(PointOp(subjects.Pick(&rng, store)));
    ops.push_back(WriteOp(index, 1));
    ops.push_back(Star3Op());
    ops.push_back(WriteOp(index, 2));
    ops.push_back(PredPathOp(cfg_));
    return ops;
  }

  bool Adaptive() const override { return true; }
  CheckRoute RouteFor(const Op&) const override {
    return CheckRoute::kSerialPlan;
  }
  std::string SizesJson(const TripleStore& store) const override {
    return ZipfSizes(cfg_, store) +
           ", \"write_batch\": " + std::to_string(BatchSize());
  }
};

// ---- second routes ------------------------------------------------------

trial::ExecLimits Serial() { return trial::ExecLimits{}; }

Result<Answer> SerialPlanAnswer(const trial::ExprPtr& e,
                                const TripleStore& store) {
  TRIAL_RETURN_IF_ERROR(trial::ValidateExpr(e));
  trial::plan::PlanPtr pl = trial::plan::PlanExpr(e, store);
  TRIAL_ASSIGN_OR_RETURN(TripleSet r,
                         trial::plan::ExecutePlan(*pl, store, Serial()));
  return Summarize(r);
}

// Hop count of a shortest src -> dst path over E's projected graph, or
// -1 when dst is unreachable.
int64_t BfsDistance(const TripleStore& store, const std::string& src,
                    const std::string& dst) {
  const TripleSet* rel = store.FindRelation("E");
  trial::ObjId s = store.FindObject(src);
  trial::ObjId d = store.FindObject(dst);
  if (rel == nullptr || s == trial::kInvalidIntern ||
      d == trial::kInvalidIntern) {
    return -1;
  }
  std::unordered_map<trial::ObjId, std::vector<trial::ObjId>> adj;
  for (const trial::Triple& t : *rel) adj[t.s].push_back(t.o);
  std::unordered_map<trial::ObjId, int64_t> dist{{s, 0}};
  std::deque<trial::ObjId> queue{s};
  while (!queue.empty()) {
    trial::ObjId u = queue.front();
    queue.pop_front();
    if (u == d) return dist[u];
    for (trial::ObjId v : adj[u]) {
      if (dist.emplace(v, dist[u] + 1).second) queue.push_back(v);
    }
  }
  return -1;
}

// True when `edges` are exactly the edges of one walk src -> dst over
// triples of E.
bool IsPath(const TripleSet& edges, const TripleStore& store,
            const std::string& src, const std::string& dst) {
  const TripleSet* rel = store.FindRelation("E");
  trial::ObjId at = store.FindObject(src);
  trial::ObjId d = store.FindObject(dst);
  if (rel == nullptr || edges.empty()) return false;
  std::unordered_map<trial::ObjId, trial::Triple> next;
  for (const trial::Triple& t : edges) {
    if (!rel->Contains(t) || !next.emplace(t.s, t).second) return false;
  }
  for (size_t step = 0; step < edges.size(); ++step) {
    auto it = next.find(at);
    if (it == next.end()) return false;
    at = it->second.o;
  }
  return at == d;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const BenchConfig& cfg) {
  if (cfg.workload == "bgp_mix") return std::make_unique<BgpMix>(cfg);
  if (cfg.workload == "transport_paths") {
    return std::make_unique<TransportPaths>(cfg);
  }
  if (cfg.workload == "update_mix") return std::make_unique<UpdateMix>(cfg);
  return nullptr;
}

Client::Client(const trial::ExecLimits& limits) : limits_(limits) {
  trial::EvalOptions eo;
  static_cast<trial::ExecLimits&>(eo) = limits;
  eval_ = trial::MakeSmartEvaluator(eo);
}

Result<TripleSet> Client::Run(const Op& op, TripleStore& store) {
  Result<TripleSet> out = TripleSet();
  switch (op.kind) {
    case OpKind::kTriAL: {
      TRIAL_ASSIGN_OR_RETURN(trial::ExprPtr e, trial::ParseTriAL(op.text, &store));
      out = eval_->Eval(e, store);
      break;
    }
    case OpKind::kDatalog: {
      TRIAL_ASSIGN_OR_RETURN(trial::datalog::Program p,
                             trial::datalog::ParseProgram(op.text));
      trial::datalog::DatalogOptions dopts;
      static_cast<trial::ExecLimits&>(dopts) = limits_;
      out = trial::datalog::EvalProgram(p, store, "ans", dopts);
      break;
    }
    case OpKind::kShortestPath: {
      trial::plan::PlanPtr pl =
          trial::plan::PlanShortestPath(store, "E", op.src, op.dst);
      out = trial::plan::ExecutePlan(*pl, store, limits_);
      break;
    }
    case OpKind::kWrite:
      ApplyWrite(op, store);
      return TripleSet();
  }
  // The first read of a result normalizes it: part of what a client
  // waits for.
  if (out.ok()) (void)out->size();
  return out;
}

void ApplyWrite(const Op& op, TripleStore& store) {
  trial::RelId rel = store.AddRelation("E");
  std::vector<trial::Triple> batch;
  batch.reserve(op.batch.size());
  for (const auto& t : op.batch) {
    batch.push_back({store.InternObject(t[0]), store.InternObject(t[1]),
                     store.InternObject(t[2])});
  }
  store.BulkAppend(rel, std::move(batch));
}

Result<Answer> ReferenceAnswer(const Op& op, const TripleStore& store,
                               CheckRoute route) {
  switch (route) {
    case CheckRoute::kSerialPlan: {
      TRIAL_ASSIGN_OR_RETURN(trial::ExprPtr e, trial::ParseTriAL(op.text, &store));
      return SerialPlanAnswer(e, store);
    }
    case CheckRoute::kDatalog: {
      TRIAL_ASSIGN_OR_RETURN(trial::ExprPtr e, trial::ParseTriAL(op.text, &store));
      TRIAL_ASSIGN_OR_RETURN(trial::datalog::DatalogTranslation tr,
                             trial::datalog::TriALToDatalog(e, store));
      trial::datalog::DatalogOptions serial;
      TRIAL_ASSIGN_OR_RETURN(
          TripleSet r,
          trial::datalog::EvalProgram(tr.program, store, tr.answer_pred, serial));
      return Summarize(r);
    }
    case CheckRoute::kTranslated: {
      TRIAL_ASSIGN_OR_RETURN(trial::datalog::Program p,
                             trial::datalog::ParseProgram(op.text));
      TRIAL_ASSIGN_OR_RETURN(trial::ExprPtr e,
                             trial::datalog::ProgramToTriAL(p, store, "ans"));
      return SerialPlanAnswer(e, store);
    }
    case CheckRoute::kBfsPath: {
      int64_t d = BfsDistance(store, op.src, op.dst);
      if (d < 0) return Answer{};
      return Answer{static_cast<size_t>(d), 1};
    }
  }
  return Status::Internal("unknown check route");
}

Answer ObservedAnswer(const Op& op, const TripleSet& result,
                      const TripleStore& store) {
  if (op.kind != OpKind::kShortestPath) return Summarize(result);
  if (result.empty()) return Answer{};
  return Answer{result.size(), IsPath(result, store, op.src, op.dst) ? 1u : 0u};
}

}  // namespace e2e
