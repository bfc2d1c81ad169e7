// Plan rendering, Explain and ExplainAnalyze: one operator per line,
// children indented two spaces, planner estimates next to executed
// actuals.  The format is stable — golden tests and the CI plan-dump
// artifact parse it loosely (substring checks), so keep changes
// additive.

#include <cstdio>
#include <string>

#include "core/plan/plan.h"
#include "core/plan/profile.h"

namespace trial {
namespace plan {
namespace {

std::string FmtEst(double est) {
  char buf[32];
  if (est < 1e7) {
    std::snprintf(buf, sizeof buf, "%.0f", est);
  } else {
    std::snprintf(buf, sizeof buf, "%.3g", est);
  }
  return buf;
}

// Wall time with a unit that keeps 2-3 significant digits readable
// across the ns..s range the operators actually span.
std::string FmtNs(uint64_t ns) {
  char buf[32];
  if (ns < 10'000) {
    std::snprintf(buf, sizeof buf, "%lluns",
                  static_cast<unsigned long long>(ns));
  } else if (ns < 10'000'000) {
    std::snprintf(buf, sizeof buf, "%.2fus", static_cast<double>(ns) / 1e3);
  } else if (ns < 10'000'000'000ull) {
    std::snprintf(buf, sizeof buf, "%.2fms", static_cast<double>(ns) / 1e6);
  } else {
    std::snprintf(buf, sizeof buf, "%.2fs", static_cast<double>(ns) / 1e9);
  }
  return buf;
}

// One line per operator: the summary and estimate, then what the
// executor recorded.  `analyze` adds the q-error and the profiled span
// fields (ExplainAnalyze).
void Render(const PlanNode& n, int depth, bool analyze, std::string* out) {
  const PlanRuntime& rt = n.runtime;
  out->append(static_cast<size_t>(depth) * 2, ' ');
  AppendNodeSummary(n, out);
  out->append(" est=").append(FmtEst(n.est_rows));
  char buf[96];
  if (rt.executed && rt.rows_known) {
    std::snprintf(buf, sizeof buf, " actual=%zu", rt.actual_rows);
    out->append(buf);
    if (analyze) {
      std::snprintf(buf, sizeof buf, " q=%.2f",
                    QError(n.est_rows, static_cast<double>(rt.actual_rows)));
      out->append(buf);
    }
  } else {
    // "?": executed, but nothing consumed the set yet (an unread root);
    // counting would force a sort the caller chose not to pay.
    out->append(rt.executed ? " actual=?" : " actual=-");
  }
  if (rt.strategy != nullptr) out->append(" (").append(rt.strategy).append(")");
  if (analyze && rt.profiled) {
    out->append(" self=").append(FmtNs(rt.self_ns));
    out->append(" cum=").append(FmtNs(rt.end_ns - rt.start_ns));
    std::snprintf(buf, sizeof buf, " peak=%zu", rt.peak_rows);
    out->append(buf);
  }
  if (rt.executed && n.op == PlanOp::kFixpointStar) {
    std::snprintf(buf, sizeof buf, " rounds=%zu", rt.rounds);
    out->append(buf);
    if (analyze || rt.rounds > 0) {
      std::snprintf(buf, sizeof buf, " (probe=%zu, hash=%zu)",
                    rt.probe_rounds, rt.hash_rounds);
      out->append(buf);
    }
  }
  if (rt.executed && n.op == PlanOp::kDijkstraScan) {
    if (rt.sp_reached) {
      std::snprintf(buf, sizeof buf, " dist=%lld settled=%zu",
                    static_cast<long long>(rt.sp_distance), rt.sp_settled);
      out->append(buf);
    } else {
      out->append(" unreachable");
    }
  }
  out->append("\n");
  for (const PlanPtr& c : n.children) Render(*c, depth + 1, analyze, out);
}

}  // namespace

void AppendNodeSummary(const PlanNode& n, std::string* out) {
  out->append(PlanOpName(n.op));
  switch (n.op) {
    case PlanOp::kIndexScan:
      out->append(" ").append(n.rel_name);
      break;
    case PlanOp::kSelectFilter:
      out->append(" [").append(n.spec.cond.ToString()).append("]");
      break;
    case PlanOp::kIndexProbeJoin:
    case PlanOp::kHashJoin:
    case PlanOp::kMergeJoin:
      out->append(" [").append(n.spec.ToString()).append("]");
      break;
    case PlanOp::kFixpointStar:
      out->append(n.star_right ? " right" : " left");
      out->append(" [").append(n.spec.ToString()).append("]");
      break;
    case PlanOp::kReachFastPath:
      out->append(" same-middle");
      break;
    case PlanOp::kReachIndexScan:
      out->append(" any-path");
      break;
    case PlanOp::kDijkstraScan:
      out->append(" ").append(n.sp_src).append(" -> ");
      out->append(n.sp_dst.empty() ? "*" : n.sp_dst);
      break;
    default:
      break;
  }
  // Predicted access path (probe joins and indexed selections); merge
  // joins render the two sorted-run orders they walk instead.
  if (n.op == PlanOp::kMergeJoin) {
    out->append(" via=")
        .append(IndexOrderName(static_cast<IndexOrder>(n.merge_lcol)))
        .append("/")
        .append(IndexOrderName(static_cast<IndexOrder>(n.merge_rcol)));
  } else if (n.access.prefix > 0) {
    out->append(" via=").append(IndexOrderName(n.access.order));
  }
  if (n.replanned) {
    out->append(" [replanned");
    if (n.replan_obs > 0) {
      char buf[64];
      std::snprintf(buf, sizeof buf, " est=%s→obs=%.0f",
                    FmtEst(n.replan_est).c_str(), n.replan_obs);
      out->append(buf);
    }
    out->append("]");
  }
}

std::string Explain(const PlanNode& root) {
  std::string out;
  Render(root, 0, /*analyze=*/false, &out);
  return out;
}

std::string ExplainAnalyze(const PlanNode& root) {
  std::string out;
  Render(root, 0, /*analyze=*/true, &out);
  return out;
}

}  // namespace plan
}  // namespace trial
