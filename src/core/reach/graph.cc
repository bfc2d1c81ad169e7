#include "core/reach/graph.h"

#include <algorithm>
#include <cstdint>

namespace trial {
namespace reach {

NodeMap::NodeMap(const TripleSet& base) {
  // The node list is the sorted set of subjects and objects.  A bitmap
  // over the id range collects it in one pass when the range spans at
  // most about 64 ids per triple; a base spread thinly over a much
  // larger id space sorts its endpoints instead.
  const std::vector<Triple>& spo = base.triples();
  size_t top = 0;  // the largest id
  for (const Triple& t : spo) top = std::max<size_t>(top, std::max(t.s, t.o));
  const size_t words = top / 64 + 1;
  if (words <= spo.size() + 1024) {
    std::vector<uint64_t> bits(words, 0);
    for (const Triple& t : spo) {
      bits[t.s / 64] |= uint64_t{1} << (t.s % 64);
      bits[t.o / 64] |= uint64_t{1} << (t.o % 64);
    }
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t b = bits[w]; b != 0; b &= b - 1) {
        nodes_.push_back(static_cast<ObjId>(w * 64 + __builtin_ctzll(b)));
      }
    }
  } else {
    nodes_.reserve(2 * spo.size());
    for (const Triple& t : spo) {
      nodes_.push_back(t.s);
      nodes_.push_back(t.o);
    }
    std::sort(nodes_.begin(), nodes_.end());
    nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
  }
  if (nodes_.empty()) return;
  const size_t n = nodes_.size();
  if (top >= 4 * n + 1024) {
    while ((top >> shift_) + 1 > 2 * n) ++shift_;
  }
  first_.assign((top >> shift_) + 2, 0);
  for (ObjId o : nodes_) ++first_[(o >> shift_) + 1];
  for (size_t b = 1; b < first_.size(); ++b) first_[b] += first_[b - 1];
}

Csr Csr::FromSpo(const std::vector<Triple>& spo, const NodeMap& ids) {
  Csr g;
  g.off.assign(ids.size() + 1, 0);
  g.to.resize(spo.size());
  // SPO is sorted by subject and dense order == raw order, so subject
  // runs appear dense-ascending: a degree prefix sum gives each run's
  // start at exactly its SPO position, making edge index == SPO index.
  for (const Triple& t : spo) ++g.off[ids.Dense(t.s) + 1];
  for (size_t u = 1; u < g.off.size(); ++u) g.off[u] += g.off[u - 1];
  for (size_t i = 0; i < spo.size(); ++i) g.to[i] = ids.Dense(spo[i].o);
  return g;
}

}  // namespace reach
}  // namespace trial
