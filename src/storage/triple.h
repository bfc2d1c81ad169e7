// Triple: the unit of data in a triplestore.

#ifndef TRIAL_STORAGE_TRIPLE_H_
#define TRIAL_STORAGE_TRIPLE_H_

#include <cstddef>
#include <cstdint>
#include <tuple>

namespace trial {

/// Dense object id; indexes the store's object dictionary.
using ObjId = uint32_t;

/// A triple (subject, predicate, object).  Twelve bytes; all comparisons
/// are integer comparisons.
struct Triple {
  ObjId s = 0;
  ObjId p = 0;
  ObjId o = 0;

  /// Component access by position 0..2 (paper positions 1..3).
  ObjId operator[](int pos) const { return pos == 0 ? s : pos == 1 ? p : o; }

  friend bool operator==(const Triple& a, const Triple& b) {
    return a.s == b.s && a.p == b.p && a.o == b.o;
  }
  friend bool operator!=(const Triple& a, const Triple& b) { return !(a == b); }
  friend bool operator<(const Triple& a, const Triple& b) {
    return std::tie(a.s, a.p, a.o) < std::tie(b.s, b.p, b.o);
  }
};

struct TripleHash {
  size_t operator()(const Triple& t) const {
    uint64_t h = (uint64_t{t.s} << 32) ^ (uint64_t{t.p} << 16) ^ t.o;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<size_t>(h);
  }
};

}  // namespace trial

#endif  // TRIAL_STORAGE_TRIPLE_H_
