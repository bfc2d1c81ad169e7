#include "storage/triple_sort.h"

#include <algorithm>
#include <cstdint>

namespace trial {
namespace {

// Sample entries drawn per bucket.  Oversampling evens out the bucket
// sizes; the sample itself is a few hundred triples, sorted serially.
constexpr size_t kOversample = 32;

// The comparator of `O`, resolved at compile time.  Every order is a
// rotation of (s, p, o): SPO leads with column 0, POS with 1, OSP with 2.
// Written without short-circuits so the bucket search compiles to
// straight-line code.
template <IndexOrder O>
struct OrderLess {
  static constexpr int k0 = static_cast<int>(O);
  static constexpr int k1 = (k0 + 1) % 3;
  static constexpr int k2 = (k0 + 2) % 3;

  bool operator()(const Triple& a, const Triple& b) const {
    const uint64_t ka = (uint64_t{a[k0]} << 32) | a[k1];
    const uint64_t kb = (uint64_t{b[k0]} << 32) | b[k1];
    return (ka < kb) | ((ka == kb) & (a[k2] < b[k2]));
  }
};

// The input cut into slices of at most total/want triples, so the
// scatter load-balances even when a single run holds everything.
std::vector<TripleRange> Pieces(const std::vector<TripleRange>& runs,
                                size_t total, size_t want) {
  const size_t piece = std::max<size_t>(1, (total + want - 1) / want);
  std::vector<TripleRange> out;
  for (const TripleRange& r : runs) {
    for (size_t off = 0; off < r.size(); off += piece) {
      out.push_back(
          {r.first + off, r.first + std::min(off + piece, r.size())});
    }
  }
  return out;
}

// Up to `buckets - 1` strictly increasing splitters, taken from a
// fixed-stride sample of the concatenated runs.  Repeated sample values
// (a hot key, heavy duplicates) collapse into one splitter, so there
// may be fewer buckets than asked for.
template <IndexOrder O>
std::vector<Triple> Splitters(const std::vector<TripleRange>& runs,
                              size_t total, size_t buckets) {
  const OrderLess<O> less;
  const size_t samples = std::min(total, buckets * kOversample);
  std::vector<Triple> sample;
  sample.reserve(samples);
  size_t run = 0, base = 0;
  for (size_t k = 0; k < samples; ++k) {
    const size_t pos = (2 * k + 1) * total / (2 * samples);
    while (pos >= base + runs[run].size()) base += runs[run++].size();
    sample.push_back(runs[run].first[pos - base]);
  }
  std::sort(sample.begin(), sample.end(), less);
  std::vector<Triple> split;
  for (size_t b = 1; b < buckets; ++b) {
    const Triple& s = sample[b * samples / buckets];
    if (split.empty() || less(split.back(), s)) split.push_back(s);
  }
  return split;
}

// The parallel path.  `owned`, when given, holds the storage behind
// `runs` and is released as soon as the scatter has copied it out.
template <IndexOrder O>
std::vector<Triple> SplitterSort(const std::vector<TripleRange>& runs,
                                 size_t total, bool dedup,
                                 const ExecOptions& exec,
                                 std::vector<std::vector<Triple>>* owned) {
  const OrderLess<O> less;
  const size_t threads = exec.EffectiveThreads();
  std::vector<Triple> split =
      Splitters<O>(runs, total, threads * kChunksPerThread);
  // Padding to 2^k - 1 splitters with the largest triple makes the
  // bucket search a fixed-depth descent without data-dependent branches
  // (the count and scatter passes run it once per triple).  A padding
  // bucket can only receive copies of that largest triple, which sorts
  // last anyway.
  size_t nb = 1;
  while (nb < split.size() + 1) nb *= 2;
  split.resize(nb - 1, Triple{UINT32_MAX, UINT32_MAX, UINT32_MAX});
  auto bucket_of = [&](const Triple& t) {
    size_t b = 0;  // number of splitters <= t, i.e. upper_bound
    for (size_t step = nb / 2; step > 0; step /= 2) {
      b += step * static_cast<size_t>(!less(t, split[b + step - 1]));
    }
    return b;
  };
  const std::vector<TripleRange> pieces =
      Pieces(runs, total, threads * kChunksPerThread);

  // Per-piece bucket histograms, then bucket-major offsets: bucket b of
  // piece p starts after all earlier buckets and after bucket b of the
  // earlier pieces.
  std::vector<size_t> offset(pieces.size() * nb, 0);
  ParallelFor(pieces.size(), threads, [&](size_t p) {
    std::vector<size_t> count(nb, 0);
    for (const Triple& t : pieces[p]) ++count[bucket_of(t)];
    std::copy(count.begin(), count.end(), offset.begin() + p * nb);
  });
  std::vector<size_t> bucket_begin(nb + 1, 0);
  size_t cursor = 0;
  for (size_t b = 0; b < nb; ++b) {
    bucket_begin[b] = cursor;
    for (size_t p = 0; p < pieces.size(); ++p) {
      const size_t n = offset[p * nb + b];
      offset[p * nb + b] = cursor;
      cursor += n;
    }
  }
  bucket_begin[nb] = cursor;

  std::vector<Triple> out(total);
  ParallelFor(pieces.size(), threads, [&](size_t p) {
    std::vector<size_t> next(offset.begin() + p * nb,
                             offset.begin() + (p + 1) * nb);
    for (const Triple& t : pieces[p]) out[next[bucket_of(t)]++] = t;
  });
  if (owned != nullptr) std::vector<std::vector<Triple>>().swap(*owned);

  std::vector<size_t> kept(nb, 0);
  ParallelFor(nb, threads, [&](size_t b) {
    Triple* first = out.data() + bucket_begin[b];
    Triple* last = out.data() + bucket_begin[b + 1];
    std::sort(first, last, less);
    kept[b] = static_cast<size_t>(
        (dedup ? std::unique(first, last) : last) - first);
  });

  // Compaction moves each bucket's survivors down to the end of the
  // previous one; destinations never pass their sources, so a forward
  // copy in bucket order is safe.
  size_t size = kept[0];
  for (size_t b = 1; b < nb; ++b) {
    if (bucket_begin[b] != size) {
      std::copy(out.begin() + bucket_begin[b],
                out.begin() + bucket_begin[b] + kept[b], out.begin() + size);
    }
    size += kept[b];
  }
  out.resize(size);
  return out;
}

template <IndexOrder O>
std::vector<Triple> SortUniqueIn(std::vector<std::vector<Triple>> runs,
                                 const ExecOptions& exec) {
  size_t total = 0;
  for (const std::vector<Triple>& r : runs) total += r.size();
  if (total == 0) return {};
  if (!exec.ShouldParallelize(total)) {
    std::vector<Triple> v = Concatenate(std::move(runs));
    std::sort(v.begin(), v.end(), OrderLess<O>());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
  }
  std::vector<TripleRange> ranges;
  ranges.reserve(runs.size());
  for (const std::vector<Triple>& r : runs) {
    ranges.push_back({r.data(), r.data() + r.size()});
  }
  return SplitterSort<O>(ranges, total, /*dedup=*/true, exec, &runs);
}

template <IndexOrder O>
std::vector<Triple> SortedCopyIn(const std::vector<Triple>& unique,
                                 const ExecOptions& exec) {
  if (!exec.ShouldParallelize(unique.size())) {
    std::vector<Triple> v = unique;
    std::sort(v.begin(), v.end(), OrderLess<O>());
    return v;
  }
  return SplitterSort<O>({{unique.data(), unique.data() + unique.size()}},
                         unique.size(), /*dedup=*/false, exec, nullptr);
}

template <IndexOrder O>
void MergeSortedIntoIn(const std::vector<Triple>& batch,
                       std::vector<Triple>* sorted) {
  if (batch.empty()) return;
  const OrderLess<O> less;
  const size_t mid = sorted->size();
  sorted->insert(sorted->end(), batch.begin(), batch.end());
  // Everything before the first batch triple's slot is already final.
  const auto from = std::lower_bound(
      sorted->begin(), sorted->begin() + mid, batch.front(), less);
  std::inplace_merge(from, sorted->begin() + mid, sorted->end(), less);
  sorted->erase(std::unique(from, sorted->end()), sorted->end());
}

}  // namespace

std::vector<Triple> Concatenate(std::vector<std::vector<Triple>> runs) {
  if (runs.empty()) return {};
  size_t total = 0;
  for (const std::vector<Triple>& r : runs) total += r.size();
  std::vector<Triple> out = std::move(runs[0]);
  out.reserve(total);
  for (size_t i = 1; i < runs.size(); ++i) {
    out.insert(out.end(), runs[i].begin(), runs[i].end());
    std::vector<Triple>().swap(runs[i]);
  }
  return out;
}

std::vector<Triple> SortUnique(IndexOrder order,
                               std::vector<std::vector<Triple>> runs,
                               const ExecOptions& exec) {
  switch (order) {
    case IndexOrder::kSPO:
      return SortUniqueIn<IndexOrder::kSPO>(std::move(runs), exec);
    case IndexOrder::kPOS:
      return SortUniqueIn<IndexOrder::kPOS>(std::move(runs), exec);
    case IndexOrder::kOSP:
      return SortUniqueIn<IndexOrder::kOSP>(std::move(runs), exec);
  }
  return {};
}

void MergeSortedInto(IndexOrder order, const std::vector<Triple>& batch,
                     std::vector<Triple>* sorted) {
  switch (order) {
    case IndexOrder::kSPO:
      return MergeSortedIntoIn<IndexOrder::kSPO>(batch, sorted);
    case IndexOrder::kPOS:
      return MergeSortedIntoIn<IndexOrder::kPOS>(batch, sorted);
    case IndexOrder::kOSP:
      return MergeSortedIntoIn<IndexOrder::kOSP>(batch, sorted);
  }
}

std::vector<Triple> SortedCopy(IndexOrder order,
                               const std::vector<Triple>& unique,
                               const ExecOptions& exec) {
  switch (order) {
    case IndexOrder::kSPO: return SortedCopyIn<IndexOrder::kSPO>(unique, exec);
    case IndexOrder::kPOS: return SortedCopyIn<IndexOrder::kPOS>(unique, exec);
    case IndexOrder::kOSP: return SortedCopyIn<IndexOrder::kOSP>(unique, exec);
  }
  return {};
}

}  // namespace trial
