// Sorted materialization of triples: the one place where unsorted triple
// vectors become a sorted, duplicate-free permutation.
//
// Serial inputs take std::sort + std::unique.  Large inputs (by
// ExecOptions::ShouldParallelize) take a splitter (sample) sort on the
// thread pool:
//
//   1. splitters are drawn from a fixed-stride sample of the input;
//   2. the input runs are scattered, in parallel, into one contiguous
//      slice per bucket (bucket-major, run order within a bucket);
//   3. every bucket is sorted and deduped in parallel;
//   4. the deduped buckets are compacted to the front.
//
// The output is the canonical sorted-unique set of the input, so it is
// byte-identical at every thread count whatever splitters were drawn.
// Peak memory is the input plus one output array; owned input runs are
// freed right after the scatter.

#ifndef TRIAL_STORAGE_TRIPLE_SORT_H_
#define TRIAL_STORAGE_TRIPLE_SORT_H_

#include <vector>

#include "storage/triple.h"
#include "storage/triple_index.h"
#include "util/parallel.h"

namespace trial {

/// Sorts the concatenation of `runs` in `order` and drops duplicates.
/// Consumes the runs: a single serial run is sorted in place, several
/// are concatenated first, and the parallel path frees every run once
/// it has been scattered.
std::vector<Triple> SortUnique(IndexOrder order,
                               std::vector<std::vector<Triple>> runs,
                               const ExecOptions& exec);

/// The runs appended in order into one vector (the first run's buffer,
/// grown), freeing each later run as it is copied.
std::vector<Triple> Concatenate(std::vector<std::vector<Triple>> runs);

/// Merges `batch` into `sorted` in place; both are sorted in `order` and
/// duplicate-free, and triples of `batch` already in `sorted` are
/// dropped.  Only the tail from the first insertion point moves, through
/// a k-sized buffer: O(n + k), the write path's alternative to sorting a
/// whole permutation again.
void MergeSortedInto(IndexOrder order, const std::vector<Triple>& batch,
                     std::vector<Triple>* sorted);

/// A copy of `unique` (duplicate-free, in any order) sorted in `order`
/// — the POS / OSP permutation builds, scattered straight from the SPO
/// body, which is left untouched.
std::vector<Triple> SortedCopy(IndexOrder order,
                               const std::vector<Triple>& unique,
                               const ExecOptions& exec);

}  // namespace trial

#endif  // TRIAL_STORAGE_TRIPLE_SORT_H_
