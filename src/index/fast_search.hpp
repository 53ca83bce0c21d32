// Optimized native search kernels for the sorted array (Method C-3's
// slave structure on real hardware).
//
// The classic binary search mispredicts ~every probe; on a cache-resident
// partition the branch misses, not the memory, dominate. Once the
// partition outgrows L2 the memory system takes over instead: every
// probe is a dependent cache miss, and the only way to go faster is to
// overlap misses (memory-level parallelism). The kernel menu below
// covers both regimes; all entries are exact drop-in replacements for
// std::upper_bound:
//
//  * branchless_upper_bound — the "halving" search, written as a
//    select so it could compile to cmov. GCC 12 at -O2 emits a
//    data-dependent jb/ja/jbe instead (no cmov; check with g++ -S), so
//    today it still mispredicts.
//  * eytzinger_upper_bound (eytzinger.hpp) — the BFS layout puts a
//    node's children adjacent, so the top levels share a few lines.
//  * interleaved batch kernels (batched_search.hpp) — advance W
//    independent searches in lockstep so W cache misses are in flight
//    at once instead of serializing.
//
// These are native-only (no probe instrumentation): the simulator charges
// comparisons via the machine's hot_compare constant, which already
// abstracts the branch behaviour — which is also why kernel choice never
// changes a simulated report, only native wall time.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>

#include "src/util/types.hpp"

namespace dici::index {

/// Which exact upper_bound kernel a native slave runs on its shard. All
/// of them return identical ranks for identical inputs; they differ only
/// in speed. kStd/kBranchless work a sorted array one query at a time;
/// kEytzinger works the BFS-reordered copy (eytzinger.hpp); the kBatched
/// pair interleaves W queries in lockstep over the respective layout
/// (batched_search.hpp).
enum class SearchKernel {
  kStdUpperBound,
  kBranchless,
  kEytzinger,
  kBatchedBranchless,
  kBatchedEytzinger,
};

/// The physical key order a kernel probes. Every index keeps the sorted
/// copy (routing, merging, the kSorted kernels); the Eytzinger copy is
/// built alongside it when an eytzinger kernel is configured.
enum class KeyLayout { kSorted, kEytzinger };

inline constexpr std::array<SearchKernel, 5> kAllSearchKernels = {
    SearchKernel::kStdUpperBound,     SearchKernel::kBranchless,
    SearchKernel::kEytzinger,         SearchKernel::kBatchedBranchless,
    SearchKernel::kBatchedEytzinger,
};

inline std::span<const SearchKernel> all_search_kernels() {
  return kAllSearchKernels;
}

/// True for the in-range enum values; config validation gates on this so
/// a miscast integer dies naming the field instead of hitting a default
/// arm deep in a worker loop.
constexpr bool search_kernel_valid(SearchKernel kernel) {
  switch (kernel) {
    case SearchKernel::kStdUpperBound:
    case SearchKernel::kBranchless:
    case SearchKernel::kEytzinger:
    case SearchKernel::kBatchedBranchless:
    case SearchKernel::kBatchedEytzinger:
      return true;
  }
  return false;
}

constexpr const char* search_kernel_name(SearchKernel kernel) {
  switch (kernel) {
    case SearchKernel::kStdUpperBound: return "std-upper-bound";
    case SearchKernel::kBranchless: return "branchless";
    case SearchKernel::kEytzinger: return "eytzinger";
    case SearchKernel::kBatchedBranchless: return "batched-branchless";
    case SearchKernel::kBatchedEytzinger: return "batched-eytzinger";
  }
  return "?";
}

constexpr KeyLayout kernel_layout(SearchKernel kernel) {
  switch (kernel) {
    case SearchKernel::kEytzinger:
    case SearchKernel::kBatchedEytzinger:
      return KeyLayout::kEytzinger;
    default:
      return KeyLayout::kSorted;
  }
}

constexpr const char* key_layout_name(KeyLayout layout) {
  switch (layout) {
    case KeyLayout::kSorted: return "sorted";
    case KeyLayout::kEytzinger: return "eytzinger";
  }
  return "?";
}

/// True for the kernels that advance several queries in lockstep (and
/// therefore only pay off on whole batches, not single probes).
constexpr bool kernel_is_batched(SearchKernel kernel) {
  return kernel == SearchKernel::kBatchedBranchless ||
         kernel == SearchKernel::kBatchedEytzinger;
}

/// Hard cap on the interleave width of the batched kernels: past ~16
/// the core's miss queue is full and extra lanes only spill registers.
inline constexpr std::uint32_t kMaxInterleave = 32;

/// Default W. 16 in-flight lines matches the L1 miss-queue depth of
/// current x86 cores; 8 loses little, 32 gains nothing.
inline constexpr std::uint32_t kDefaultInterleave = 16;

/// Parse the search_kernel_name spelling; returns false on anything else.
inline bool parse_search_kernel(const std::string& name, SearchKernel* out) {
  for (const SearchKernel kernel : kAllSearchKernels) {
    if (name == search_kernel_name(kernel)) {
      *out = kernel;
      return true;
    }
  }
  return false;
}

/// Index of the first element > q: a fixed-trip halving loop. Exactly
/// std::upper_bound's answer on sorted input.
inline rank_t branchless_upper_bound(std::span<const key_t> keys, key_t q) {
  const key_t* base = keys.data();
  std::size_t n = keys.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    // Advance past the lower half iff its boundary element is <= q.
    base = (base[half - 1] <= q) ? base + half : base;
    n -= half;
  }
  // One element left; account for it, and for the empty-input case.
  const std::size_t pos =
      static_cast<std::size_t>(base - keys.data()) +
      (n == 1 && *base <= q ? 1 : 0);
  return static_cast<rank_t>(pos);
}

}  // namespace dici::index
