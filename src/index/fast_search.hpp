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
//  * branchless_upper_bound — the "halving" search with a fixed trip
//    count. Each step is an arithmetic select,
//    `base += size_t(base[half - 1] <= q) * half`, which GCC and Clang
//    compile to setcc + imul: no branch depends on a loaded key. (The
//    ternary spelling compiled to a data-dependent jb on GCC 12.)
//  * eytzinger_upper_bound (eytzinger.hpp) — the BFS layout puts a
//    node's children adjacent, so the top levels share a few lines.
//  * interleaved batch kernels (batched_search.hpp) — advance W
//    independent searches in lockstep so W cache misses are in flight
//    at once instead of serializing. batched-branchless is the same
//    select over the sorted copy, W lanes at a time.
//
// The codegen guard (tests/codegen/check_branchless.py, ctest
// codegen_branchless_probe) compiles both sorted kernels at -O2 and -O3
// and fails if a conditional jump tests a compare that reads memory.
//
// kDefaultSearchKernel is batched-branchless: every native backend
// resolves a whole message at a time, the sorted copy it probes is
// always built, and on shards of ~1 MB and up (Method C-3's
// cache-sized shards on a 2 MiB L2) the interleaved select runs about
// twice as fast as the scalar one (README, "Search kernels and
// layouts").
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

/// The kernel every native backend's config starts with (ExperimentConfig,
/// ParallelConfig, NativeConfig, ClusterConfig, an unconfigured node).
inline constexpr SearchKernel kDefaultSearchKernel =
    SearchKernel::kBatchedBranchless;

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
/// std::upper_bound's answer on sorted input. The step is arithmetic,
/// not a ternary, so no branch depends on a loaded key.
inline rank_t branchless_upper_bound(std::span<const key_t> keys, key_t q) {
  if (keys.empty()) return 0;
  const key_t* base = keys.data();
  std::size_t n = keys.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    // Advance past the lower half iff its boundary element is <= q.
    base += static_cast<std::size_t>(base[half - 1] <= q) * half;
    n -= half;
  }
  // One element left; count it if it is <= q.
  return static_cast<rank_t>(static_cast<std::size_t>(base - keys.data()) +
                             static_cast<std::size_t>(*base <= q));
}

}  // namespace dici::index
