// Codegen probe for the sorted-array search kernels. check_branchless.py
// compiles this file to assembly (never links it) and fails if either
// function branches on a loaded key: both kernels must step with an
// arithmetic select, or a cache-resident probe mispredicts every other
// round.
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/index/batched_search.hpp"
#include "src/index/fast_search.hpp"
#include "src/util/types.hpp"

extern "C" {

__attribute__((noinline)) dici::rank_t dici_probe_branchless(
    const dici::key_t* keys, std::size_t n, dici::key_t q) {
  return dici::index::branchless_upper_bound(
      std::span<const dici::key_t>(keys, n), q);
}

__attribute__((noinline)) void dici_probe_batched_branchless(
    const dici::key_t* keys, std::size_t n, const dici::key_t* queries,
    std::size_t count, dici::rank_t* out, std::uint32_t width) {
  dici::index::batched_branchless_upper_bound(
      std::span<const dici::key_t>(keys, n),
      std::span<const dici::key_t>(queries, count), out, width);
}

}  // extern "C"
