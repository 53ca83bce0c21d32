// Shared pieces of the perfbench binary: the metric sink and the shape
// of the isolated layer replays (layers.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "perfbench/trace.hpp"
#include "src/index/fast_search.hpp"
#include "src/util/types.hpp"

namespace perfbench {

using dici::key_t;
using dici::rank_t;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  ///< observations behind the value (0 = n/a)
};

/// Named metrics in insertion order; setting a name twice overwrites.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 0);
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Median of a sample set (0 for an empty set).
double median(std::vector<double> values);

/// Sizes the isolated layer replays run at: the workload's own shard
/// size and message sizes, so a replay prices the same work the
/// end-to-end run does.
struct ReplayShape {
  std::span<const key_t> keys;  ///< the workload's full sorted key set
  std::size_t shards = 1;       ///< resolve/encode replay one shard's share
  std::size_t msg_queries = 1;  ///< queries in one per-shard message
  std::size_t delta_keys = 1;   ///< delta size for the delta-correct replay
  std::size_t fold_delta_keys = 1;  ///< delta size a background fold sees
  dici::index::SearchKernel kernel = dici::index::SearchKernel::kBranchless;
  std::uint32_t interleave_width = dici::index::kDefaultInterleave;
  std::uint32_t fold_threads = 1;
  double seconds_per_replay = 0.3;
  std::uint64_t seed = 1;
};

/// Run every isolated layer replay (index resolve, delta correction,
/// fold, wire encode/decode/checksum, ring and fork one-way transfer),
/// each iteration wrapped in a span, and set the index.* and net.*
/// metrics from them.
void run_layer_replays(const ReplayShape& shape, Tracer* tracer,
                       Metrics* out);

}  // namespace perfbench
