// ChunkLedger — one cluster submission's chunk table and its retry and
// failover rules.
//
// Every dispatch message is a tracked CHUNK whose encoded request frame
// is retained until exactly one reply claims it: that copy is what a
// retry re-sends and failover re-routes, and the chunk id it carries
// dedupes however many answers a faulty wire lets through.
//
// Like Membership and AdaptiveBatcher this is plain data plus rules: no
// locks (the coordinator serializes access under the submission's
// chunk_mu), no threads, no I/O, and no clock reads — every
// time-dependent call takes `now`. Routing and sending are the caller's
// two callables, so cluster_chunk_ledger_test drives every rule on one
// thread with made-up time points.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "src/net/wire.hpp"

namespace dici::cluster {

/// "No node": no live holder to route to, or no failure recorded.
inline constexpr std::uint32_t kNoNode = 0xffffffffu;

struct Chunk {
  /// The encoded kQueryBatch, dropped once done. Shared, because a send
  /// staged under chunk_mu goes on the wire after the lock is released:
  /// once sent, the frame is read-only to everyone.
  std::shared_ptr<net::Frame> frame;
  std::uint32_t shard = 0;    ///< kGlobalShard under kReplicate
  std::uint32_t node = 0;     ///< current assignment
  std::uint32_t attempts = 0; ///< sends on the current assignment
  std::uint32_t hops = 0;     ///< failover re-assignments so far
  std::chrono::steady_clock::time_point next_retry{};
  bool done = false;          ///< claimed by a reply, or written off
};

/// The ClusterConfig knobs a ledger applies.
struct RetryPolicy {
  std::uint32_t max_retries = 3;
  std::uint32_t retry_backoff_us = 20'000;
  bool failover = true;
  std::uint32_t num_nodes = 1;  ///< the sweeper's failover hop cap
};

class ChunkLedger {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;
  /// A live node holding `shard`, preferring anyone but `exclude`
  /// (kNoNode: no preference); kNoNode when no live holder exists.
  using PickTarget =
      std::function<std::uint32_t(std::uint32_t shard, std::uint32_t exclude)>;
  /// Send `chunk.frame` to `chunk.node` (the coordinator stages it and
  /// sends once chunk_mu is released). Fire-and-forget: a lost send is
  /// covered by sweep() or fail_node().
  using SendChunk = std::function<void(Chunk& chunk)>;

  explicit ChunkLedger(const RetryPolicy& policy) : policy_(policy) {}

  /// Wait before the (attempts+1)-th send of a chunk:
  /// retry_backoff_us << min(attempts - 1, 6).
  std::chrono::steady_clock::duration backoff_after(
      std::uint32_t attempts) const;

  /// Append chunk id size() for `shard`, carrying `frame`.
  Chunk& add(std::uint32_t shard, net::Frame frame);

  /// First send (attempts = 1) to pick(shard, kNoNode). False, with the
  /// chunk written off, when no live holder exists.
  bool dispatch(Chunk& c, TimePoint now, const PickTarget& pick,
                const SendChunk& send);

  /// Every unfinished chunk past its deadline is re-sent while attempts
  /// <= max_retries, then escalates: with failover on and hops <
  /// num_nodes it moves to another live holder if one exists; otherwise
  /// it is re-sent to the same node at backoff_after(max_retries + 1).
  /// The sweeper never writes a chunk off.
  void sweep(TimePoint now, const PickTarget& pick, const SendChunk& send);

  /// `node` is dead: re-route each of its unfinished chunks (no hop
  /// cap), or write it off when failover is off or no other holder
  /// exists. Returns how many were written off.
  std::uint64_t fail_node(std::uint32_t node, TimePoint now,
                          const PickTarget& pick, const SendChunk& send);

  /// True iff this reply claims chunk `id`: the first reply wins, and a
  /// late, duplicate or out-of-range one is ignored.
  bool claim(std::uint64_t id);

  std::size_t size() const { return chunks_.size(); }
  const Chunk& chunk(std::size_t id) const { return chunks_[id]; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t failovers() const { return failovers_; }

 private:
  /// Point `c` at `target` and send it: the one assignment step of
  /// dispatch, sweep and fail_node. Every assignment after the first is
  /// a failover hop.
  void assign(Chunk& c, std::uint32_t target, TimePoint now,
              const SendChunk& send);
  static void retire(Chunk& c);  ///< done; the retained frame is dropped

  RetryPolicy policy_;
  std::deque<Chunk> chunks_;  ///< deque: stable addresses, indexed by id
  std::uint64_t retries_ = 0;    ///< re-sends of unanswered chunks
  std::uint64_t failovers_ = 0;  ///< chunks re-routed to another holder
};

}  // namespace dici::cluster
