#include "src/cluster/chunk_ledger.hpp"

#include <algorithm>
#include <utility>

namespace dici::cluster {

std::chrono::steady_clock::duration ChunkLedger::backoff_after(
    std::uint32_t attempts) const {
  // The exponent is capped so a long outage polls, not overflows.
  const std::uint32_t shift = std::min(attempts == 0 ? 0u : attempts - 1, 6u);
  return std::chrono::microseconds(
      static_cast<std::uint64_t>(policy_.retry_backoff_us) << shift);
}

Chunk& ChunkLedger::add(std::uint32_t shard, net::Frame frame) {
  Chunk& c = chunks_.emplace_back();
  c.shard = shard;
  c.frame = std::make_shared<net::Frame>(std::move(frame));
  return c;
}

void ChunkLedger::assign(Chunk& c, std::uint32_t target, TimePoint now,
                         const SendChunk& send) {
  if (c.attempts != 0) {
    ++c.hops;
    ++failovers_;
  }
  c.node = target;
  c.attempts = 1;
  c.next_retry = now + backoff_after(1);
  send(c);
}

void ChunkLedger::retire(Chunk& c) {
  c.done = true;
  c.frame.reset();
}

bool ChunkLedger::dispatch(Chunk& c, TimePoint now, const PickTarget& pick,
                           const SendChunk& send) {
  const std::uint32_t target = pick(c.shard, kNoNode);
  if (target == kNoNode) {
    retire(c);
    return false;
  }
  assign(c, target, now, send);
  return true;
}

void ChunkLedger::sweep(TimePoint now, const PickTarget& pick,
                        const SendChunk& send) {
  for (Chunk& c : chunks_) {
    if (c.done || now < c.next_retry) continue;
    if (c.attempts <= policy_.max_retries) {
      ++c.attempts;
      ++retries_;
      c.next_retry = now + backoff_after(c.attempts);
      send(c);
      continue;
    }
    // Retries exhausted: the assignment is suspect. The hop cap keeps
    // two silent-but-alive holders from passing a chunk back and forth
    // forever; a sole owner is polled until the heartbeat verdict.
    const std::uint32_t target = policy_.failover && c.hops < policy_.num_nodes
                                     ? pick(c.shard, c.node)
                                     : kNoNode;
    if (target != kNoNode && target != c.node) {
      assign(c, target, now, send);
      continue;
    }
    ++retries_;
    c.next_retry = now + backoff_after(policy_.max_retries + 1);
    send(c);
  }
}

std::uint64_t ChunkLedger::fail_node(std::uint32_t node, TimePoint now,
                                     const PickTarget& pick,
                                     const SendChunk& send) {
  std::uint64_t written_off = 0;
  for (Chunk& c : chunks_) {
    if (c.done || c.node != node) continue;
    const std::uint32_t target =
        policy_.failover ? pick(c.shard, node) : kNoNode;
    if (target == kNoNode || target == node) {
      retire(c);
      ++written_off;
      continue;
    }
    assign(c, target, now, send);
  }
  return written_off;
}

bool ChunkLedger::claim(std::uint64_t id) {
  if (id >= chunks_.size() || chunks_[id].done) return false;
  retire(chunks_[id]);
  return true;
}

}  // namespace dici::cluster
