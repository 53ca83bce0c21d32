// The coordinator's chunk rules in isolation: backoff schedule, retry
// then escalation, the failover hop cap, sole-owner polling, node death
// with and without failover, and first-reply-wins claims. Everything
// runs on one thread against made-up time points, a scripted pick and a
// recording send — no threads, no sleeps, no clock reads.
#include "src/cluster/chunk_ledger.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

namespace dici::cluster {
namespace {

using namespace std::chrono_literals;
using TimePoint = ChunkLedger::TimePoint;

constexpr TimePoint kT0{};  // an arbitrary origin; nothing reads a clock

RetryPolicy policy(std::uint32_t max_retries, bool failover = true,
                   std::uint32_t num_nodes = 3) {
  return {max_retries, /*retry_backoff_us=*/100, failover, num_nodes};
}

net::Frame frame() {
  net::Frame f;
  f.payload = {1, 2, 3, 4};
  return f;
}

/// A scripted cluster: `live` holds every shard (kReplicate-like), and
/// pick() prefers the first live node other than `exclude`, falling back
/// to `exclude` itself when it is the only one left. `sends` records the
/// node of every send, in order.
struct FakeCluster {
  explicit FakeCluster(std::vector<std::uint32_t> live_nodes = {})
      : live(std::move(live_nodes)) {}
  // pick and send capture `this`.
  FakeCluster(const FakeCluster&) = delete;
  FakeCluster& operator=(const FakeCluster&) = delete;

  std::vector<std::uint32_t> live;
  std::vector<std::uint32_t> sends;
  int picks = 0;

  ChunkLedger::PickTarget pick = [this](std::uint32_t, std::uint32_t exclude) {
    ++picks;
    std::uint32_t fallback = kNoNode;
    for (const std::uint32_t n : live) {
      if (n != exclude) return n;
      fallback = n;
    }
    return fallback;
  };
  ChunkLedger::SendChunk send = [this](Chunk& c) { sends.push_back(c.node); };
};

TEST(ChunkLedger, BackoffDoublesPerAttemptAndCapsAtTwoToTheSix) {
  const ChunkLedger ledger(policy(3));
  EXPECT_EQ(ledger.backoff_after(0), 100us);
  EXPECT_EQ(ledger.backoff_after(1), 100us);
  EXPECT_EQ(ledger.backoff_after(2), 200us);
  EXPECT_EQ(ledger.backoff_after(3), 400us);
  EXPECT_EQ(ledger.backoff_after(7), 6400us);
  EXPECT_EQ(ledger.backoff_after(8), 6400us);  // capped: polls, never grows
  EXPECT_EQ(ledger.backoff_after(1001), 6400us);
}

TEST(ChunkLedger, FirstSendSetsOneAttemptAndTheFirstDeadline) {
  FakeCluster cluster({2, 0});
  ChunkLedger ledger(policy(3));
  Chunk& c = ledger.add(7, frame());
  ASSERT_TRUE(ledger.dispatch(c, kT0, cluster.pick, cluster.send));
  EXPECT_EQ(c.shard, 7u);
  EXPECT_EQ(c.node, 2u);
  EXPECT_EQ(c.attempts, 1u);
  EXPECT_EQ(c.hops, 0u);
  EXPECT_EQ(c.next_retry, kT0 + 100us);
  EXPECT_EQ(cluster.sends, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(ledger.failovers(), 0u);  // the first assignment is no hop
  EXPECT_EQ(ledger.retries(), 0u);
}

TEST(ChunkLedger, DispatchWithNoLiveHolderWritesTheChunkOff) {
  FakeCluster cluster;  // nobody alive
  ChunkLedger ledger(policy(3));
  Chunk& c = ledger.add(0, frame());
  EXPECT_FALSE(ledger.dispatch(c, kT0, cluster.pick, cluster.send));
  EXPECT_TRUE(c.done);
  EXPECT_EQ(c.frame, nullptr);
  EXPECT_TRUE(cluster.sends.empty());
}

TEST(ChunkLedger, SweepRetriesOnTheBackoffScheduleThenReroutes) {
  FakeCluster cluster({0, 1});
  ChunkLedger ledger(policy(/*max_retries=*/2));
  Chunk& c = ledger.add(0, frame());
  ledger.dispatch(c, kT0, cluster.pick, cluster.send);

  ledger.sweep(kT0 + 99us, cluster.pick, cluster.send);  // not due yet
  EXPECT_EQ(cluster.sends.size(), 1u);

  ledger.sweep(kT0 + 100us, cluster.pick, cluster.send);
  EXPECT_EQ(c.attempts, 2u);
  EXPECT_EQ(c.next_retry, kT0 + 100us + 200us);
  ledger.sweep(kT0 + 300us, cluster.pick, cluster.send);
  EXPECT_EQ(c.attempts, 3u);
  EXPECT_EQ(c.next_retry, kT0 + 300us + 400us);
  EXPECT_EQ(ledger.retries(), 2u);
  EXPECT_EQ(cluster.picks, 1);  // retries stay on the assignment

  // attempts (3) > max_retries (2): the assignment is suspect and the
  // chunk moves to the other holder with a fresh schedule.
  ledger.sweep(kT0 + 700us, cluster.pick, cluster.send);
  EXPECT_EQ(c.node, 1u);
  EXPECT_EQ(c.attempts, 1u);
  EXPECT_EQ(c.hops, 1u);
  EXPECT_EQ(c.next_retry, kT0 + 700us + 100us);
  EXPECT_EQ(ledger.failovers(), 1u);
  EXPECT_EQ(ledger.retries(), 2u);
  EXPECT_EQ(cluster.sends, (std::vector<std::uint32_t>{0, 0, 0, 1}));
}

TEST(ChunkLedger, ZeroMaxRetriesEscalatesOnTheFirstSweepAfterTheBackoff) {
  FakeCluster cluster({0, 1});
  ChunkLedger ledger(policy(/*max_retries=*/0));
  Chunk& c = ledger.add(0, frame());
  ledger.dispatch(c, kT0, cluster.pick, cluster.send);
  ledger.sweep(kT0 + 99us, cluster.pick, cluster.send);
  EXPECT_EQ(c.node, 0u);
  ledger.sweep(kT0 + 100us, cluster.pick, cluster.send);
  EXPECT_EQ(c.node, 1u);
  EXPECT_EQ(c.hops, 1u);
  EXPECT_EQ(ledger.retries(), 0u);
  EXPECT_EQ(ledger.failovers(), 1u);
}

TEST(ChunkLedger, HopCapStopsTwoSilentHoldersPassingAChunkBackAndForth) {
  FakeCluster cluster({0, 1});
  ChunkLedger ledger(policy(/*max_retries=*/0, true, /*num_nodes=*/2));
  Chunk& c = ledger.add(0, frame());
  ledger.dispatch(c, kT0, cluster.pick, cluster.send);
  ledger.sweep(kT0 + 100us, cluster.pick, cluster.send);  // 0 -> 1
  ledger.sweep(kT0 + 200us, cluster.pick, cluster.send);  // 1 -> 0
  EXPECT_EQ(c.hops, 2u);
  EXPECT_EQ(c.node, 0u);
  const int picks = cluster.picks;

  // hops == num_nodes: no more re-routing. The chunk keeps polling its
  // assignment at backoff_after(max_retries + 1), and is never dropped.
  TimePoint now = kT0 + 300us;
  for (int k = 0; k < 5; ++k, now += 100us) {
    ledger.sweep(now, cluster.pick, cluster.send);
    EXPECT_EQ(c.node, 0u);
    EXPECT_EQ(c.next_retry, now + ledger.backoff_after(1));
  }
  EXPECT_EQ(cluster.picks, picks);
  EXPECT_EQ(c.hops, 2u);
  EXPECT_FALSE(c.done);
  EXPECT_EQ(ledger.failovers(), 2u);
  EXPECT_EQ(ledger.retries(), 5u);
  EXPECT_EQ(cluster.sends,
            (std::vector<std::uint32_t>{0, 1, 0, 0, 0, 0, 0, 0}));
}

TEST(ChunkLedger, SoleOwnerIsPolledAndNeverWrittenOffBySweep) {
  for (const bool failover : {true, false}) {
    // The owner is the only live holder: pick() hands it back.
    FakeCluster cluster({4});
    ChunkLedger ledger(policy(/*max_retries=*/1, failover));
    Chunk& c = ledger.add(4, frame());
    ledger.dispatch(c, kT0, cluster.pick, cluster.send);
    TimePoint now = kT0;
    for (int k = 0; k < 20; ++k) {
      now = c.next_retry;
      ledger.sweep(now, cluster.pick, cluster.send);
    }
    EXPECT_FALSE(c.done) << failover;
    EXPECT_EQ(c.node, 4u);
    EXPECT_EQ(c.hops, 0u);
    ASSERT_NE(c.frame, nullptr);  // still retained for re-send
    EXPECT_FALSE(c.frame->payload.empty());
    EXPECT_EQ(ledger.retries(), 20u);
    EXPECT_EQ(ledger.failovers(), 0u);
    // Past max_retries the poll interval sits at backoff_after(2).
    EXPECT_EQ(c.next_retry, now + 200us);
    EXPECT_EQ(cluster.sends.size(), 21u);
    EXPECT_TRUE(std::all_of(cluster.sends.begin(), cluster.sends.end(),
                            [](std::uint32_t n) { return n == 4; }));
  }
}

TEST(ChunkLedger, FailNodeReroutesEveryUnfinishedChunkWithNoHopCap) {
  FakeCluster cluster({0, 1});
  ChunkLedger ledger(policy(/*max_retries=*/0, true, /*num_nodes=*/2));
  for (int k = 0; k < 3; ++k)
    ledger.dispatch(ledger.add(0, frame()), kT0, cluster.pick, cluster.send);
  ASSERT_TRUE(ledger.claim(1));  // answered: not re-routed
  // Two silent sweeps bounce chunks 0 and 2 to node 1 and back, which
  // leaves both at the sweeper's hop cap.
  ledger.sweep(kT0 + 100us, cluster.pick, cluster.send);
  ledger.sweep(kT0 + 200us, cluster.pick, cluster.send);
  ASSERT_EQ(ledger.chunk(0).hops, 2u);
  ASSERT_EQ(ledger.chunk(0).node, 0u);
  ASSERT_EQ(ledger.failovers(), 4u);

  cluster.live = {1};  // node 0 died
  cluster.sends.clear();
  EXPECT_EQ(ledger.fail_node(0, kT0 + 250us, cluster.pick, cluster.send), 0u);
  EXPECT_EQ(cluster.sends, (std::vector<std::uint32_t>{1, 1}));
  for (const std::size_t id : {0u, 2u}) {
    const Chunk& c = ledger.chunk(id);
    EXPECT_EQ(c.node, 1u);
    EXPECT_EQ(c.attempts, 1u);
    EXPECT_EQ(c.hops, 3u);  // past the sweeper's cap
    EXPECT_EQ(c.next_retry, kT0 + 250us + 100us);
    EXPECT_FALSE(c.done);
  }
  EXPECT_EQ(ledger.failovers(), 6u);
  // Nothing is left on node 0.
  EXPECT_EQ(ledger.fail_node(0, kT0 + 260us, cluster.pick, cluster.send), 0u);
  EXPECT_EQ(cluster.sends.size(), 2u);
}

TEST(ChunkLedger, FailNodeWritesOffWithFailoverOffOrNoOtherHolder) {
  {
    FakeCluster cluster({0, 1});
    ChunkLedger ledger(policy(3, /*failover=*/false));
    for (int k = 0; k < 2; ++k)
      ledger.dispatch(ledger.add(0, frame()), kT0, cluster.pick,
                      cluster.send);
    const int picks = cluster.picks;
    EXPECT_EQ(ledger.fail_node(0, kT0, cluster.pick, cluster.send), 2u);
    EXPECT_EQ(cluster.picks, picks);  // failover off: nobody is asked
    for (std::size_t id = 0; id < 2; ++id) {
      EXPECT_TRUE(ledger.chunk(id).done);
      EXPECT_EQ(ledger.chunk(id).frame, nullptr);
    }
  }
  {
    // The dead node was the sole holder: pick() can only name it.
    FakeCluster cluster({0});
    ChunkLedger ledger(policy(3));
    ledger.dispatch(ledger.add(0, frame()), kT0, cluster.pick, cluster.send);
    EXPECT_EQ(ledger.fail_node(0, kT0, cluster.pick, cluster.send), 1u);
    EXPECT_TRUE(ledger.chunk(0).done);
  }
  {
    FakeCluster cluster({0});
    ChunkLedger ledger(policy(3));
    ledger.dispatch(ledger.add(0, frame()), kT0, cluster.pick, cluster.send);
    cluster.live.clear();
    EXPECT_EQ(ledger.fail_node(0, kT0, cluster.pick, cluster.send), 1u);
    EXPECT_EQ(cluster.sends.size(), 1u);  // only the first send
  }
}

TEST(ChunkLedger, ClaimHappensExactlyOnce) {
  FakeCluster cluster({0});
  ChunkLedger ledger(policy(3));
  for (int k = 0; k < 2; ++k)
    ledger.dispatch(ledger.add(0, frame()), kT0, cluster.pick, cluster.send);

  EXPECT_TRUE(ledger.claim(0));
  EXPECT_EQ(ledger.chunk(0).frame, nullptr);  // copy dropped
  EXPECT_FALSE(ledger.claim(0));  // duplicate reply
  EXPECT_FALSE(ledger.claim(2));  // out of range
  EXPECT_FALSE(ledger.claim(~std::uint64_t{0}));

  // A claimed chunk is never re-sent.
  ledger.sweep(kT0 + 1s, cluster.pick, cluster.send);
  EXPECT_EQ(cluster.sends, (std::vector<std::uint32_t>{0, 0, 0}));

  // A reply arriving after the chunk was written off is not a claim.
  EXPECT_EQ(ledger.fail_node(0, kT0 + 2s, cluster.pick, cluster.send), 1u);
  EXPECT_FALSE(ledger.claim(1));
}

}  // namespace
}  // namespace dici::cluster
