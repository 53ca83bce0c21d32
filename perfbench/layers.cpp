// Isolated layer replays: each layer a query crosses, run on its own at
// the workload's shard and message sizes, so the traced run can say
// which layer moved when an end-to-end number moves.
#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>

#include "perfbench/common.hpp"
#include "src/index/batched_search.hpp"
#include "src/index/delta.hpp"
#include "src/index/eytzinger.hpp"
#include "src/net/transport.hpp"
#include "src/net/wire.hpp"
#include "src/util/rng.hpp"

namespace perfbench {
namespace {

using dici::Rng;
namespace index = dici::index;
namespace net = dici::net;

/// Time `body(i)` in spans of at least ~20 us each (short bodies are
/// repeated inside one span) until the budget is spent, at least
/// min_spans and at most kMaxSpans spans. Returns ns per body call, one
/// value per span.
template <typename Body>
std::vector<double> timed_iterations(Tracer* tracer, const char* name,
                                     std::uint64_t parent, double seconds,
                                     std::size_t min_spans, Body body) {
  constexpr std::size_t kMaxSpans = 1000;
  constexpr std::int64_t kMinSpanNs = 20'000;
  std::int64_t t0 = now_ns();
  body(0);
  const std::int64_t once = std::max<std::int64_t>(1, now_ns() - t0);
  const std::size_t reps =
      static_cast<std::size_t>(std::clamp<std::int64_t>(kMinSpanNs / once, 1, 10'000));
  std::vector<double> ns;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::size_t call = 1;
  for (std::size_t i = 0;
       i < min_spans || (i < kMaxSpans && now_ns() < deadline); ++i) {
    ScopedSpan span(tracer, name, parent, i);
    t0 = now_ns();
    for (std::size_t r = 0; r < reps; ++r) body(call++);
    ns.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(reps));
  }
  return ns;
}

/// A delta of `n` entries against `base`: half inserts of keys absent
/// from the base, half erases of base keys.
index::DeltaSnapshot make_delta(std::span<const key_t> base, std::size_t n,
                                Rng& rng) {
  std::vector<index::DeltaBuffer::Entry> entries;
  entries.reserve(n);
  while (entries.size() < n) {
    if (entries.size() % 2 == 0) {
      const key_t k = static_cast<key_t>(rng.next());
      if (std::binary_search(base.begin(), base.end(), k)) continue;
      entries.push_back({k, index::DeltaOp::kInsert});
    } else {
      entries.push_back({base[rng.next() % base.size()], index::DeltaOp::kErase});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const auto& a, const auto& b) {
                              return a.key == b.key;
                            }),
                entries.end());
  return index::DeltaSnapshot(entries);
}

/// One-way pipelined transfer: a sender thread pushes `count` copies of
/// `frame` while this thread receives them. Returns ns per message.
double one_way_ns(net::TransportKind kind, const net::Frame& frame,
                  std::size_t count) {
  auto [coordinator, node] = net::make_transport_pair(kind);
  bool send_failed = false;
  const std::int64_t t0 = now_ns();
  std::thread sender([&, &coord = coordinator] {
    for (std::size_t i = 0; i < count; ++i) {
      if (coord->send(frame, std::chrono::seconds(10)) !=
          net::Endpoint::SendResult::kOk) {
        send_failed = true;
        return;
      }
    }
  });
  net::Frame got;
  std::string error;
  std::size_t received = 0;
  for (; received < count; ++received) {
    if (node->recv(&got, std::chrono::seconds(10), &error) !=
        net::Endpoint::RecvResult::kFrame)
      break;
  }
  const std::int64_t t1 = now_ns();
  if (received < count) coordinator->close();
  sender.join();
  if (send_failed || received < count)
    throw std::runtime_error(std::string("one-way transfer failed on ") +
                             net::transport_name(kind) + ": " + error);
  return static_cast<double>(t1 - t0) / static_cast<double>(count);
}

}  // namespace

void run_layer_replays(const ReplayShape& shape, Tracer* tracer,
                       Metrics* out) {
  ScopedSpan root(tracer, "replay");
  Rng rng(shape.seed ^ 0x5eedu);
  const double budget = shape.seconds_per_replay;

  // index: one shard's keys, probed with messages routed to that shard.
  const std::size_t shard_n =
      std::max<std::size_t>(1, shape.keys.size() / shape.shards);
  const std::span<const key_t> shard = shape.keys.first(shard_n);
  std::unique_ptr<index::EytzingerLayout> layout;
  if (index::kernel_layout(shape.kernel) == index::KeyLayout::kEytzinger)
    layout = std::make_unique<index::EytzingerLayout>(shard);
  constexpr std::size_t kMessages = 64;
  const std::size_t m = shape.msg_queries;
  std::vector<key_t> queries(kMessages * m);
  const std::uint64_t span_lo = shard.front();
  const std::uint64_t span_width = std::uint64_t{shard.back()} - span_lo + 1;
  for (key_t& q : queries) q = static_cast<key_t>(span_lo + rng.next() % span_width);
  std::vector<rank_t> ranks(m);
  const auto message = [&](std::size_t i) {
    return std::span<const key_t>(queries).subspan((i % kMessages) * m, m);
  };

  std::vector<double> ns = timed_iterations(
      tracer, "index.resolve_batch", root.id(), budget, 8, [&](std::size_t i) {
        index::resolve_batch(shape.kernel, shard, layout.get(), message(i),
                             ranks.data(), shape.interleave_width);
      });
  out->set("index.resolve_ns_per_query", median(ns) / static_cast<double>(m),
           "ns", ns.size());

  const index::DeltaSnapshot delta = make_delta(shape.keys, shape.delta_keys, rng);
  ns = timed_iterations(tracer, "index.delta_correct", root.id(), budget, 8,
                        [&](std::size_t i) {
                          delta.correct(message(i), ranks.data());
                        });
  out->set("index.delta_correct_ns_per_query",
           median(ns) / static_cast<double>(m), "ns", ns.size());

  const index::DeltaSnapshot fold_delta =
      make_delta(shape.keys, shape.fold_delta_keys, rng);
  ns = timed_iterations(tracer, "index.fold_delta", root.id(), budget, 3,
                        [&](std::size_t) {
                          const std::vector<key_t> folded = index::fold_delta(
                              shape.keys, fold_delta, shape.fold_threads);
                          if (folded.empty())
                            throw std::runtime_error("fold_delta returned nothing");
                        });
  out->set("index.fold_ms", median(ns) / 1e6, "ms", ns.size());

  // net: the per-shard query frame this workload would put on a wire.
  net::QueryBatchMsg msg;
  msg.submission = 1;
  msg.keys.assign(queries.begin(), queries.begin() + static_cast<std::ptrdiff_t>(m));
  msg.ids.resize(m);
  for (std::size_t i = 0; i < m; ++i) msg.ids[i] = static_cast<std::uint32_t>(i);
  net::Frame frame;
  ns = timed_iterations(tracer, "net.encode", root.id(), budget, 8,
                        [&](std::size_t) {
                          frame = net::encode_query_batch(net::kCoordinatorId, msg);
                        });
  out->set("net.encode_ns_per_msg", median(ns), "ns", ns.size());

  net::QueryBatchMsg decoded;
  std::string error;
  ns = timed_iterations(tracer, "net.decode", root.id(), budget, 8,
                        [&](std::size_t) {
                          if (!net::decode_query_batch(frame, &decoded, &error))
                            throw std::runtime_error("decode failed: " + error);
                        });
  out->set("net.decode_ns_per_msg", median(ns), "ns", ns.size());

  volatile std::uint32_t checksum = 0;  // the result must be stored
  ns = timed_iterations(tracer, "net.checksum", root.id(), budget, 8,
                        [&](std::size_t) { checksum = net::wire_checksum(frame.payload); });
  out->set("net.checksum_gbps",
           static_cast<double>(frame.payload.size()) / median(ns), "GB/s",
           ns.size());

  const std::size_t frame_bytes = net::kFrameHeaderBytes + frame.payload.size();
  const std::size_t per_trial =
      std::clamp<std::size_t>((16u << 20) / frame_bytes, 64, 4096);
  for (const auto& [kind, name, metric] :
       {std::tuple{net::TransportKind::kRing, "net.ring_transfer", "net.ring_ns_per_msg"},
        std::tuple{net::TransportKind::kFork, "net.fork_transfer", "net.fork_ns_per_msg"}}) {
    std::vector<double> per_msg;
    timed_iterations(tracer, name, root.id(), budget, 3, [&](std::size_t) {
      per_msg.push_back(one_way_ns(kind, frame, per_trial));
    });
    out->set(metric, median(per_msg), "ns", per_msg.size() * per_trial);
  }
}

}  // namespace perfbench
