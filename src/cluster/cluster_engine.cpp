// The coordinator: links, epochs, the admission ladder and the receive
// and sweep threads. Each submission's retry/failover rules live in its
// ChunkLedger (chunk_ledger.hpp), driven here under chunk_mu.
#include "src/cluster/cluster_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/cluster/chunk_ledger.hpp"
#include "src/cluster/node.hpp"
#include "src/cluster/process_node.hpp"
#include "src/core/dispatch.hpp"
#include "src/index/delta.hpp"
#include "src/index/partitioner.hpp"
#include "src/net/fd_endpoint.hpp"
#include "src/util/assert.hpp"
#include "src/util/rng.hpp"
#include "src/util/timer.hpp"

namespace dici::cluster {

using core::Backend;
using core::Client;
using core::DispatchBatch;
using core::Index;
using core::Method;
using core::NodeReport;
using core::RunReport;
using core::SubmitOptions;

ClusterEngine::ClusterEngine(const ClusterConfig& config) : config_(config) {
  DICI_CHECK_FMT(config_.num_nodes >= 1,
                 "ClusterConfig::num_nodes = %u: need at least one serving "
                 "node",
                 config_.num_nodes);
  DICI_CHECK_FMT(config_.batch_bytes >= sizeof(key_t),
                 "ClusterConfig::batch_bytes = %llu: a dispatch round must "
                 "hold at least one %zu-byte key",
                 static_cast<unsigned long long>(config_.batch_bytes),
                 sizeof(key_t));
  DICI_CHECK_FMT(index::search_kernel_valid(config_.kernel),
                 "ClusterConfig::kernel = %d: not a SearchKernel value",
                 static_cast<int>(config_.kernel));
  DICI_CHECK_FMT(index::placement_valid(config_.placement),
                 "ClusterConfig::placement = %d: not a Placement value",
                 static_cast<int>(config_.placement));
  DICI_CHECK_FMT(config_.heartbeat_interval_ms >= 1,
                 "ClusterConfig::heartbeat_interval_ms = %u: the failure "
                 "detector needs a nonzero heartbeat cadence",
                 config_.heartbeat_interval_ms);
  DICI_CHECK_FMT(
      config_.heartbeat_timeout_ms >= 2 * config_.heartbeat_interval_ms,
      "ClusterConfig::heartbeat_timeout_ms = %u with "
      "heartbeat_interval_ms = %u: the timeout must be at least twice the "
      "interval, or one delayed beat kills a healthy node",
      config_.heartbeat_timeout_ms, config_.heartbeat_interval_ms);
  DICI_CHECK_FMT(config_.ring_frames >= 1,
                 "ClusterConfig::ring_frames = %zu: a frame pipe needs at "
                 "least one slot",
                 config_.ring_frames);
  core::validate_retry_knobs("ClusterConfig", config_.max_retries,
                             config_.retry_backoff_us);
}

ClusterConfig cluster_config_from(const core::ExperimentConfig& config) {
  core::validate(config);
  core::check_native_supported(config);
  DICI_CHECK_FMT(config.method == Method::kC3,
                 "ExperimentConfig::method = %s: ClusterEngine ships sorted "
                 "shard arrays to its nodes (Method C-3)",
                 core::method_name(config.method));
  DICI_CHECK_FMT(config.num_masters == 1,
                 "ExperimentConfig::num_masters = %u: ClusterEngine maps "
                 "extra masters to extra Clients, not config knobs — "
                 "connect() one Client per master",
                 config.num_masters);
  ClusterConfig cluster;
  cluster.num_nodes = config.num_slaves();
  cluster.num_shards = config.num_slaves();
  cluster.batch_bytes = config.batch_bytes;
  cluster.transport = config.transport;
  cluster.kernel = config.kernel;
  cluster.placement = config.placement;
  cluster.heartbeat_interval_ms = config.heartbeat_interval_ms;
  cluster.heartbeat_timeout_ms = config.heartbeat_timeout_ms;
  cluster.track_latency = config.track_latency;
  cluster.max_retries = config.max_retries;
  cluster.retry_backoff_us = config.retry_backoff_us;
  cluster.failover = config.failover;
  return cluster;
}

ClusterEngine::ClusterEngine(const core::ExperimentConfig& config)
    : ClusterEngine(cluster_config_from(config)) {}

namespace {

using Clock = std::chrono::steady_clock;
using FaultDirection = net::FaultInjectingEndpoint::Direction;
using FaultMode = net::FaultInjectingEndpoint::Mode;
using namespace std::chrono_literals;

/// Admission patience per step. Build has no error channel: a node
/// that can't answer within this is a bug, and build aborts loudly. A
/// re-join returns false (the node goes back to DEAD), so it can give up
/// fast — e.g. when re-joining into a still-partitioned link.
constexpr auto kBuildTimeout = 30s;
constexpr auto kRejoinTimeout = 5s;

/// Keys per kBuildShard chunk. 4 MiB of payload per frame — far under
/// kMaxFramePayloadBytes, large enough that a build is a handful of
/// frames per shard.
constexpr std::size_t kBuildChunkKeys = 1u << 20;

std::uint32_t clamped_shards(const ClusterConfig& config, std::size_t n) {
  const std::uint32_t want =
      config.num_shards == 0 ? config.num_nodes : config.num_shards;
  return static_cast<std::uint32_t>(
      std::max<std::size_t>(1, std::min<std::size_t>(want, n)));
}

/// Index-lifetime recovery accounting: re-join events and their wall
/// time. Held by shared_ptr so a Completion can harvest (exchange-to-
/// zero) after the index itself is gone; RunReport::merge adds, so
/// events are reported exactly once however many batches a stream runs.
struct RecoveryLedger {
  std::atomic<std::uint64_t> rejoins{0};
  std::atomic<std::uint64_t> recovery_ns{0};
};

/// What one submission sent to and heard from one node.
struct NodeTally {
  std::uint64_t sent = 0;        ///< request frames (retries included)
  std::uint64_t sent_bytes = 0;  ///< their serialized bytes
  std::uint64_t replies = 0;     ///< claimed reply frames
  std::uint64_t reply_bytes = 0;
  std::uint64_t queries = 0;     ///< queries the node resolved
  std::uint64_t busy_ns = 0;
  Summary latency;               ///< filled only under track_latency
};

/// Completion record for one submitted batch. `outstanding` starts at 1
/// (the submitter's hold) plus one per chunk; every chunk finishes
/// EXACTLY once — claimed by the first reply carrying its id, or
/// written off by the failure path when no replica survives — so the
/// countdown is immune to duplicated, delayed, and re-sent frames.
///
/// Locking: chunk_mu guards the chunk ledger and the per-node tallies.
/// Every send (submitter, sweeper, failover) is DECIDED under it and
/// staged, then put on the wire after it is released, and every reply
/// claim happens under it. So no thread ever blocks in a send holding
/// chunk_mu: a receiver waiting for chunk_mu to claim a reply cannot
/// stall behind a send to a node that is itself stalled writing
/// replies. chunk_mu and a link's tx are never held together; subs_mu_
/// is only ever taken with chunk_mu RELEASED.
struct ClusterSubmission {
  ClusterSubmission(std::uint64_t id_, const ClusterConfig& config)
      : id(id_), track_latency(config.track_latency),
        ledger({config.max_retries, config.retry_backoff_us, config.failover,
                config.num_nodes}),
        nodes(config.num_nodes) {}

  const std::uint64_t id;
  rank_t* out = nullptr;
  std::vector<rank_t> sink;  ///< backs `out` when the caller passed none

  bool track_latency = false;
  std::vector<double> queued_ns;  ///< per query id; empty = no prior wait

  /// Coordinator-side delta fold: nodes resolve base ranks only; the
  /// live-set correction is a post-pass in await() over the scattered
  /// results, exactly like NativeClient. query_copy holds the queries
  /// (in id order) because the caller's span dies with submit().
  std::shared_ptr<const index::DeltaSnapshot> delta;
  std::vector<key_t> query_copy;

  // --- Everything below here is guarded by chunk_mu -----------------------
  std::mutex chunk_mu;
  ChunkLedger ledger;
  std::vector<NodeTally> nodes;
  // --- End of chunk_mu protection -----------------------------------------

  /// First node whose unrecoverable death touched this submission
  /// (kNoNode = none). A recovered fault (retry or failover worked)
  /// never sets this.
  std::atomic<std::uint32_t> failed_node{kNoNode};

  // Filled by the submitter before it releases its hold.
  std::uint64_t num_queries = 0;
  double dispatch_sec = 0.0;

  WallTimer timer;        ///< started at submit
  double wall_sec = 0.0;  ///< stamped by whoever completes last

  std::atomic<std::uint64_t> outstanding{1};
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<bool> done{false};  ///< set under mu; readable lock-free

  void record_failure(std::uint32_t node) {
    std::uint32_t expected = kNoNode;
    failed_node.compare_exchange_strong(expected, node,
                                        std::memory_order_acq_rel);
  }

  /// Drop `k` from the countdown; returns true when this call completed
  /// the submission (and has signalled the waiter).
  bool finish(std::uint64_t k) {
    if (outstanding.fetch_sub(k, std::memory_order_acq_rel) != k) return false;
    wall_sec = timer.elapsed_sec();
    {
      std::lock_guard lock(mu);
      done.store(true, std::memory_order_release);
    }
    cv.notify_all();
    return true;
  }

  void await_done() {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return done.load(std::memory_order_acquire); });
  }
};

/// One coordinator->node link. `tx` serializes senders; `dead` is set
/// under tx (so a sender is always entirely before the death — its
/// frame is on the wire — or entirely after, seeing `dead` and
/// skipping) but readable lock-free by the routing paths. `epoch` is
/// the link incarnation, bumped when a re-join replaces the endpoint;
/// every frame the coordinator sends is stamped with it, and the
/// receiver ignores rank frames from any other incarnation.
struct Link {
  std::unique_ptr<net::Endpoint> endpoint;
  std::mutex tx;
  std::atomic<bool> dead{false};
  std::atomic<std::uint32_t> epoch{1};
};

class ClusterIndex : public Index {
 public:
  ClusterIndex(const ClusterConfig& config, std::span<const key_t> index_keys)
      : Index(index_keys),
        config_(config),
        partitioner_(keys(), clamped_shards(config, keys().size())),
        membership_(config.num_nodes),
        links_(config.num_nodes),
        ledger_(std::make_shared<RecoveryLedger>()) {
    const std::uint32_t N = config_.num_nodes;
    if (config_.faults.enabled())
      controller_ = std::make_shared<net::FaultController>();  // healed
    nodes_.reserve(N);
    for (std::uint32_t i = 0; i < N; ++i) {
      auto spawned = spawn_node(i, /*epoch=*/1);
      links_[i] = std::make_unique<Link>();
      links_[i]->endpoint = std::move(spawned.endpoint);
      nodes_.push_back(std::move(spawned.peer));
    }
    // Build has no error channel: a node that cannot be admitted is a
    // bug, and build aborts naming it.
    std::string why;
    const std::uint32_t failed = admit(0, N, kBuildTimeout, &why);
    DICI_CHECK_FMT(failed == kNoNode, "cluster build: node %u %s", failed,
                   why.c_str());
    broadcast_cluster_info();
    // The build ran on a clean wire; only now do the configured faults
    // start biting (build retries are deliberately not a thing).
    if (controller_ != nullptr && config_.faults.armed) controller_->arm();
    receivers_.resize(N);
    for (std::uint32_t i = 0; i < N; ++i)
      receivers_[i] = std::thread([this, i] { receiver_loop(i); });
    sweeper_ = std::thread([this] { sweeper_loop(); });
  }

  ~ClusterIndex() override {
    // No client outlives the Index, so every submission has completed
    // (drained or failed). Stop the sweeper and receivers, wave the
    // nodes goodbye on a clean wire, and close the links — close
    // unblocks every recv on both ends.
    stop_.store(true, std::memory_order_release);
    if (controller_ != nullptr) controller_->heal();
    sweeper_.join();
    send_to_live(net::encode_shutdown(net::kCoordinatorId), 10ms);
    for (auto& link : links_) link->endpoint->close();
    for (auto& receiver : receivers_)
      if (receiver.joinable()) receiver.join();
    nodes_.clear();  // joins each service thread / reaps each child
  }

  const char* backend() const override {
    return core::backend_name(Backend::kCluster);
  }

  const ClusterConfig& config() const { return config_; }

  NodeStatus node_status(std::uint32_t node) const {
    std::lock_guard lock(membership_mu_);
    return membership_.status(node);
  }

  std::shared_ptr<net::FaultController> fault_controller() const {
    return controller_;
  }

  /// Test hook: silence node `i` as if its machine lost power.
  void kill_node(std::uint32_t i) const { nodes_[i]->kill(); }

  /// The spawned children's pids (empty for in-process transports).
  std::vector<int> node_pids() const {
    std::vector<int> pids;
    for (const auto& node : nodes_)
      if (node != nullptr && node->pid() > 0) pids.push_back(node->pid());
    return pids;
  }

  bool rejoin_node(std::uint32_t i) const;

  std::unique_ptr<Client::Completion> submit_batch(
      std::span<const key_t> queries, std::vector<rank_t>* out_ranks,
      const SubmitOptions& options) const;

 private:
  class ClusterCompletion;

  std::uint32_t node_of_shard(std::uint32_t shard) const {
    return shard % config_.num_nodes;
  }

  /// The wire-carried node configuration (sent as kNodeConfig right
  /// after each join ack — same frame whether the node is a thread here
  /// or an exec'd dici_node).
  net::NodeConfigMsg node_config_msg() const {
    net::NodeConfigMsg msg;
    msg.kernel = static_cast<std::uint8_t>(config_.kernel);
    msg.interleave_width = config_.interleave_width;
    msg.heartbeat_interval_ms = config_.heartbeat_interval_ms;
    msg.num_nodes = config_.num_nodes;
    return msg;
  }

  /// Wrap `end` so the `direction` traffic of node `i`'s link
  /// incarnation `epoch` meets the configured faults. The seed is salted
  /// with node and epoch, so every link — and every re-join incarnation
  /// of a link — draws its own reproducible schedule from one config
  /// seed.
  std::unique_ptr<net::Endpoint> inject_faults(
      std::unique_ptr<net::Endpoint> end, FaultDirection direction,
      std::uint32_t i, std::uint32_t epoch,
      FaultMode mode = FaultMode::kSendSide) const {
    std::uint64_t state =
        config_.faults.seed ^ (0x9e3779b97f4a7c15ull * (i + 1) + epoch);
    const bool to_node = direction == FaultDirection::kToNode;
    std::uint64_t seed = splitmix64(state);  // the to-node draw comes first
    if (!to_node) seed = splitmix64(state);
    return std::make_unique<net::FaultInjectingEndpoint>(
        std::move(end), controller_, direction,
        to_node ? config_.faults.to_node : config_.faults.to_coordinator,
        seed, mode);
  }

  /// One node slot, spawned per the configured transport: the
  /// coordinator's (fault-decorated) endpoint plus the peer handle it
  /// can kill and destroy. Shared by the constructor and re-join, so a
  /// re-joined process node is a genuinely fresh child.
  struct SpawnedNode {
    std::unique_ptr<net::Endpoint> endpoint;
    std::unique_ptr<NodePeer> peer;
  };

  SpawnedNode spawn_node(std::uint32_t i, std::uint32_t epoch) const {
    if (!net::transport_is_process(config_.transport)) {
      auto [coordinator_end, node_end] =
          net::make_transport_pair(config_.transport, config_.ring_frames);
      if (controller_ != nullptr) {
        coordinator_end = inject_faults(std::move(coordinator_end),
                                        FaultDirection::kToNode, i, epoch);
        node_end = inject_faults(std::move(node_end),
                                 FaultDirection::kToCoordinator, i, epoch);
      }
      return {std::move(coordinator_end),
              std::make_unique<ClusterNode>(i, std::move(node_end))};
    }
    const std::string binary = config_.node_binary.empty()
                                   ? ProcessNode::default_binary()
                                   : config_.node_binary;
    std::unique_ptr<net::Endpoint> raw;
    std::unique_ptr<NodePeer> peer;
    if (config_.transport == net::TransportKind::kFork) {
      int fds[2];
      net::cloexec_socketpair(fds);
      peer = ProcessNode::spawn_fd(binary, i, fds[1]);
      raw = std::make_unique<net::FdEndpoint>(fds[0]);
    } else {
      net::TcpListener listener;
      peer = ProcessNode::spawn_connect(binary, i, listener.port());
      std::string error;
      raw = listener.accept(kBuildTimeout, &error);
      DICI_CHECK_FMT(raw != nullptr,
                     "cluster build: spawned node %u never connected back "
                     "to the coordinator's listener (%s)",
                     i, error.c_str());
    }
    if (controller_ != nullptr) {
      // Only the coordinator's end of a process link lives in this
      // address space: the node-bound rates inject on send (as usual),
      // and the coordinator-bound rates inject at INTAKE (kRecvSide) on
      // the same endpoint — so the child's traffic faces the same
      // schedule an in-process node's would, from the same seeds.
      raw = inject_faults(inject_faults(std::move(raw),
                                        FaultDirection::kToCoordinator, i,
                                        epoch, FaultMode::kRecvSide),
                          FaultDirection::kToNode, i, epoch);
    }
    return {std::move(raw), std::move(peer)};
  }

  // --- Admission (build, and re-join) -------------------------------------

  /// Send a control frame to node `i`, stamped with its link's epoch.
  bool send_control(std::uint32_t i, net::Frame frame,
                    std::chrono::milliseconds patience) const {
    frame.header.epoch = links_[i]->epoch.load(std::memory_order_acquire);
    std::lock_guard lock(links_[i]->tx);
    return links_[i]->endpoint->send(frame, patience) ==
           net::Endpoint::SendResult::kOk;
  }

  /// Receive node `i`'s next control frame within `patience` and decode
  /// it as `what` into `msg`. Heartbeats are recorded as proof of life
  /// and damaged frames dropped; false, with the reason in `why`, on
  /// timeout, close, a broken stream or any other frame.
  template <typename Msg, typename Decode>
  bool expect_control(std::uint32_t i, const char* what, Decode decode,
                      Msg* msg, std::chrono::milliseconds patience,
                      std::string* why) const {
    const auto deadline = Clock::now() + patience;
    net::Frame frame;
    std::string error;
    for (;;) {
      const auto left = deadline - Clock::now();
      const auto result =
          left > Clock::duration::zero()
              ? links_[i]->endpoint->recv(&frame, left, &error)
              : net::Endpoint::RecvResult::kTimeout;
      if (result == net::Endpoint::RecvResult::kCorrupt) continue;
      if (result != net::Endpoint::RecvResult::kFrame) {
        *why = "went silent before completing the handshake (recv result " +
               std::to_string(static_cast<int>(result)) + ": " + error + ")";
        return false;
      }
      if (frame.header.msg_type() != net::MsgType::kHeartbeat) break;
      std::lock_guard lock(membership_mu_);
      membership_.record_alive(i, Clock::now());
    }
    if (decode(frame, msg, &error)) return true;
    *why = std::string("sent ") + net::msg_type_name(frame.header.msg_type()) +
           " instead of its " + what + " (" + error + ")";
    return false;
  }

  /// One admission step, taken on (or right after) a frame from node i.
  void set_status(std::uint32_t i, NodeStatus status) const {
    std::lock_guard lock(membership_mu_);
    membership_.transition(i, status);
    membership_.record_alive(i, Clock::now());
  }

  /// The admission ladder NULL|DEAD -> JOINING -> ACK -> ALIVE for nodes
  /// [first, last) — all of them at build, one at re-join: join request,
  /// join ack + kNodeConfig, shard scatter, build ack. It runs phase by
  /// phase — every node is joined and has its shards shipped before any
  /// build ack is awaited — so a build's nodes index concurrently.
  /// Returns the first node that failed (kNoNode: all are ALIVE), with
  /// the reason in `why`.
  std::uint32_t admit(std::uint32_t first, std::uint32_t last,
                      std::chrono::milliseconds patience,
                      std::string* why) const {
    for (std::uint32_t i = first; i < last; ++i) {
      net::JoinRequestMsg request;
      if (!expect_control(i, "join request", net::decode_join_request,
                          &request, patience, why))
        return i;
      if (request.node_id != i) {
        *why = "sent a join request for node " +
               std::to_string(request.node_id);
        return i;
      }
      set_status(i, NodeStatus::kJoining);
      // The wire IS the configuration channel: an exec'd dici_node
      // learns its kernel/cadence/cluster size from kNodeConfig, and an
      // in-process node takes the identical path.
      if (!send_control(i,
                        net::encode_join_ack(net::kCoordinatorId,
                                             {i, config_.num_nodes}),
                        patience) ||
          !send_control(i,
                        net::encode_node_config(net::kCoordinatorId,
                                                node_config_msg()),
                        patience)) {
        *why = "could not be sent its join ack";
        return i;
      }
      set_status(i, NodeStatus::kAck);
    }
    for (std::uint32_t i = first; i < last; ++i) {
      bool sent = true;
      const std::uint32_t shards =
          for_each_build_shard(i, [&](net::BuildShardMsg&& msg) {
            sent = sent &&
                   send_control(
                       i, net::encode_build_shard(net::kCoordinatorId, msg),
                       patience);
          });
      if (!sent) {
        *why = "could not be sent its shards";
        return i;
      }
      std::lock_guard lock(membership_mu_);
      membership_.set_shards(i, shards);
    }
    for (std::uint32_t i = first; i < last; ++i) {
      net::BuildAckMsg ack;
      if (!expect_control(i, "build ack", net::decode_build_ack, &ack,
                          patience, why))
        return i;
      set_status(i, NodeStatus::kAlive);
    }
    return kNoNode;
  }

  /// Best-effort send of `frame` to every live node.
  void send_to_live(const net::Frame& frame,
                    std::chrono::milliseconds patience) const {
    for (const auto& link : links_) {
      net::Frame stamped = frame;
      stamped.header.epoch = link->epoch.load(std::memory_order_acquire);
      std::lock_guard lock(link->tx);
      if (!link->dead.load(std::memory_order_acquire))
        (void)link->endpoint->send(stamped, patience);
    }
  }

  /// A lost broadcast only stales a node's mirror, never correctness.
  void broadcast_cluster_info() const {
    net::ClusterInfoMsg info;
    {
      std::lock_guard lock(membership_mu_);
      info.nodes = membership_.to_entries();
    }
    send_to_live(net::encode_cluster_info(net::kCoordinatorId, info), 100ms);
  }

  /// Split one shard replica into chunk-tagged kBuildShard messages.
  template <typename Emit>
  void emit_shard_chunks(std::uint32_t shard,
                         std::span<const key_t> shard_keys, rank_t offset,
                         bool final_shard_of_node, Emit&& emit) const {
    const std::size_t chunks =
        std::max<std::size_t>(1, (shard_keys.size() + kBuildChunkKeys - 1) /
                                     kBuildChunkKeys);
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t begin = c * kBuildChunkKeys;
      const std::size_t count =
          std::min(kBuildChunkKeys, shard_keys.size() - begin);
      net::BuildShardMsg msg;
      msg.shard = shard;
      msg.global_offset = offset + static_cast<rank_t>(begin);
      msg.chunk = static_cast<std::uint32_t>(c);
      msg.last = final_shard_of_node && c + 1 == chunks;
      msg.keys.assign(shard_keys.begin() + static_cast<std::ptrdiff_t>(begin),
                      shard_keys.begin() +
                          static_cast<std::ptrdiff_t>(begin + count));
      emit(std::move(msg));
    }
  }

  /// Enumerate node `i`'s full build-frame sequence (ship order, the
  /// node's final frame last-flagged); returns the shard-replica count
  /// of the assignment. A re-joined node gets the same sequence, so it
  /// is bit-identical to its first incarnation.
  template <typename Emit>
  std::uint32_t for_each_build_shard(std::uint32_t i, Emit&& emit) const {
    const std::uint32_t N = config_.num_nodes;
    if (config_.placement == index::Placement::kReplicate) {
      // The paper's replicated strategy: every node holds the whole
      // array (shipped as real bytes) and answers at offset 0.
      emit_shard_chunks(net::kGlobalShard, keys(), 0,
                        /*final_shard_of_node=*/true, emit);
      return 1;
    }
    // kInterleave / kNodeLocal: shard s lives on node s % N. On a wire
    // these are one assignment — a shipped replica is by construction
    // local to its node — so both placement names hit this path.
    const std::uint32_t S = partitioner_.parts();
    std::vector<std::uint32_t> shards;
    for (std::uint32_t s = i; s < S; s += N) shards.push_back(s);
    if (shards.empty()) {
      // More nodes than shards (tiny index): the node still needs its
      // "build complete" marker to ack. An empty last-flagged frame is
      // exactly that.
      net::BuildShardMsg msg;
      msg.shard = net::kGlobalShard;
      msg.last = true;
      emit(std::move(msg));
      return 0;
    }
    for (std::size_t j = 0; j < shards.size(); ++j) {
      const std::uint32_t s = shards[j];
      emit_shard_chunks(s, partitioner_.keys_of(s), partitioner_.start_of(s),
                        /*final_shard_of_node=*/j + 1 == shards.size(), emit);
    }
    return static_cast<std::uint32_t>(shards.size());
  }

  // --- Routing -------------------------------------------------------------

  /// Pick a live node holding `shard`, preferring anyone but `exclude`
  /// (the current, suspect assignment — pass kNoNode for none).
  /// Under kReplicate every node holds everything, so the scan round-
  /// robins the survivors; otherwise the shard's sole owner is the only
  /// candidate. Returns kNoNode when no (other) live holder exists.
  std::uint32_t pick_target(std::uint32_t shard, std::uint32_t exclude) const {
    const std::uint32_t N = config_.num_nodes;
    if (shard == net::kGlobalShard &&
        config_.placement == index::Placement::kReplicate) {
      const std::uint64_t start =
          round_robin_.fetch_add(1, std::memory_order_relaxed);
      std::uint32_t fallback = kNoNode;
      for (std::uint32_t k = 0; k < N; ++k) {
        const auto n = static_cast<std::uint32_t>((start + k) % N);
        if (links_[n]->dead.load(std::memory_order_acquire)) continue;
        if (n == exclude) {
          fallback = n;  // the suspect may end up the only live holder
          continue;
        }
        return n;
      }
      return fallback;
    }
    const std::uint32_t owner = node_of_shard(shard);
    if (links_[owner]->dead.load(std::memory_order_acquire)) return kNoNode;
    return owner == exclude ? kNoNode : owner;
  }

  /// A chunk send decided under chunk_mu, for send_staged() to put on
  /// the wire once the lock is released.
  struct StagedSend {
    std::uint32_t node = 0;
    std::shared_ptr<const net::Frame> frame;
    bool sent = false;
  };

  /// The ledger's send callable (chunk_mu held): stamp `c`'s frame with
  /// its node's link epoch and stage it in `outbox`. A frame still at
  /// epoch 0 was never staged (link epochs start at 1), so nobody else
  /// holds it and it is stamped in place; a staged one may still be
  /// read by an earlier send, so a new epoch goes on a copy.
  ChunkLedger::SendChunk stager(std::vector<StagedSend>& outbox) const {
    return [this, &outbox](Chunk& c) {
      const std::uint32_t epoch =
          links_[c.node]->epoch.load(std::memory_order_acquire);
      if (c.frame->header.epoch != epoch) {
        if (c.frame->header.epoch != 0)
          c.frame = std::make_shared<net::Frame>(*c.frame);
        c.frame->header.epoch = epoch;
      }
      outbox.push_back({c.node, c.frame});
    };
  }

  /// Send what `outbox` staged (chunk_mu released), then tally what left
  /// under chunk_mu. A skipped or failed send leaves its chunk unanswered
  /// (the sweeper or the failure path covers it), so sends can afford to
  /// be fire-and-forget. The caller holds a countdown hold on `sub`, so
  /// the tallies are in before the waiter reads them.
  void send_staged(ClusterSubmission& sub,
                   std::vector<StagedSend>& outbox) const {
    if (outbox.empty()) return;
    const auto patience =
        std::chrono::milliseconds(config_.heartbeat_timeout_ms);
    for (StagedSend& staged : outbox) {
      Link& link = *links_[staged.node];
      std::lock_guard lock(link.tx);
      if (link.dead.load(std::memory_order_acquire)) continue;  // fail_node re-routes
      staged.sent = link.endpoint->send(*staged.frame, patience) ==
                    net::Endpoint::SendResult::kOk;
    }
    {
      std::lock_guard lock(sub.chunk_mu);
      for (const StagedSend& staged : outbox) {
        if (!staged.sent) continue;
        NodeTally& tally = sub.nodes[staged.node];
        tally.sent += 1;
        tally.sent_bytes +=
            net::kFrameHeaderBytes + staged.frame->payload.size();
      }
    }
    outbox.clear();
  }

  /// Drop `k` from `sub`'s countdown; the call that completes it also
  /// retires it from pending_. Call with chunk_mu released.
  void finish(ClusterSubmission& sub, std::uint64_t k) const {
    if (k == 0 || !sub.finish(k)) return;
    std::lock_guard lock(subs_mu_);
    pending_.erase(sub.id);
  }

  std::vector<std::shared_ptr<ClusterSubmission>> pending_snapshot() const {
    std::lock_guard lock(subs_mu_);
    std::vector<std::shared_ptr<ClusterSubmission>> subs;
    subs.reserve(pending_.size());
    for (auto& [id, sub] : pending_) subs.push_back(sub);
    return subs;
  }

  // --- Failure path --------------------------------------------------------

  /// Mark node `i` DEAD and re-route (failover on) or write off
  /// (failover off / no surviving replica) its unanswered chunks in
  /// every in-flight submission. Runs on node i's receiver thread.
  void fail_node(std::uint32_t i) const {
    // Close first: a sender part-way through a frame to this node waits
    // for the rest to go out while holding tx, and only the close ends
    // that wait. Its chunk stays assigned here and is re-routed below.
    links_[i]->endpoint->close();
    {
      // tx-mutex handshake with senders: after this block, any sender
      // that did not already put its frame on the wire will observe
      // `dead` and skip the send.
      std::lock_guard lock(links_[i]->tx);
      if (links_[i]->dead.exchange(true, std::memory_order_acq_rel))
        return;  // another path got here first
    }
    {
      std::lock_guard lock(membership_mu_);
      membership_.transition(i, NodeStatus::kDead);
    }
    std::vector<StagedSend> outbox;
    for (const auto& sub : pending_snapshot()) {
      std::uint64_t written_off = 0;
      std::uint64_t hold = 0;
      {
        std::lock_guard lock(sub->chunk_mu);
        written_off =
            sub->ledger.fail_node(i, Clock::now(), pick_, stager(outbox));
        // A re-routed chunk is unfinished, so the countdown is above
        // zero here: holding it keeps the tallies ahead of the waiter.
        hold = outbox.empty() ? 0 : 1;
        sub->outstanding.fetch_add(hold, std::memory_order_relaxed);
      }
      send_staged(*sub, outbox);
      // Recorded before the countdown drops, so the waiter sees it.
      if (written_off != 0) sub->record_failure(i);
      finish(*sub, written_off + hold);
    }
  }

  // --- Serve phase ---------------------------------------------------------

  void handle_rank_batch(std::uint32_t i, const net::Frame& frame) const {
    net::RankBatchMsg msg;
    std::string error;
    if (!net::decode_rank_batch(frame, &msg, &error)) {
      // The checksum passed, so this is a real protocol breach, not
      // wire damage: stop trusting the node.
      fail_node(i);
      return;
    }
    std::shared_ptr<ClusterSubmission> sub;
    {
      std::lock_guard lock(subs_mu_);
      const auto it = pending_.find(msg.submission);
      if (it == pending_.end()) return;  // reply to a completed/failed batch
      sub = it->second;
    }
    {
      std::lock_guard lock(sub->chunk_mu);
      if (!sub->ledger.claim(msg.chunk)) return;
      // The order-preserving merge: scatter by query id. The claim
      // under chunk_mu makes this exactly-once however many duplicated
      // or re-sent copies of the chunk were answered — and whichever
      // node answered, the ranks are global, so a failover reply lands
      // identically.
      for (std::size_t j = 0; j < msg.ids.size(); ++j)
        sub->out[msg.ids[j]] = msg.ranks[j];
      NodeTally& tally = sub->nodes[i];
      tally.queries += msg.ids.size();
      tally.busy_ns += msg.busy_ns;
      tally.replies += 1;
      tally.reply_bytes += net::kFrameHeaderBytes + frame.payload.size();
      if (sub->track_latency) {
        // One arrival stamp for the whole reply (its queries' answers
        // all exist on the coordinator now), read against the submit
        // stamp.
        const double resolved_ns = sub->timer.elapsed_ns();
        if (sub->queued_ns.empty()) {
          tally.latency.add_n(resolved_ns, msg.ids.size());
        } else {
          for (const std::uint32_t id : msg.ids)
            tally.latency.add(resolved_ns + sub->queued_ns[id]);
        }
      }
    }
    finish(*sub, 1);
  }

  void receiver_loop(std::uint32_t i) const {
    const auto interval =
        std::chrono::milliseconds(config_.heartbeat_interval_ms);
    const auto timeout =
        std::chrono::milliseconds(config_.heartbeat_timeout_ms);
    auto last_seen = Clock::now();
    using Result = net::Endpoint::RecvResult;
    while (!stop_.load(std::memory_order_acquire)) {
      net::Frame frame;
      std::string error;
      const Result result = links_[i]->endpoint->recv(&frame, interval, &error);
      if (result == Result::kFrame || result == Result::kCorrupt) {
        // Even a damaged frame proves the node's transmitter is alive;
        // the frame itself is dropped and the sweeper's retries cover
        // whatever it carried.
        last_seen = Clock::now();
        {
          std::lock_guard lock(membership_mu_);
          membership_.record_alive(i, last_seen);
        }
        // Heartbeats carry only liveness; any other type — or a rank
        // frame from a stale incarnation — is ignorable noise.
        if (result == Result::kFrame &&
            frame.header.msg_type() == net::MsgType::kRankBatch &&
            frame.header.epoch ==
                links_[i]->epoch.load(std::memory_order_acquire))
          handle_rank_batch(i, frame);
        continue;
      }
      if (result == Result::kTimeout && Clock::now() - last_seen <= timeout)
        continue;
      // Silence past the timeout, a broken stream, or a close that is
      // not our own shutdown.
      if (result != Result::kClosed || !stop_.load(std::memory_order_acquire))
        fail_node(i);
      return;
    }
  }

  /// The retry sweeper: one coordinator thread that hands every pending
  /// submission's ledger the clock. Retries cover dropped/corrupted
  /// frames on a live link; exhausted retries escalate to failover —
  /// which is what lets a batch complete BEFORE the heartbeat verdict
  /// when a replica-holding node dies mid-stream.
  void sweeper_loop() const {
    const auto backoff = std::chrono::microseconds(config_.retry_backoff_us);
    const auto tick = std::clamp<Clock::duration>(
        backoff / 2, std::chrono::microseconds(500),
        std::chrono::milliseconds(10));
    std::vector<StagedSend> outbox;
    while (!stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(tick);
      if (stop_.load(std::memory_order_acquire)) return;
      for (const auto& sub : pending_snapshot()) {
        std::uint64_t hold = 0;
        {
          std::lock_guard lock(sub->chunk_mu);
          sub->ledger.sweep(Clock::now(), pick_, stager(outbox));
          // Same hold as fail_node's: a staged chunk is unfinished.
          hold = outbox.empty() ? 0 : 1;
          sub->outstanding.fetch_add(hold, std::memory_order_relaxed);
        }
        send_staged(*sub, outbox);
        finish(*sub, hold);
      }
    }
  }

  std::unique_ptr<Client> do_connect(
      std::shared_ptr<const Index> self) const override;

  ClusterConfig config_;
  index::RangePartitioner partitioner_;
  mutable std::mutex membership_mu_;
  mutable Membership membership_;
  mutable std::vector<std::unique_ptr<Link>> links_;
  mutable std::vector<std::unique_ptr<NodePeer>> nodes_;
  std::shared_ptr<net::FaultController> controller_;  ///< null: no faults
  std::shared_ptr<RecoveryLedger> ledger_;
  /// The ledger's routing callable, bound once.
  const ChunkLedger::PickTarget pick_ =
      [this](std::uint32_t shard, std::uint32_t exclude) {
        return pick_target(shard, exclude);
      };
  mutable std::mutex subs_mu_;
  mutable std::unordered_map<std::uint64_t,
                             std::shared_ptr<ClusterSubmission>>
      pending_;
  mutable std::atomic<std::uint64_t> next_sub_id_{1};
  mutable std::atomic<std::uint64_t> round_robin_{0};
  std::atomic<bool> stop_{false};
  mutable std::vector<std::thread> receivers_;
  std::thread sweeper_;
};

bool ClusterIndex::rejoin_node(std::uint32_t i) const {
  {
    std::lock_guard lock(membership_mu_);
    DICI_CHECK_FMT(membership_.status(i) == NodeStatus::kDead,
                   "cluster_rejoin_node: node %u is %s, not DEAD — only a "
                   "dead node can re-join",
                   i, node_status_name(membership_.status(i)));
  }
  WallTimer recovery;
  recovery.start();
  // Retire the old incarnation. The receiver exited right after it ran
  // fail_node (which set the DEAD status gating this call), and the old
  // node object's service thread is parked (killed) or gone — both
  // joins are quick.
  if (receivers_[i].joinable()) receivers_[i].join();
  nodes_[i].reset();

  const std::uint32_t epoch =
      links_[i]->epoch.fetch_add(1, std::memory_order_acq_rel) + 1;

  // The re-scatter runs on a healed wire, like the original build —
  // build frames have no retry layer, deliberately. Re-arm afterwards.
  const bool rearm = controller_ != nullptr && controller_->armed();
  if (controller_ != nullptr) controller_->heal();

  auto spawned = spawn_node(i, epoch);
  {
    // `dead` is still true, so no sender touches the endpoint while it
    // is swapped; the admission below is the link's only user until the
    // node is ALIVE again.
    std::lock_guard lock(links_[i]->tx);
    links_[i]->endpoint = std::move(spawned.endpoint);
  }
  nodes_[i] = std::move(spawned.peer);

  std::string why;
  const bool ok = admit(i, i + 1, kRejoinTimeout, &why) == kNoNode;
  if (rearm) controller_->arm();
  if (!ok) {
    // Back to DEAD (legal from kJoining/kAck/kAlive; no-op from kDead).
    // The fresh node object idles until the next attempt replaces it or
    // the index tears down.
    std::lock_guard lock(membership_mu_);
    membership_.transition(i, NodeStatus::kDead);
    return false;
  }
  {
    std::lock_guard lock(links_[i]->tx);
    links_[i]->dead.store(false, std::memory_order_release);
  }
  receivers_[i] = std::thread([this, i] { receiver_loop(i); });
  broadcast_cluster_info();
  ledger_->rejoins.fetch_add(1, std::memory_order_relaxed);
  ledger_->recovery_ns.fetch_add(
      static_cast<std::uint64_t>(recovery.elapsed_ns()),
      std::memory_order_relaxed);
  return true;
}

/// Waits one submission and assembles its RunReport — or throws
/// NodeFailureError when a node died under it with no surviving
/// replica. Self-contained: holds only the submission record and the
/// recovery ledger, safe to await during client teardown.
class ClusterIndex::ClusterCompletion : public Client::Completion {
 public:
  ClusterCompletion(std::shared_ptr<ClusterSubmission> sub,
                    std::shared_ptr<RecoveryLedger> ledger,
                    std::uint64_t batch_bytes)
      : sub_(std::move(sub)), ledger_(std::move(ledger)),
        batch_bytes_(batch_bytes) {}

  bool ready() const override {
    return sub_->done.load(std::memory_order_acquire);
  }

  RunReport await() override {
    ClusterSubmission& sub = *sub_;
    sub.await_done();
    const std::uint32_t failed =
        sub.failed_node.load(std::memory_order_acquire);
    if (failed != kNoNode) {
      throw NodeFailureError(
          failed, "cluster submission " + std::to_string(sub.id) +
                      " failed: node " + std::to_string(failed) +
                      " is DEAD (heartbeat timeout or link failure) and no "
                      "surviving replica holds its shards");
    }
    // Coordinator-side delta fold, after every rank has landed.
    if (sub.delta != nullptr)
      sub.delta->correct(sub.query_copy, sub.out);

    const auto N = static_cast<std::uint32_t>(sub.nodes.size());
    RunReport report;
    report.method = Method::kC3;
    report.num_queries = sub.num_queries;
    report.num_nodes = N + 1;
    report.batch_bytes = batch_bytes_;
    report.raw_makespan = ns_to_ps(sub.wall_sec * 1e9);
    report.makespan = report.raw_makespan;
    report.retries = sub.ledger.retries();
    report.failovers = sub.ledger.failovers();
    // Re-join events are index-lifetime, harvested exactly once by the
    // first successful await after they happen (merge adds them up).
    report.rejoins = ledger_->rejoins.exchange(0, std::memory_order_acq_rel);
    report.recovery_ns =
        ledger_->recovery_ns.exchange(0, std::memory_order_acq_rel);
    report.nodes.resize(N + 1);
    NodeReport& coordinator = report.nodes[0];
    coordinator.queries = sub.num_queries;
    coordinator.busy = ns_to_ps(sub.dispatch_sec * 1e9);
    coordinator.finish = report.raw_makespan;
    coordinator.idle = report.raw_makespan > coordinator.busy
                           ? report.raw_makespan - coordinator.busy
                           : 0;
    double idle_sum = 0.0;
    for (std::uint32_t i = 0; i < N; ++i) {
      const NodeTally& tally = sub.nodes[i];
      NodeReport& node = report.nodes[i + 1];
      node.queries = tally.queries;
      node.busy = tally.busy_ns * 1000;  // ns -> ps
      node.finish = report.raw_makespan;
      node.idle = report.raw_makespan > node.busy
                      ? report.raw_makespan - node.busy
                      : 0;
      node.nic.messages_sent = tally.replies;
      node.nic.bytes_sent = tally.reply_bytes;
      node.nic.messages_received = tally.sent;
      node.nic.bytes_received = tally.sent_bytes;
      // The coordinator is the other end of every node's traffic.
      coordinator.nic.messages_sent += tally.sent;
      coordinator.nic.bytes_sent += tally.sent_bytes;
      coordinator.nic.messages_received += tally.replies;
      coordinator.nic.bytes_received += tally.reply_bytes;
      const double busy_sec = static_cast<double>(tally.busy_ns) / 1e9;
      if (sub.wall_sec > 0.0)
        idle_sum += std::max(0.0, 1.0 - busy_sec / sub.wall_sec);
      report.latency_ns.merge(tally.latency);
    }
    // Frames that actually left the coordinator — retries and failover
    // re-sends included, so under faults messages > chunk count. Unlike
    // ParallelNativeEngine (request hop only, to match the simulator),
    // wire_bytes here is MEASURED traffic on both hops — these bytes
    // actually crossed a transport.
    report.messages = coordinator.nic.messages_sent;
    report.wire_bytes =
        coordinator.nic.bytes_sent + coordinator.nic.bytes_received;
    report.slave_idle_fraction = N > 0 ? idle_sum / N : 0.0;
    return report;
  }

 private:
  std::shared_ptr<ClusterSubmission> sub_;
  std::shared_ptr<RecoveryLedger> ledger_;
  std::uint64_t batch_bytes_;
};

std::unique_ptr<Client::Completion> ClusterIndex::submit_batch(
    std::span<const key_t> queries, std::vector<rank_t>* out_ranks,
    const SubmitOptions& options) const {
  const std::uint32_t N = config_.num_nodes;
  auto sub = std::make_shared<ClusterSubmission>(
      next_sub_id_.fetch_add(1, std::memory_order_relaxed), config_);
  if (out_ranks != nullptr) {
    out_ranks->assign(queries.size(), 0);
    sub->out = out_ranks->data();
  } else {
    sub->sink.assign(queries.size(), 0);
    sub->out = sub->sink.data();
  }
  sub->num_queries = queries.size();
  if (options.delta != nullptr && !options.delta->empty()) {
    sub->delta = options.delta;
    sub->query_copy.assign(queries.begin(), queries.end());
  }
  if (config_.track_latency && !options.queued_ns.empty())
    sub->queued_ns.assign(options.queued_ns.begin(), options.queued_ns.end());

  // Registered BEFORE any frame leaves, so a node death during the
  // dispatch loop already finds (and re-routes or fails) this
  // submission — and the sweeper starts covering its chunks.
  {
    std::lock_guard lock(subs_mu_);
    pending_.emplace(sub->id, sub);
  }

  const bool replicate = config_.placement == index::Placement::kReplicate;
  const std::uint32_t lanes = replicate ? N : partitioner_.parts();
  std::uint64_t round_robin = 0;
  std::vector<StagedSend> outbox;
  const ChunkLedger::SendChunk send = stager(outbox);
  // Only this thread adds chunks to `sub`, so chunk ids are this count
  // and each frame is encoded before chunk_mu is taken.
  std::uint32_t next_chunk = 0;

  sub->timer.start();
  WallTimer dispatch_timer;
  dispatch_timer.start();
  core::dispatch_master_rounds(
      queries, config_.batch_bytes, lanes,
      [&](key_t q) -> std::uint32_t {
        // kReplicate balances by turn, not by key range: lanes are just
        // round groupings, the serving node is chosen per-chunk at
        // flush (so the rotation skips dead nodes).
        return replicate ? static_cast<std::uint32_t>(round_robin++ % N)
                         : partitioner_.route(q);
      },
      [&](std::uint32_t lane, DispatchBatch&& batch) {
        net::QueryBatchMsg msg;
        msg.submission = sub->id;
        msg.shard = replicate ? net::kGlobalShard : lane;
        msg.keys = std::move(batch.keys);
        msg.ids = std::move(batch.ids);
        msg.chunk = next_chunk++;
        net::Frame frame = net::encode_query_batch(net::kCoordinatorId, msg);
        {
          std::lock_guard lock(sub->chunk_mu);
          Chunk& c = sub->ledger.add(msg.shard, std::move(frame));
          // Hold taken BEFORE the send so the countdown can never hit
          // zero while chunks are still being created; the submitter's
          // own hold keeps a failed first chunk from completing early.
          sub->outstanding.fetch_add(1, std::memory_order_relaxed);
          if (!sub->ledger.dispatch(c, Clock::now(), pick_, send)) {
            // No live holder for this shard: submitting into a grave.
            sub->record_failure(replicate ? 0 : node_of_shard(c.shard));
            sub->finish(1);  // cannot complete: the submitter's hold is out
          }
        }
        // The submitter's own hold keeps the tallies ahead of the waiter.
        send_staged(*sub, outbox);
      });
  sub->dispatch_sec = dispatch_timer.elapsed_sec();
  // Release the submitter's hold; completes immediately on zero work
  // (or when every chunk was written off at submit time).
  finish(*sub, 1);
  return std::make_unique<ClusterCompletion>(std::move(sub), ledger_,
                                             config_.batch_bytes);
}

/// One master stream into the cluster. All the machinery lives in the
/// ClusterIndex (links are shared and tx-serialized), so the client is
/// just the do_submit forwarder plus the base ledger.
class ClusterClient : public Client {
 public:
  ClusterClient(std::shared_ptr<const Index> index,
                const ClusterIndex* cluster)
      : Client(std::move(index)), cluster_(cluster) {}

  const char* backend() const override {
    return core::backend_name(Backend::kCluster);
  }

 private:
  std::unique_ptr<Completion> do_submit(
      std::span<const key_t> queries, std::vector<rank_t>* out_ranks,
      const SubmitOptions& options) override {
    return cluster_->submit_batch(queries, out_ranks, options);
  }

  const ClusterIndex* cluster_;  // the index the base class keeps alive
};

std::unique_ptr<Client> ClusterIndex::do_connect(
    std::shared_ptr<const Index> self) const {
  return std::make_unique<ClusterClient>(std::move(self), this);
}

/// `index` as a cluster index, with `node` in range (node 0 always is).
const ClusterIndex* as_cluster(const core::Index& index, const char* who,
                               std::uint32_t node = 0) {
  const auto* cluster = dynamic_cast<const ClusterIndex*>(&index);
  DICI_CHECK_FMT(cluster != nullptr,
                 "%s: index backend is %s, not a cluster index", who,
                 index.backend());
  DICI_CHECK_FMT(node < cluster->config().num_nodes,
                 "%s: node %u out of range (cluster has %u nodes)", who, node,
                 cluster->config().num_nodes);
  return cluster;
}

}  // namespace

std::shared_ptr<const core::Index> ClusterEngine::build(
    std::span<const key_t> index_keys) const {
  return std::make_shared<const ClusterIndex>(config_, index_keys);
}

void cluster_kill_node_for_test(const core::Index& index, std::uint32_t node) {
  as_cluster(index, "cluster_kill_node_for_test", node)->kill_node(node);
}

bool cluster_rejoin_node(const core::Index& index, std::uint32_t node) {
  return as_cluster(index, "cluster_rejoin_node", node)->rejoin_node(node);
}

NodeStatus cluster_node_status(const core::Index& index, std::uint32_t node) {
  return as_cluster(index, "cluster_node_status", node)->node_status(node);
}

std::vector<int> cluster_node_pids(const core::Index& index) {
  return as_cluster(index, "cluster_node_pids")->node_pids();
}

std::shared_ptr<net::FaultController> cluster_fault_controller(
    const core::Index& index) {
  return as_cluster(index, "cluster_fault_controller")->fault_controller();
}

}  // namespace dici::cluster
