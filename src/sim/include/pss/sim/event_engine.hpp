// Asynchronous event-driven execution engine on the flat simulation core.
//
// The paper's results come from a cycle-based simulator in which an
// exchange is atomic. Real deployments interleave messages with latency,
// losses and timeouts. EventEngine runs the *same* protocol mechanics over
// an explicit discrete-event message layer:
//   - each node's active thread fires every `period` time units, with a
//     uniform random initial phase (as in the skeleton's wait(T));
//   - every message (request or reply) experiences an independent uniform
//     latency in [min_latency, max_latency] and is dropped with probability
//     drop_probability;
//   - a pulling node keeps a single outstanding exchange; a reply that
//     arrives after reply_timeout (or after a newer exchange started) is
//     discarded; timeouts surface as contact failures.
//
// Tests use this engine to show the paper's conclusions are not artifacts
// of the atomic-exchange model (convergence to the same small-world state).
//
// Execution runs entirely on the network's flat::NodeArena, mirroring what
// CycleEngine did for the atomic model:
//   - the scheduler is an index-based calendar queue (calendar_queue.hpp):
//     O(1) amortized schedule/pop over ~N pending events instead of a
//     global binary heap's O(log N) pointer-heavy sifts, with the exact
//     (at, seq) pop order of the heap preserved;
//   - message payloads are fixed-stride slabs in a recycling
//     DescriptorSlabPool instead of heap-allocated View objects — a queued
//     event is 40 trivially-copyable bytes and steady state allocates
//     nothing;
//   - wakeup/request/reply handling goes straight at the arena slots via
//     the flat_exchange request/reply split kernels, bypassing the
//     GossipNode adapter (and its View materialization) on the hot path.
// The original adapter-path implementation survives as LegacyEventEngine;
// tests/event_engine_flat_test.cpp replays the two against each other
// (identical seeds -> identical EventEngineStats and final views), at one
// lane and at four, which is the contract that lets this engine keep
// evolving.
//
// Lanes. The per-event work is entangled with *global* sequential state —
// the master Rng (drop/latency draws), the event sequence counter, the
// exchange-id counter and the slab pool — whose consumption order defines
// the run. Every handler is therefore split into:
//
//   S-part (sequencer): everything that touches global state, executed on
//     the driving thread in exact (at, seq) pop order — timer re-arms,
//     liveness checks, master-Rng draws, slab acquisition, event pushes,
//     pull admission (pending table), engine counters. Wakeups are S-part
//     only: they read and write their own node's slot inline.
//   W-part (absorb): the per-node kernel work of a request or a reply —
//     handle_request / handle_reply, i.e. the merge/select absorb into one
//     node's slot with that node's own Rng stream.
//
// With one lane (EventEngineConfig::threads == 1, the default) the W-part
// runs at once, right behind its S-part: every event is its own window.
// With more lanes, W-parts are deferred into a lookahead window of width
//   W = min(min_latency, period)
// and fanned out over a ThreadPool when the window closes. Every event an
// in-window handler creates lands at least W after the window start
// (messages by the latency floor, re-arms by the period), so nothing
// processed in a window can be scheduled into it — the popped prefix is
// causally closed (the safe-horizon argument LoopbackDriver uses to order
// timer + frame events). Within a window, W-parts on distinct nodes
// commute: each touches only its node's slot, stats row and Rng stream,
// plus message slabs no other task holds. Two events on the SAME node must
// keep their pop order, so a window also closes early at the first event
// whose target a deferred W-part already claims — ConflictScheduler's
// contiguous-batch discipline transplanted to event targets. With
// min_latency == 0 the safe horizon is empty and every window holds one
// event: zero-delay configurations have no causal slack to exploit.
//
// Bit-identity across lane counts, pinned by tests/event_engine_lanes_test.cpp
// and bench/scale_async's digest gate: the pop order is the same at any
// lane count (same queue, same pushes in the same S-part order, so the same
// (at, seq) tags); master-Rng, exchange-id and sequence-counter consumption
// happen on the sequencer in that order; per-node draws are serialized per
// node by the claim rule; and counters are S-phase only. The one invisible
// difference: deferred W-parts recycle their request slabs at the window
// barrier instead of mid-event, so the pool's free-list order — and
// possibly its high-water mark — may differ. Slab ids are opaque handles;
// no payload, view, stat or Rng value depends on them.
#pragma once

#include <cstdint>
#include <vector>

#include "pss/common/types.hpp"
#include "pss/membership/descriptor_slab_pool.hpp"
#include "pss/membership/flat_ops.hpp"
#include "pss/sim/calendar_queue.hpp"
#include "pss/sim/cycle_step.hpp"
#include "pss/sim/exchange_apply.hpp"
#include "pss/sim/network.hpp"
#include "pss/sim/probe.hpp"
#include "pss/sim/thread_pool.hpp"
#include "pss/sim/trace_probe.hpp"

namespace pss::sim {

struct EventEngineConfig {
  double period = 1.0;            ///< T: time between active-thread firings
  double min_latency = 0.01;      ///< per-message latency lower bound
  double max_latency = 0.10;      ///< per-message latency upper bound
  double drop_probability = 0.0;  ///< independent message loss probability
  double reply_timeout = 0.5;     ///< pull reply validity window
  /// Absorb lanes: 1 runs every absorb at once on the driving thread; more
  /// defer absorbs into lookahead windows over a ThreadPool of this many
  /// lanes (0 = hardware concurrency). Results are bit-identical at any
  /// value. LegacyEventEngine ignores it.
  unsigned threads = 1;
};

/// Aggregate counters over the whole run.
struct EventEngineStats {
  std::uint64_t wakeups = 0;            ///< active-thread firings
  std::uint64_t messages_sent = 0;      ///< requests + replies put on the wire
  std::uint64_t messages_dropped = 0;   ///< lost to drop_probability
  std::uint64_t messages_to_dead = 0;   ///< addressed to a dead node
  std::uint64_t replies_delivered = 0;  ///< pull replies accepted in time
  std::uint64_t replies_stale = 0;      ///< late or superseded pull replies
};

class EventEngine {
 public:
  /// Schedules an initial wake-up for every live node at a uniform random
  /// phase in [0, period), and starts one worker thread per lane beyond
  /// the first. `network` must outlive the engine.
  EventEngine(Network& network, EventEngineConfig config);

  /// Processes all events with timestamp <= until (exclusive of later ones),
  /// and re-anchors the integer cycle counter at `until` (see run_cycles).
  void run_until(double until);

  /// Advances by `cycles * period`. Wake targets are derived from an
  /// integer tick counter anchored at the last explicit run_until (or
  /// construction), i.e. anchor + total_ticks * period — one rounding per
  /// call instead of the legacy now + cycles * period accumulation, whose
  /// error compounds across repeated calls.
  void run_cycles(std::size_t cycles);

  /// Current simulated time; run_until(t) leaves it at t.
  double now() const { return now_; }

  /// Aggregate counters since construction.
  const EventEngineStats& stats() const { return stats_; }

  /// Registers an observer fired at period-tick boundaries during
  /// run_cycles: after every `cadence`-th completed tick, counted across
  /// the engine's lifetime, with the tick count passed as the probe's
  /// cycle. run_until does not fire probes (it has no tick structure).
  /// Event processing is unaffected: events are totally ordered by
  /// (at, seq), so stopping at intermediate tick boundaries replays the
  /// exact same sequence. Probes fire on the driving thread between
  /// windows, never while workers run. The probe must outlive the engine.
  void attach_probe(SnapshotProbe& probe, Cycle cadence = 1) {
    register_probe(probes_, probe, cadence);
  }

  /// Registers the byzantine-injection hook (see ExchangeTamper in
  /// cycle_step.hpp): byzantine wake-ups skip view aging, and byzantine
  /// request/reply payloads are rewritten in their message slabs just
  /// before they go on the wire. Message timing, losses and the master Rng
  /// are untouched, so a tamper that never forges or suppresses leaves the
  /// run bit-identical to an unhooked engine. With more than one lane,
  /// reply forging runs on worker lanes, so is_byzantine / forge_buffer
  /// must be safe to call concurrently (pure functions of their arguments
  /// in practice); wakeup hooks (suppress_aging, request forging) stay on
  /// the sequencer. The tamper must outlive the engine.
  void attach_adversary(ExchangeTamper& tamper) { tamper_ = &tamper; }

  /// Registers the causal-tracing hook (see TraceProbe in trace_probe.hpp):
  /// select / request-sent spans and timeout marks on the active side of
  /// each wakeup, merge+apply on the passive request handler,
  /// reply-received on admitted replies — all labelled with the engine's
  /// u64 exchange id. Select / request-sent / timeout spans fire on the
  /// sequencer in pop order; with more than one lane, merge+apply and
  /// reply-received fire on whichever lane runs the absorb, so record()
  /// must be safe under concurrent callers (the TraceProbe contract).
  /// Tracing reads clocks and engine-local values only, so hooked runs
  /// (armed or disarmed) stay digest-identical to the unhooked engine at
  /// any lane count. The probe must outlive the engine.
  void attach_trace(TraceProbe& trace) { trace_ = &trace; }

  // --- Introspection (tests, bench drivers) --------------------------------

  /// Events currently scheduled (wake-ups + in-flight messages).
  std::size_t queued_events() const { return queue_.size(); }

  /// Message slabs ever created — the high-water mark of in-flight
  /// messages; boundedness here is what "recycling" means.
  std::size_t message_pool_slabs() const { return pool_.slab_count(); }

  /// Message slabs currently attached to queued events.
  std::size_t message_pool_in_use() const { return pool_.in_use(); }

  /// Absorb lanes, the driving thread included (config.threads resolved).
  unsigned threads() const { return workers_.concurrency(); }

  /// The conservative safe horizon W = min(min_latency, period).
  double lookahead() const { return lookahead_; }

  /// Windows closed. At one lane every event is its own window.
  std::uint64_t windows() const { return windows_; }

  /// Absorbs (W-parts) executed, and how many ran through the thread pool
  /// (the rest ran on the sequencer: every absorb at one lane, and windows
  /// at or below the dispatch threshold at more).
  std::uint64_t deferred_tasks() const { return deferred_tasks_; }
  std::uint64_t pooled_tasks() const { return pooled_tasks_; }

  /// Bytes resident in engine-owned state (calendar buckets, message pool,
  /// pending table, window claims and batch) — the engine's contribution on
  /// top of the network's resident_bytes().
  std::size_t resident_bytes() const {
    return queue_.storage_bytes() + pool_.storage_bytes() +
           pending_.capacity() * sizeof(PendingExchange) +
           claim_.capacity() * sizeof(std::uint64_t) +
           batch_.capacity() * sizeof(Absorb);
  }

 private:
  enum class Kind : std::uint32_t { kWakeup, kRequest, kReply };

  /// 24-byte trivially-copyable event record; payloads live in the pool.
  struct FlatEvent {
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    DescriptorSlabPool::SlabId slab = DescriptorSlabPool::kNoSlab;
    std::uint32_t kind = 0;
    std::uint64_t exchange_id = 0;  ///< matches replies to requests
  };

  /// A W-part: one node's absorb kernel over one message slab.
  struct Absorb {
    NodeId node = kInvalidNode;  ///< target (the event's `to`)
    NodeId peer = kInvalidNode;  ///< the event's `from` (forge receiver)
    DescriptorSlabPool::SlabId slab = DescriptorSlabPool::kNoSlab;
    DescriptorSlabPool::SlabId reply_slab = DescriptorSlabPool::kNoSlab;
    std::uint32_t size = 0;         ///< payload entries in `slab`
    std::uint32_t kind = 0;         ///< kRequest or kReply
    std::uint64_t exchange_id = 0;  ///< trace span label
  };

  /// Per-lane working state, cache-line separated: the absorb kernels are
  /// allocation-free given a warm Scratch, so lanes never share memory.
  /// Lane 0 is the driving thread's, which the S-parts use too.
  struct alignas(64) LaneState {
    flat::Scratch scratch;              ///< exchange working memory
    std::vector<NodeDescriptor> forged;  ///< forge staging buffer
  };

  void advance_to(double until);
  void schedule_new_nodes();
  /// Rewrites a byzantine sender's slab in place through the tamper; the
  /// slab's entry count after forging is returned (== `size` when honest).
  std::uint32_t maybe_forge_slab(NodeId sender, NodeId receiver,
                                 DescriptorSlabPool::SlabId slab,
                                 std::uint32_t size,
                                 std::vector<NodeDescriptor>& staging);
  void push_event(double at, Kind kind, NodeId from, NodeId to,
                  std::uint64_t exchange_id, DescriptorSlabPool::SlabId slab);
  /// S-parts, in pop order on the driving thread. on_request and on_reply
  /// end in absorb().
  void on_wakeup(NodeId node);
  void on_request(const FlatEvent& e);
  void on_reply(const FlatEvent& e);
  /// Runs `a` at once (one lane) or defers it into the open window.
  void absorb(const Absorb& a);
  /// The W-part itself; `lane` is the running lane's working state.
  void run_absorb(const Absorb& a, LaneState& lane);
  /// Closes the window: runs its deferred W-parts (pool or inline), then
  /// recycles the consumed slabs in batch order and clears the batch.
  void flush_batch();

  bool claimed(NodeId node) const { return claim_[node] == claim_gen_; }

  Network* network_;
  EventEngineConfig config_;
  EventEngineStats stats_;
  double now_ = 0;
  double lookahead_ = 0;             ///< W = min(min_latency, period)
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_exchange_ = 1;
  CalendarQueue<FlatEvent> queue_;
  DescriptorSlabPool pool_;
  // Pull bookkeeping shared with the transport-layer ServiceNode (see
  // exchange_apply.hpp): both drivers admit/expire replies through the
  // same helpers, which the transport differential suite pins.
  std::vector<PendingExchange> pending_;
  std::size_t scheduled_nodes_ = 0;  ///< nodes whose wake-up loop is running
  double tick_anchor_ = 0;           ///< last explicit run_until target
  std::uint64_t ticks_ = 0;          ///< run_cycles ticks since the anchor
  std::vector<ProbeRegistration> probes_;
  Cycle probe_ticks_ = 0;            ///< lifetime tick count for cadence
  ExchangeTamper* tamper_ = nullptr;  ///< byzantine seam; null = honest run
  TraceProbe* trace_ = nullptr;       ///< tracing seam; null = untraced run

  ThreadPool workers_;
  std::vector<LaneState> lanes_;      ///< one per pool lane
  bool windowed_ = false;             ///< more than one lane: defer absorbs
  std::vector<Absorb> batch_;         ///< open window's deferred W-parts
  std::vector<std::uint64_t> claim_;  ///< generation-stamped target claims
  std::uint64_t claim_gen_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t deferred_tasks_ = 0;
  std::uint64_t pooled_tasks_ = 0;
};

}  // namespace pss::sim
