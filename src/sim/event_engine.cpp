#include "pss/sim/event_engine.hpp"

#include <algorithm>

#include "pss/common/check.hpp"
#include "pss/protocol/flat_exchange.hpp"

namespace pss::sim {

namespace {
// One calendar year spans two periods: the pending set at any instant is
// every node's next wake-up (all within one period) plus in-flight messages
// (within max_latency), so a two-period year keeps the whole population
// inside one lap with headroom for rearms landing a period ahead.
constexpr double kYearsPerPeriod = 2.0;
// Windows of at most this many W-parts run inline on the sequencer: the
// pool's wake/barrier latency exceeds a handful of absorb kernels (the
// same economics as ParallelCycleEngine's inline-batch threshold).
constexpr std::size_t kInlineBatch = 4;
}  // namespace

EventEngine::EventEngine(Network& network, EventEngineConfig config)
    : network_(&network),
      config_(config),
      queue_(kYearsPerPeriod *
             (config.period > 0 ? config.period : 1.0)),
      pool_(network.options().view_size + 1),
      workers_(config.threads) {
  PSS_CHECK_MSG(config_.period > 0, "period must be positive");
  PSS_CHECK_MSG(config_.min_latency >= 0 &&
                    config_.min_latency <= config_.max_latency,
                "latency bounds must satisfy 0 <= min <= max");
  PSS_CHECK_MSG(config_.drop_probability >= 0 && config_.drop_probability <= 1,
                "drop probability must be in [0,1]");
  lookahead_ = std::min(config_.min_latency, config_.period);
  lanes_.resize(workers_.concurrency());
  windowed_ = lanes_.size() > 1;
}

void EventEngine::push_event(double at, Kind kind, NodeId from, NodeId to,
                             std::uint64_t exchange_id,
                             DescriptorSlabPool::SlabId slab) {
  FlatEvent e;
  e.from = from;
  e.to = to;
  e.slab = slab;
  e.kind = static_cast<std::uint32_t>(kind);
  e.exchange_id = exchange_id;
  queue_.push(at, next_seq_++, e);
}

std::uint32_t EventEngine::maybe_forge_slab(
    NodeId sender, NodeId receiver, DescriptorSlabPool::SlabId slab,
    std::uint32_t size, std::vector<NodeDescriptor>& staging) {
  if (tamper_ == nullptr || !tamper_->is_byzantine(sender)) return size;
  NodeDescriptor* data = pool_.data(slab);
  staging.assign(data, data + size);
  tamper_->forge_buffer(sender, receiver, staging);
  // The tamper contract caps forged buffers at view_size + 1 entries —
  // exactly one slab (the same bound an honest push buffer satisfies).
  PSS_CHECK_MSG(staging.size() <= network_->options().view_size + 1,
                "forged buffer exceeds message slab capacity");
  std::copy(staging.begin(), staging.end(), data);
  return static_cast<std::uint32_t>(staging.size());
}

void EventEngine::on_wakeup(NodeId id) {
  // Re-arm the periodic timer first so a node keeps its phase forever (and
  // the rearm takes its seq before the request — the legacy event order).
  push_event(now_ + config_.period, Kind::kWakeup, kInvalidNode, id, 0,
             DescriptorSlabPool::kNoSlab);

  if (!network_->is_live(id)) return;
  ++stats_.wakeups;
  flat::NodeArena& arena = network_->arena();
  const bool traced = trace_ != nullptr && trace_->armed();
  std::uint64_t t0 = 0;
  if (traced) {
    t0 = trace_clock_ns();
    // expire_overdue is about to surface this as a contact failure; mark
    // the timeout against the exchange that never completed.
    const PendingExchange& p = pending_[id];
    if (p.active && p.deadline < now_) {
      trace_->record({TracePhase::kTimeout, id, p.peer, p.exchange_id, ticks_,
                      t0, t0});
    }
  }
  // The pull reply never arrived in time: treat as a failed contact.
  expire_overdue(arena, id, pending_[id], now_, network_->options());

  // Peer selection runs on the un-aged view so the once-per-period aging
  // can fuse with the request-buffer build below (one pass over the active
  // slot instead of two). Legal by the argument pinned in cycle_step.hpp: a
  // uniform +1 preserves the (hop, address) order, the class boundaries
  // and the class sizes, so every policy picks the same address and
  // consumes Rng identically on either side of the aging.
  const bool age_view = tamper_ == nullptr || !tamper_->suppress_aging(id);
  auto peer = flat::select_peer(arena.views.view_of(id),
                                network_->spec().peer_selection,
                                arena.rngs[id]);
  if (!peer) {
    if (age_view) arena.views.age(id);  // timestamp semantics, peer or not
    if (traced) {
      trace_->record({TracePhase::kSelect, id, kInvalidNode, 0, ticks_, t0,
                      trace_clock_ns()});
    }
    return;
  }
  ++arena.stats[id].initiated;

  const std::uint64_t exchange_id = next_exchange_++;
  if (network_->spec().pull()) {
    // Starting a new exchange supersedes any outstanding one.
    if (open_exchange(pending_[id], exchange_id, *peer,
                      now_ + config_.reply_timeout)) {
      ++stats_.replies_stale;
    }
  }
  if (traced) {
    const std::uint64_t t1 = trace_clock_ns();
    trace_->record(
        {TracePhase::kSelect, id, *peer, exchange_id, ticks_, t0, t1});
    t0 = t1;
  }

  ++stats_.messages_sent;
  Rng& rng = network_->rng();
  if (rng.chance(config_.drop_probability)) {
    ++stats_.messages_dropped;
    // A dropped message never needs its payload built, but the slot's
    // once-per-period aging still happens (aging consumes no Rng, so
    // deferring it behind the draw is invisible).
    if (age_view) arena.views.age(id);
    // The active thread did send; the loss is in-flight. The span still
    // marks the request as sent so the stitcher sees the broken chain.
    if (traced) {
      trace_->record({TracePhase::kRequestSent, id, *peer, exchange_id,
                      ticks_, t0, trace_clock_ns()});
    }
    return;
  }
  const double latency =
      config_.min_latency +
      rng.uniform() * (config_.max_latency - config_.min_latency);
  const DescriptorSlabPool::SlabId slab = pool_.acquire();
  // Fused pass: age the active slot while streaming the aged entries (and
  // the leading {self, 0}) straight into the message slab — one touch of
  // the slot. Byzantine wakeups keep the unfused build on the un-aged view
  // (their aging was suppressed).
  std::uint32_t n =
      age_view ? flat::age_write_active_buffer(arena.views, id, id,
                                               network_->spec().push(),
                                               pool_.data(slab))
               : flat::write_active_buffer(arena.views.view_of(id), id,
                                           network_->spec().push(),
                                           pool_.data(slab));
  n = maybe_forge_slab(id, *peer, slab, n, lanes_[0].forged);
  pool_.set_size(slab, n);
  push_event(now_ + latency, Kind::kRequest, id, *peer, exchange_id, slab);
  if (traced) {
    trace_->record({TracePhase::kRequestSent, id, *peer, exchange_id, ticks_,
                    t0, trace_clock_ns()});
  }
}

void EventEngine::on_request(const FlatEvent& e) {
  if (!network_->is_live(e.to) || !network_->can_communicate(e.from, e.to)) {
    ++stats_.messages_to_dead;
    pool_.release(e.slab);
    return;
  }
  // Reply dispatch (master-stream draws) decided up front so a reply that
  // will be dropped is never built. The legacy engine draws these after the
  // passive handler, but the master and per-node streams are independent,
  // so each stream's own sequence — all that determinism rests on — is
  // unchanged (pinned by the trace-equivalence suite).
  DescriptorSlabPool::SlabId reply_slab = DescriptorSlabPool::kNoSlab;
  if (network_->spec().pull()) {
    ++stats_.messages_sent;
    Rng& rng = network_->rng();
    if (rng.chance(config_.drop_probability)) {
      ++stats_.messages_dropped;
    } else {
      const double latency =
          config_.min_latency +
          rng.uniform() * (config_.max_latency - config_.min_latency);
      reply_slab = pool_.acquire();
      // The reply event is scheduled now (sequence numbers are global
      // state); its payload and entry count land in the W-part, which
      // completes before the window barrier — and the reply's arrival lies
      // beyond the lookahead horizon, so no pop can observe the slab early.
      push_event(now_ + latency, Kind::kReply, e.to, e.from, e.exchange_id,
                 reply_slab);
    }
  }
  absorb({e.to, e.from, e.slab, reply_slab, pool_.size(e.slab),
          static_cast<std::uint32_t>(Kind::kRequest), e.exchange_id});
}

void EventEngine::on_reply(const FlatEvent& e) {
  if (!network_->is_live(e.to) || !network_->can_communicate(e.from, e.to)) {
    ++stats_.messages_to_dead;
    pool_.release(e.slab);
    return;
  }
  if (!admit_reply(pending_[e.to], e.exchange_id, now_)) {
    ++stats_.replies_stale;
    pool_.release(e.slab);
    return;
  }
  ++stats_.replies_delivered;
  absorb({e.to, e.from, e.slab, DescriptorSlabPool::kNoSlab,
          pool_.size(e.slab), static_cast<std::uint32_t>(Kind::kReply),
          e.exchange_id});
}

void EventEngine::absorb(const Absorb& a) {
  ++deferred_tasks_;
  if (!windowed_) {
    run_absorb(a, lanes_[0]);
    pool_.release(a.slab);
    return;
  }
  claim_[a.node] = claim_gen_;
  batch_.push_back(a);
}

void EventEngine::run_absorb(const Absorb& a, LaneState& lane) {
  flat::NodeArena& arena = network_->arena();
  // May run on any lane; record() is thread-safe by the probe contract.
  // ticks_ is stable while lanes run (mutated only between windows).
  const bool traced = trace_ != nullptr && trace_->armed();
  const std::uint64_t t0 = traced ? trace_clock_ns() : 0;
  const bool request = a.kind == static_cast<std::uint32_t>(Kind::kRequest);
  if (request) {
    const bool reply = a.reply_slab != DescriptorSlabPool::kNoSlab;
    std::uint32_t reply_size = flat::handle_request(
        arena, a.node, pool_.data(a.slab), a.size,
        reply ? pool_.data(a.reply_slab) : nullptr, network_->spec(),
        network_->options(), lane.scratch);
    if (reply) {
      reply_size =
          maybe_forge_slab(a.node, a.peer, a.reply_slab, reply_size,
                           lane.forged);
      // Distinct slabs own distinct size-table entries, so concurrent
      // set_size calls never share a location (no acquire can run here).
      pool_.set_size(a.reply_slab, reply_size);
    }
  } else {
    flat::handle_reply(arena, a.node, pool_.data(a.slab), a.size,
                       network_->spec(), network_->options(), lane.scratch);
  }
  if (traced) {
    trace_->record({request ? TracePhase::kMergeApply
                            : TracePhase::kReplyReceived,
                    a.node, a.peer, a.exchange_id, ticks_, t0,
                    trace_clock_ns()});
  }
}

void EventEngine::flush_batch() {
  ++windows_;
  if (batch_.empty()) return;
  const unsigned lanes = workers_.concurrency();
  if (batch_.size() <= kInlineBatch) {
    for (const Absorb& a : batch_) run_absorb(a, lanes_[0]);
  } else {
    pooled_tasks_ += batch_.size();
    workers_.run([&](unsigned lane) {
      for (std::size_t k = lane; k < batch_.size(); k += lanes) {
        run_absorb(batch_[k], lanes_[lane]);
      }
    });
  }
  // Consumed payloads recycle at the barrier, in batch (= pop) order — the
  // one divergence from the one-lane run's mid-event releases; slab ids are
  // opaque, so nothing observable depends on it (see the header).
  for (const Absorb& a : batch_) pool_.release(a.slab);
  batch_.clear();
}

void EventEngine::schedule_new_nodes() {
  // Nodes created since the last call get a first wake-up with a uniform
  // random phase inside one period, matching the skeleton's independent
  // per-node timers.
  const std::size_t n = network_->size();
  if (scheduled_nodes_ >= n) return;
  pending_.resize(n);
  if (windowed_) claim_.resize(n, 0);
  while (scheduled_nodes_ < n) {
    const NodeId id = static_cast<NodeId>(scheduled_nodes_++);
    const double at = now_ + network_->rng().uniform() * config_.period;
    push_event(at, Kind::kWakeup, kInvalidNode, id, 0,
               DescriptorSlabPool::kNoSlab);
  }
}

void EventEngine::advance_to(double until) {
  schedule_new_nodes();
  const flat::NodeArena& arena = network_->arena();
  bool window_open = false;
  double window_end = 0;
  while (const auto* item = queue_.pop_if_at_most(until)) {
    const double at = item->at;
    const FlatEvent e = item->value;  // handlers push, which may repoint item
    // The handler's arena touches are random reads over hundreds of MB at
    // scale; warming the *next* event's target while this one is handled
    // hides most of that latency (same trick as CycleEngine's lookahead).
    // peek_hint is a scan-free guess — good enough for a prefetch. With
    // more lanes a request/reply target's slot and slab are touched by a
    // worker lane, not here; warming them on the sequencer only makes the
    // lines bounce between cores, so only wakeup targets are warmed.
    if (const auto* hint = queue_.peek_hint()) {
      const FlatEvent& next = hint->value;
      const bool wakeup =
          next.kind == static_cast<std::uint32_t>(Kind::kWakeup);
      if (!windowed_ || wakeup) arena.prefetch_node(next.to);
      if (!windowed_ && next.slab != DescriptorSlabPool::kNoSlab) {
        pool_.prefetch(next.slab);
      }
#if defined(__GNUC__) || defined(__clang__)
      __builtin_prefetch(pending_.data() + next.to, 1, 1);
#endif
    }
    if (!windowed_) {
      ++windows_;  // one lane: the absorb already ran, the window is closed
    } else {
      // The open window closes at the lookahead horizon or at the first
      // event whose target a deferred W-part already claims (that event
      // opens the next window, so conflicting pairs keep their order).
      // Flushing touches no queue state, so `e` stays valid across it.
      if (window_open && (at >= window_end || claimed(e.to))) {
        flush_batch();
        window_open = false;
      }
      if (!window_open) {
        // Claim generations make the per-window reset one counter bump
        // (generation 0 marks "never claimed" in freshly grown claim_
        // entries, so the counter starts above it and only ever grows).
        ++claim_gen_;
        window_end = at + lookahead_;
        window_open = true;
      }
    }
    now_ = at;
    switch (static_cast<Kind>(e.kind)) {
      case Kind::kWakeup: on_wakeup(e.to); break;
      case Kind::kRequest: on_request(e); break;
      case Kind::kReply: on_reply(e); break;
    }
  }
  if (window_open) flush_batch();
  now_ = until;
}

void EventEngine::run_until(double until) {
  advance_to(until);
  // Explicit time targets re-anchor the cycle counter: subsequent
  // run_cycles calls count whole periods from here.
  tick_anchor_ = now_;
  ticks_ = 0;
}

void EventEngine::run_cycles(std::size_t cycles) {
  if (probes_.empty()) {
    ticks_ += cycles;
    probe_ticks_ += static_cast<Cycle>(cycles);  // keep the lifetime count
    advance_to(tick_anchor_ + static_cast<double>(ticks_) * config_.period);
    return;
  }
  // With probes attached, stop at every tick boundary so observers see the
  // overlay at cycle granularity. Each target is computed from the anchor
  // exactly as the probe-free path computes its single target, so the final
  // time — and, events being totally (at, seq)-ordered, the whole event
  // sequence — is identical with and without probes.
  for (std::size_t i = 0; i < cycles; ++i) {
    ++ticks_;
    advance_to(tick_anchor_ + static_cast<double>(ticks_) * config_.period);
    ++probe_ticks_;
    fire_probes(probes_, *network_, probe_ticks_);
  }
}

}  // namespace pss::sim
