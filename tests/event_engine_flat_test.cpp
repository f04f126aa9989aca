// The flat event engine's contract, in two halves:
//   1. CalendarQueue unit tests — deterministic (at, seq) pop order under
//      ties, bucket growth/shrink, far-future events (the sparse direct-
//      search path), and a randomized replay against std::priority_queue.
//   2. Trace equivalence — the flat EventEngine must reproduce the frozen
//      LegacyEventEngine bit-for-bit from the same seed: identical
//      EventEngineStats, identical final views and per-node counters, for
//      every evaluated protocol and under loss, timeouts, kills, revivals,
//      partitions and late joiners — at one lane and at four, so the
//      windowed schedule is pinned to the oracle directly rather than only
//      through the one-lane run. This is the pin that let the engine move
//      off the object graph without the semantics moving.
#include <gtest/gtest.h>

#include <queue>
#include <vector>

#include "pss/common/rng.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/calendar_queue.hpp"
#include "pss/sim/event_engine.hpp"
#include "pss/sim/legacy_event_engine.hpp"

namespace pss::sim {
namespace {

// --- CalendarQueue ---------------------------------------------------------

TEST(CalendarQueue, PopsInTimeOrderWithSeqTieBreak) {
  CalendarQueue<int> q(2.0);
  // Three timestamp ties (same at -> same bucket) interleaved with others,
  // pushed out of order; seq decides within a tie.
  q.push(0.5, 4, 40);
  q.push(0.25, 1, 10);
  q.push(0.5, 2, 20);
  q.push(1.75, 5, 50);
  q.push(0.5, 3, 30);
  q.push(0.0, 0, 0);
  std::vector<int> order;
  while (!q.empty()) order.push_back(q.pop().value);
  EXPECT_EQ(order, (std::vector<int>{0, 10, 20, 30, 40, 50}));
}

TEST(CalendarQueue, BucketResizeKeepsOrderAndShrinksBack) {
  CalendarQueue<int> q(2.0, 16);
  const std::size_t initial_buckets = q.bucket_count();
  Rng rng(7);
  std::vector<double> times;
  for (int i = 0; i < 4000; ++i) times.push_back(rng.uniform() * 2.0);
  for (std::size_t i = 0; i < times.size(); ++i) {
    q.push(times[i], i, static_cast<int>(i));
  }
  EXPECT_GT(q.bucket_count(), initial_buckets);  // growth triggered
  double last = -1.0;
  while (q.size() > times.size() / 100) {
    const auto item = q.pop();
    EXPECT_GE(item.at, last);
    last = item.at;
  }
  EXPECT_LT(q.bucket_count(), 4000 / 4);  // shrink triggered on the way down
  while (!q.empty()) {
    const auto item = q.pop();
    EXPECT_GE(item.at, last);
    last = item.at;
  }
}

TEST(CalendarQueue, FarFutureEventsTakeTheSparsePath) {
  CalendarQueue<int> q(1.0);
  // Everything sits many "years" beyond the cursor: pop must fall back to
  // the direct bucket-minima scan and still produce total order.
  q.push(5000.25, 0, 1);
  q.push(123.5, 1, 2);
  q.push(99999.75, 2, 3);
  q.push(123.5, 3, 4);
  std::vector<int> order;
  while (!q.empty()) order.push_back(q.pop().value);
  EXPECT_EQ(order, (std::vector<int>{2, 4, 1, 3}));
  // And the queue keeps working for near events afterwards.
  q.push(0.5, 4, 5);
  EXPECT_EQ(q.pop().value, 5);
}

TEST(CalendarQueue, MatchesBinaryHeapUnderRandomizedHold) {
  // The event engine's access pattern: pop the minimum, push a mix of
  // near-future (message-like) and one-period-ahead (rearm-like) events.
  using Ref = std::pair<double, std::uint64_t>;
  std::priority_queue<Ref, std::vector<Ref>, std::greater<Ref>> ref;
  CalendarQueue<std::uint64_t> q(2.0);
  Rng rng(11);
  std::uint64_t seq = 0;
  for (int i = 0; i < 200; ++i) {
    const double at = rng.uniform();
    ref.emplace(at, seq);
    q.push(at, seq, seq);
    ++seq;
  }
  double now = 0;
  for (int step = 0; step < 5000; ++step) {
    ASSERT_EQ(q.empty(), ref.empty());
    if (!ref.empty() && (ref.size() > 300 || rng.chance(0.6))) {
      const auto [at, id] = ref.top();
      ref.pop();
      const auto item = q.pop();
      ASSERT_DOUBLE_EQ(item.at, at);
      ASSERT_EQ(item.seq, id);
      now = at;
    } else {
      const double at =
          now + (rng.chance(0.3) ? 1.0 : rng.uniform() * 0.1);
      ref.emplace(at, seq);
      q.push(at, seq, seq);
      ++seq;
    }
  }
}

// --- Trace equivalence: flat engine vs. frozen legacy reference ------------

EventEngineConfig async_config(unsigned threads = 1) {
  EventEngineConfig cfg;
  cfg.period = 1.0;
  cfg.min_latency = 0.01;
  cfg.max_latency = 0.10;
  cfg.reply_timeout = 0.5;
  cfg.threads = threads;
  return cfg;
}

// Lane counts every equivalence case replays at: the immediate-absorb path
// and the windowed path. LegacyEventEngine ignores the field.
constexpr unsigned kLaneCounts[] = {1, 4};

void expect_stats_equal(const EventEngineStats& a, const EventEngineStats& b) {
  EXPECT_EQ(a.wakeups, b.wakeups);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.messages_to_dead, b.messages_to_dead);
  EXPECT_EQ(a.replies_delivered, b.replies_delivered);
  EXPECT_EQ(a.replies_stale, b.replies_stale);
}

void expect_networks_equal(const Network& a, const Network& b) {
  ASSERT_EQ(a.size(), b.size());
  for (NodeId id = 0; id < a.size(); ++id) {
    const auto va = a.view_span(id);
    const auto vb = b.view_span(id);
    ASSERT_EQ(va.size(), vb.size()) << "view size diverged at node " << id;
    for (std::size_t i = 0; i < va.size(); ++i) {
      EXPECT_EQ(va[i], vb[i]) << "view entry diverged at node " << id;
    }
    const NodeStats& sa = a.node(id).stats();
    const NodeStats& sb = b.node(id).stats();
    EXPECT_EQ(sa.initiated, sb.initiated) << "node " << id;
    EXPECT_EQ(sa.received, sb.received) << "node " << id;
    EXPECT_EQ(sa.replies_sent, sb.replies_sent) << "node " << id;
    EXPECT_EQ(sa.contact_failures, sb.contact_failures) << "node " << id;
  }
}

TEST(EventEngineTraceEquivalence, AllEvaluatedProtocols) {
  // Same seed -> two identical networks; the legacy engine drives one, the
  // flat engine the other, through identical run_until targets. Every
  // counter and every final view must match for all 8 evaluated protocols.
  for (const unsigned lanes : kLaneCounts) {
    for (const ProtocolSpec& spec : ProtocolSpec::evaluated()) {
      auto legacy_net =
          bootstrap::make_random(spec, ProtocolOptions{8, false}, 120, 99);
      auto flat_net =
          bootstrap::make_random(spec, ProtocolOptions{8, false}, 120, 99);
      LegacyEventEngine legacy(legacy_net, async_config());
      EventEngine flat(flat_net, async_config(lanes));
      legacy.run_until(12.5);
      flat.run_until(12.5);
      EXPECT_DOUBLE_EQ(legacy.now(), flat.now());
      expect_stats_equal(legacy.stats(), flat.stats());
      expect_networks_equal(legacy_net, flat_net);
      if (::testing::Test::HasFailure()) {
        FAIL() << "trace divergence under " << spec.name() << " at "
               << lanes << " lanes";
      }
    }
  }
}

TEST(EventEngineTraceEquivalence, LossTimeoutsKillsRevivalsAndLateJoiners) {
  // The adversarial trace: message loss, tight reply timeouts, mid-run
  // kills and revivals, and nodes joining while the engines run. Exercises
  // drops, messages_to_dead, stale replies and contact failures.
  for (const unsigned lanes : kLaneCounts) {
    auto cfg = async_config(lanes);
    cfg.drop_probability = 0.25;
    cfg.reply_timeout = 0.08;  // tighter than max_latency: real timeouts
    auto legacy_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                             ProtocolOptions{6, false}, 80, 7);
    auto flat_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                           ProtocolOptions{6, false}, 80, 7);
    LegacyEventEngine legacy(legacy_net, cfg);  // ignores cfg.threads
    EventEngine flat(flat_net, cfg);

    legacy.run_until(5.0);
    flat.run_until(5.0);
    for (NodeId id = 0; id < 20; ++id) {
      legacy_net.kill(id);
      flat_net.kill(id);
    }
    legacy.run_until(10.0);
    flat.run_until(10.0);
    for (NodeId id = 0; id < 10; ++id) {
      legacy_net.revive(id);
      flat_net.revive(id);
    }
    const NodeId late_l = legacy_net.add_node();
    const NodeId late_f = flat_net.add_node();
    ASSERT_EQ(late_l, late_f);
    legacy_net.node(late_l).init_view(View{{late_l - 1, 0}});
    flat_net.node(late_f).init_view(View{{late_f - 1, 0}});
    legacy.run_until(20.0);
    flat.run_until(20.0);

    EXPECT_GT(legacy.stats().messages_dropped, 0u);
    EXPECT_GT(legacy.stats().messages_to_dead, 0u);
    EXPECT_GT(legacy.stats().replies_stale, 0u);
    expect_stats_equal(legacy.stats(), flat.stats());
    expect_networks_equal(legacy_net, flat_net);
    if (::testing::Test::HasFailure()) FAIL() << "at " << lanes << " lanes";
  }
}

TEST(EventEngineTraceEquivalence, NetworkPartitions) {
  for (const unsigned lanes : kLaneCounts) {
    auto legacy_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                             ProtocolOptions{6, false}, 60, 13);
    auto flat_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                           ProtocolOptions{6, false}, 60, 13);
    LegacyEventEngine legacy(legacy_net, async_config());
    EventEngine flat(flat_net, async_config(lanes));
    for (NodeId id = 0; id < 30; ++id) {
      legacy_net.set_partition_group(id, 1);
      flat_net.set_partition_group(id, 1);
    }
    legacy.run_until(8.0);
    flat.run_until(8.0);
    legacy_net.clear_partitions();
    flat_net.clear_partitions();
    legacy.run_until(16.0);
    flat.run_until(16.0);
    EXPECT_GT(legacy.stats().messages_to_dead, 0u);  // cross-group losses
    expect_stats_equal(legacy.stats(), flat.stats());
    expect_networks_equal(legacy_net, flat_net);
    if (::testing::Test::HasFailure()) FAIL() << "at " << lanes << " lanes";
  }
}

// --- Flat-engine-specific behavior -----------------------------------------

TEST(EventEngineFlat, RunCyclesDerivesWakeTimesFromIntegerTicks) {
  // now + cycles * period accumulated 0.1 ten times lands at
  // 0.9999999999999999; the tick counter lands at double(10) * 0.1 == 1.0.
  auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                    ProtocolOptions{5, false}, 10, 3);
  auto cfg = async_config();
  cfg.period = 0.1;
  EventEngine engine(net, cfg);
  for (int i = 0; i < 10; ++i) engine.run_cycles(1);
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);

  // The legacy accumulation demonstrably drifts on the same schedule.
  auto ref_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                        ProtocolOptions{5, false}, 10, 3);
  LegacyEventEngine legacy(ref_net, cfg);
  for (int i = 0; i < 10; ++i) legacy.run_cycles(1);
  EXPECT_NE(legacy.now(), 1.0);

  // An explicit run_until re-anchors the counter.
  engine.run_until(1.25);
  engine.run_cycles(2);
  EXPECT_DOUBLE_EQ(engine.now(), 1.25 + 2.0 * 0.1);
}

TEST(EventEngineFlat, MessagePoolRecyclesSlabs) {
  auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                    ProtocolOptions{5, false}, 50, 21);
  EventEngine engine(net, async_config());
  engine.run_cycles(40);
  // ~3 messages per node per period for 40 periods; a non-recycling pool
  // would hold thousands of slabs. The high-water mark is bounded by the
  // in-flight population (≲ 2 per node).
  EXPECT_GT(engine.stats().messages_sent, 3000u);
  EXPECT_LE(engine.message_pool_slabs(), 2 * net.size());
  // Between events nothing leaks: every slab not attached to a queued
  // message is back on the free list.
  EXPECT_LE(engine.message_pool_in_use(), engine.queued_events());
}

TEST(EventEngineFlat, QueuedEventsTrackThePendingPopulation) {
  auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                    ProtocolOptions{5, false}, 64, 5);
  EventEngine engine(net, async_config());
  engine.run_cycles(5);
  // Every node keeps exactly one wake-up queued; in-flight messages ride on
  // top of that.
  EXPECT_GE(engine.queued_events(), net.size());
  EXPECT_LE(engine.queued_events(), 3 * net.size());
}

// --- Incremental live-id pool (Network) ------------------------------------

TEST(NetworkLivePool, TracksKillsRevivesAndAdds) {
  Network net(ProtocolSpec::newscast(), ProtocolOptions{5, false}, 17);
  net.add_nodes(10);
  EXPECT_EQ(net.live_ids().size(), 10u);
  net.kill(3);
  net.kill(7);
  EXPECT_EQ(net.live_ids().size(), 8u);
  // Pool holds exactly the live set (order unspecified).
  std::vector<NodeId> got(net.live_ids().begin(), net.live_ids().end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<NodeId>{0, 1, 2, 4, 5, 6, 8, 9}));
  net.kill(3);  // idempotent
  EXPECT_EQ(net.live_ids().size(), 8u);
  net.revive(3);
  const NodeId fresh = net.add_node();
  got.assign(net.live_ids().begin(), net.live_ids().end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<NodeId>{0, 1, 2, 3, 4, 5, 6, 8, 9, fresh}));
  // live_nodes() (ascending contract) agrees with the pool contents.
  EXPECT_EQ(net.live_nodes(), got);
}

TEST(NetworkLivePool, KillRandomIsUniformAndExact) {
  Network net(ProtocolSpec::newscast(), ProtocolOptions{5, false}, 23);
  net.add_nodes(200);
  Rng rng(31);
  net.kill_random(150, rng);
  EXPECT_EQ(net.live_count(), 50u);
  EXPECT_EQ(net.live_nodes().size(), 50u);
  EXPECT_THROW(net.kill_random(51, rng), std::logic_error);
  net.kill_random(50, rng);
  EXPECT_EQ(net.live_count(), 0u);
}

}  // namespace
}  // namespace pss::sim
