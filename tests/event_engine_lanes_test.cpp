// EventEngine's lane contract: the windowed schedule an N-lane engine runs
// replays the one-lane engine bit-identically — identical
// EventEngineStats, identical per-node views/counters/Rng streams (pinned
// through scenarios::state_digest) — at every lane count, for every
// evaluated protocol, and under loss, timeouts, kills, revivals and late
// joiners. The suite is named EventEngineLanes so CI's TSan job regex
// picks it up (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "pss/scenarios/digest.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/event_engine.hpp"
#include "pss/sim/probe.hpp"

namespace pss::sim {
namespace {

EventEngineConfig async_config(unsigned threads = 1) {
  EventEngineConfig cfg;
  cfg.period = 1.0;
  cfg.min_latency = 0.01;
  cfg.max_latency = 0.10;
  cfg.reply_timeout = 0.5;
  cfg.threads = threads;
  return cfg;
}

void expect_stats_equal(const EventEngineStats& a, const EventEngineStats& b) {
  EXPECT_EQ(a.wakeups, b.wakeups);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.messages_to_dead, b.messages_to_dead);
  EXPECT_EQ(a.replies_delivered, b.replies_delivered);
  EXPECT_EQ(a.replies_stale, b.replies_stale);
}

TEST(EventEngineLanes, AllProtocolsAllThreadCounts) {
  // One one-lane reference per protocol; runs at 0 (= hardware
  // concurrency)/1/2/4/8 lanes must land on the same state digest and the
  // same counters.
  for (const ProtocolSpec& spec : ProtocolSpec::evaluated()) {
    auto ref_net =
        bootstrap::make_random(spec, ProtocolOptions{8, false}, 150, 99);
    EventEngine ref(ref_net, async_config());
    ref.run_until(10.5);
    const std::uint64_t ref_digest = scenarios::state_digest(ref_net);
    for (unsigned threads : {0u, 1u, 2u, 4u, 8u}) {
      auto net =
          bootstrap::make_random(spec, ProtocolOptions{8, false}, 150, 99);
      EventEngine par(net, async_config(threads));
      // 0 resolves to the hardware concurrency, as ThreadPool does.
      EXPECT_EQ(par.threads(),
                threads != 0
                    ? threads
                    : std::max(1u, std::thread::hardware_concurrency()));
      par.run_until(10.5);
      EXPECT_DOUBLE_EQ(ref.now(), par.now());
      expect_stats_equal(ref.stats(), par.stats());
      EXPECT_EQ(ref_digest, scenarios::state_digest(net))
          << spec.name() << " diverged at " << threads << " threads";
      if (::testing::Test::HasFailure()) {
        FAIL() << "divergence under " << spec.name() << " threads="
               << threads;
      }
    }
  }
}

TEST(EventEngineLanes, LossTimeoutsKillsAndLateJoiners) {
  // The adversarial trace the flat-vs-legacy suite uses: drops, real reply
  // timeouts, mid-run kills/revivals and late joiners, replayed against
  // the one-lane engine at 4 lanes through interleaved run targets.
  auto cfg = async_config();
  cfg.drop_probability = 0.25;
  cfg.reply_timeout = 0.08;  // tighter than max_latency: real timeouts
  auto ref_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                        ProtocolOptions{6, false}, 80, 7);
  auto par_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                        ProtocolOptions{6, false}, 80, 7);
  EventEngine ref(ref_net, cfg);
  cfg.threads = 4;
  EventEngine par(par_net, cfg);

  ref.run_until(5.0);
  par.run_until(5.0);
  for (NodeId id = 0; id < 20; ++id) {
    ref_net.kill(id);
    par_net.kill(id);
  }
  ref.run_until(10.0);
  par.run_until(10.0);
  for (NodeId id = 0; id < 10; ++id) {
    ref_net.revive(id);
    par_net.revive(id);
  }
  ref_net.add_nodes(15);
  par_net.add_nodes(15);
  ref.run_until(16.5);
  par.run_until(16.5);

  expect_stats_equal(ref.stats(), par.stats());
  EXPECT_EQ(scenarios::state_digest(ref_net), scenarios::state_digest(par_net));
}

TEST(EventEngineLanes, ZeroLatencyDegradesToSequential) {
  // min_latency == 0 empties the safe horizon: every window holds one
  // event and the engine must still be exactly the one-lane run.
  auto cfg = async_config();
  cfg.min_latency = 0.0;
  auto ref_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                        ProtocolOptions{8, false}, 60, 21);
  auto par_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                        ProtocolOptions{8, false}, 60, 21);
  EventEngine ref(ref_net, cfg);
  cfg.threads = 4;
  EventEngine par(par_net, cfg);
  ref.run_until(8.0);
  par.run_until(8.0);
  EXPECT_DOUBLE_EQ(par.lookahead(), 0.0);
  expect_stats_equal(ref.stats(), par.stats());
  EXPECT_EQ(scenarios::state_digest(ref_net), scenarios::state_digest(par_net));
}

TEST(EventEngineLanes, RunCyclesAndProbesMatchSequential) {
  // run_cycles' tick anchoring and the probe cadence must mirror the
  // one-lane engine: same number of probe firings, same digests at the
  // end, probes not perturbing the event sequence.
  struct CountingProbe : SnapshotProbe {
    std::vector<Cycle> fired;
    void on_snapshot(const Network&, Cycle cycle) override {
      fired.push_back(cycle);
    }
  };
  auto ref_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                        ProtocolOptions{8, false}, 70, 5);
  auto par_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                        ProtocolOptions{8, false}, 70, 5);
  EventEngine ref(ref_net, async_config());
  EventEngine par(par_net, async_config(4));
  CountingProbe ref_probe;
  CountingProbe par_probe;
  ref.attach_probe(ref_probe, 2);
  par.attach_probe(par_probe, 2);
  ref.run_cycles(7);
  par.run_cycles(7);
  EXPECT_EQ(ref_probe.fired, par_probe.fired);
  EXPECT_DOUBLE_EQ(ref.now(), par.now());
  expect_stats_equal(ref.stats(), par.stats());
  EXPECT_EQ(scenarios::state_digest(ref_net), scenarios::state_digest(par_net));
}

TEST(EventEngineLanes, AdversaryHookMatchesSequential) {
  // A forging + aging-suppressing tamper (stateless, as the multi-lane
  // seam requires) must leave 4-lane and one-lane runs identical.
  struct HubPoison : ExchangeTamper {
    bool is_byzantine(NodeId node) const override { return node % 7 == 0; }
    bool suppress_aging(NodeId node) const override { return node % 7 == 0; }
    void forge_buffer(NodeId sender, NodeId /*receiver*/,
                      std::vector<NodeDescriptor>& buffer) override {
      for (NodeDescriptor& d : buffer) d = {sender, 0};
      if (buffer.size() > 1) buffer.resize(buffer.size() - 1);
    }
  };
  auto ref_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                        ProtocolOptions{8, false}, 90, 31);
  auto par_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                        ProtocolOptions{8, false}, 90, 31);
  EventEngine ref(ref_net, async_config());
  EventEngine par(par_net, async_config(4));
  HubPoison ref_tamper;
  HubPoison par_tamper;
  ref.attach_adversary(ref_tamper);
  par.attach_adversary(par_tamper);
  ref.run_until(9.0);
  par.run_until(9.0);
  expect_stats_equal(ref.stats(), par.stats());
  EXPECT_EQ(scenarios::state_digest(ref_net), scenarios::state_digest(par_net));
}

TEST(EventEngineLanes, WindowsActuallyBatch) {
  // Sanity on the schedule itself: with a real latency floor and enough
  // nodes, windows defer many W-parts and (at >1 lane) dispatch through
  // the pool; everything still digest-matches the reference.
  auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                    ProtocolOptions{8, false}, 300, 77);
  EventEngine par(net, async_config(4));
  par.run_until(6.0);
  EXPECT_GT(par.windows(), 0u);
  EXPECT_GT(par.deferred_tasks(), 0u);
  EXPECT_GT(par.pooled_tasks(), 0u);
  // Every window defers at most as many tasks as it processed events, and
  // the pool never outruns the deferred total.
  EXPECT_LE(par.pooled_tasks(), par.deferred_tasks());

  auto ref_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                        ProtocolOptions{8, false}, 300, 77);
  EventEngine ref(ref_net, async_config());
  ref.run_until(6.0);
  EXPECT_EQ(scenarios::state_digest(ref_net), scenarios::state_digest(net));

  // One lane: every event is its own window and every absorb runs at once
  // on the driving thread. Both schedules absorb the same messages; the
  // windowed one closes far fewer windows.
  EXPECT_EQ(ref.threads(), 1u);
  EXPECT_EQ(ref.pooled_tasks(), 0u);
  EXPECT_EQ(ref.deferred_tasks(), par.deferred_tasks());
  EXPECT_GE(ref.windows(), ref.stats().wakeups + ref.deferred_tasks());
  EXPECT_LT(par.windows(), ref.windows());
}

}  // namespace
}  // namespace pss::sim
