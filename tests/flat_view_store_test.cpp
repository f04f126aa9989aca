// Tests for the flat simulation core: FlatViewStore storage invariants and
// the bit-for-bit equivalence between the flat:: kernels and the legacy
// View algebra they mirror.
//
// The equivalence tests are the contract that lets CycleEngine batch
// exchanges over raw arena slots while GossipNode keeps exposing Views:
// every flat op must produce the identical canonical array AND consume the
// node's Rng stream identically (same number of draws in the same order),
// or seeded experiments would silently fork between the two paths. Each
// randomized trial therefore checks outputs and then draws one more value
// from both generators to pin the stream position.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "pss/membership/flat_ops.hpp"
#include "pss/membership/flat_view_store.hpp"
#include "pss/membership/view.hpp"
#include "pss/protocol/flat_exchange.hpp"
#include "pss/scenarios/digest.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/cycle_engine.hpp"
#include "pss/sim/event_engine.hpp"
#include "pss/sim/network.hpp"

namespace pss {
namespace {

std::vector<NodeDescriptor> random_entries(Rng& rng, std::size_t max_size,
                                           NodeId address_space = 40,
                                           HopCount max_hop = 12) {
  std::vector<NodeDescriptor> entries;
  const auto size = static_cast<std::size_t>(rng.below(max_size + 1));
  for (std::size_t i = 0; i < size; ++i) {
    entries.push_back({static_cast<NodeId>(rng.below(address_space)),
                       static_cast<HopCount>(rng.below(max_hop))});
  }
  return entries;
}

View random_view(Rng& rng, std::size_t max_size, NodeId address_space = 40,
                 HopCount max_hop = 12) {
  return View(random_entries(rng, max_size, address_space, max_hop));
}

std::vector<NodeDescriptor> to_vec(flat::DescSpan s) {
  return {s.begin(), s.end()};
}

/// A normalized run of exactly `size` entries: distinct addresses, hop
/// counts below `max_hop`, sorted by (hop, address).
std::vector<NodeDescriptor> sorted_run(Rng& rng, std::size_t size,
                                       HopCount max_hop) {
  std::vector<NodeDescriptor> entries;
  for (std::size_t i = 0; i < size; ++i) {
    entries.push_back({static_cast<NodeId>(4 * i + rng.below(4)),
                       static_cast<HopCount>(rng.below(max_hop))});
  }
  std::sort(entries.begin(), entries.end(), ByHopThenAddress{});
  return entries;
}

// --- FlatViewStore storage ------------------------------------------------

TEST(FlatViewStore, SlotsStartEmptyAndCapacityIsEnforced) {
  FlatViewStore store(3);
  EXPECT_EQ(store.view_capacity(), 3u);
  const NodeId a = store.add_node();
  const NodeId b = store.add_node();
  EXPECT_EQ(store.node_count(), 2u);
  EXPECT_TRUE(store.view_of(a).empty());
  EXPECT_TRUE(store.view_of(b).empty());

  const std::vector<NodeDescriptor> three = {{1, 0}, {2, 0}, {3, 1}};
  store.assign(a, three);
  EXPECT_EQ(store.view_size(a), 3u);
  EXPECT_EQ(to_vec(store.view_of(a)), three);
  // Slot b is untouched by a's assignment (no cross-slot bleed).
  EXPECT_TRUE(store.view_of(b).empty());

  const std::vector<NodeDescriptor> four = {{1, 0}, {2, 0}, {3, 1}, {4, 1}};
  EXPECT_THROW(store.assign(a, four), std::logic_error);
  EXPECT_THROW(store.assign(99, three), std::logic_error);

  store.clear(a);
  EXPECT_TRUE(store.view_of(a).empty());
}

TEST(FlatViewStore, ZeroCapacityRejected) {
  EXPECT_THROW(FlatViewStore store(0), std::logic_error);
}

TEST(FlatViewStore, AgeIncrementsEveryEntry) {
  FlatViewStore store(4);
  const NodeId s = store.add_node();
  store.assign(s, std::vector<NodeDescriptor>{{5, 0}, {1, 2}, {9, 7}});
  store.age(s);
  EXPECT_EQ(to_vec(store.view_of(s)),
            (std::vector<NodeDescriptor>{{5, 1}, {1, 3}, {9, 8}}));
  store.age(s);
  EXPECT_EQ(to_vec(store.view_of(s)),
            (std::vector<NodeDescriptor>{{5, 2}, {1, 4}, {9, 9}}));
}

TEST(FlatViewStore, EraseAddressShiftsAndReports) {
  FlatViewStore store(4);
  const NodeId s = store.add_node();
  store.assign(s, std::vector<NodeDescriptor>{{5, 0}, {1, 2}, {9, 7}});
  EXPECT_FALSE(store.erase_address(s, 42));
  EXPECT_TRUE(store.erase_address(s, 1));
  EXPECT_EQ(to_vec(store.view_of(s)),
            (std::vector<NodeDescriptor>{{5, 0}, {9, 7}}));
  EXPECT_FALSE(store.erase_address(s, 1));
}

TEST(FlatViewStore, VersionStampsEveryMutation) {
  FlatViewStore store(4);
  const NodeId a = store.add_node();
  const NodeId b = store.add_node();
  const auto v0 = store.version(a);
  store.assign(a, std::vector<NodeDescriptor>{{1, 0}});
  const auto v1 = store.version(a);
  EXPECT_GT(v1, v0);
  store.age(a);
  EXPECT_GT(store.version(a), v1);
  // Mutating a does not stamp b.
  const auto vb = store.version(b);
  store.clear(a);
  EXPECT_EQ(store.version(b), vb);
}

TEST(FlatViewStore, AgeAndCopyMatchesAgeAtEveryLength) {
  // Lengths straddle every vector width the compiler may choose for the
  // aging loops (including the empty and remainder-only cases), plus the
  // c = 30 and c + 1 = 31 sizes of the evaluated runs.
  Rng rng(43);
  const NodeDescriptor marker{0xABCDu, 0xABCDu};
  for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 30u, 31u, 100u}) {
    const auto entries = sorted_run(rng, n, 12);
    const auto neighbour = sorted_run(rng, 5, 12);
    std::vector<NodeDescriptor> expected = entries;
    for (NodeDescriptor& d : expected) ++d.hop_count;

    // Two identical stores of three slots; the middle slot is aged, the
    // outer ones must not move.
    FlatViewStore fused(100), split(100);
    for (FlatViewStore* store : {&fused, &split}) {
      for (int k = 0; k < 3; ++k) (void)store->add_node();
      store->assign(0, neighbour);
      store->assign(1, entries);
      store->assign(2, neighbour);
    }
    std::vector<NodeDescriptor> out(n + 1, marker);
    EXPECT_EQ(fused.age_and_copy(1, out.data()), n) << "n=" << n;
    split.age(1);
    EXPECT_EQ(to_vec(fused.view_of(1)), expected) << "n=" << n;
    EXPECT_EQ(to_vec(split.view_of(1)), expected) << "n=" << n;
    EXPECT_EQ(std::vector<NodeDescriptor>(out.begin(), out.begin() + n),
              expected)
        << "n=" << n;
    EXPECT_EQ(out[n], marker) << "wrote past the slot length, n=" << n;
    for (const FlatViewStore* store : {&fused, &split}) {
      EXPECT_EQ(to_vec(store->view_of(0)), neighbour) << "n=" << n;
      EXPECT_EQ(to_vec(store->view_of(2)), neighbour) << "n=" << n;
    }
  }
}

TEST(FlatViewStore, AgeWriteActiveBufferEqualsAgeThenWrite) {
  // The event engine's fused wakeup against the two-pass composition it
  // replaces, on two identical stores.
  Rng rng(71);
  for (int trial = 0; trial < 200; ++trial) {
    const auto entries =
        sorted_run(rng, static_cast<std::size_t>(rng.below(32)), 6);
    const NodeId self = 200;  // outside every run's address range
    const bool push = rng.below(4) != 0;
    FlatViewStore fused(31), split(31);
    const NodeId slot = fused.add_node();
    (void)split.add_node();
    fused.assign(slot, entries);
    split.assign(slot, entries);
    std::vector<NodeDescriptor> fused_buf(entries.size() + 1);
    std::vector<NodeDescriptor> split_buf(entries.size() + 1);
    const auto fused_n = flat::age_write_active_buffer(fused, slot, self, push,
                                                       fused_buf.data());
    split.age(slot);
    const auto split_n = flat::write_active_buffer(split.view_of(slot), self,
                                                   push, split_buf.data());
    ASSERT_EQ(fused_n, split_n) << "trial " << trial;
    EXPECT_EQ(fused_buf, split_buf) << "trial " << trial;
    EXPECT_EQ(to_vec(fused.view_of(slot)), to_vec(split.view_of(slot)))
        << "trial " << trial;
  }
}

// --- flat ops vs the View algebra ----------------------------------------

TEST(FlatOps, MergeMatchesViewMergeIncludingDuplicates) {
  // merge_into ages its `a` side on the fly; the View algebra it folds
  // away is merge(increase_hop_count^age(a), b).
  Rng rng(11);
  flat::Scratch scratch;
  std::vector<NodeDescriptor> out;
  for (int trial = 0; trial < 500; ++trial) {
    const View a = random_view(rng, 40);
    const View b = random_view(rng, 40);
    const auto age = static_cast<HopCount>(rng.below(3));
    View aged = a;
    for (HopCount k = 0; k < age; ++k) aged.increase_hop_count();
    flat::merge_into(a.entries(), b.entries(), out, scratch, age);
    EXPECT_EQ(out, View::merge(aged, b).entries()) << "trial " << trial;
  }
}

TEST(FlatOps, AgedMergeMatchesEntrywiseAgingAtEveryLength) {
  // The on-the-fly aging of merge_into's `a` side, at ragged lengths from
  // empty to past AddressSet::kMaxEntries (the sort fallback), against two
  // references: an entry-wise +age copy of `a` merged with nothing, and
  // View::merge(aged a, b) with a disjoint `b` so every entry survives.
  Rng rng(41);
  flat::Scratch scratch;
  std::vector<NodeDescriptor> out;
  for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 31u, 100u}) {
    for (HopCount age : {HopCount{0}, HopCount{1}, HopCount{7}}) {
      const auto src = sorted_run(rng, n, 12);
      std::vector<NodeDescriptor> ref = src;
      for (auto& d : ref) d.hop_count = static_cast<HopCount>(d.hop_count + age);
      flat::merge_into(src, {}, out, scratch, age);
      EXPECT_EQ(out, ref) << "n " << n << " age " << age;

      View aged(src);
      for (HopCount k = 0; k < age; ++k) aged.increase_hop_count();
      std::vector<NodeDescriptor> other;
      for (std::size_t i = 0; i < n % 7; ++i) {
        other.push_back({static_cast<NodeId>(1000 + i),
                         static_cast<HopCount>(rng.below(12))});
      }
      const View b(other);
      flat::merge_into(src, b.entries(), out, scratch, age);
      EXPECT_EQ(out, View::merge(aged, b).entries())
          << "n " << n << " age " << age;
      EXPECT_EQ(out.size(), n + b.size()) << "n " << n << " age " << age;
    }
  }
}

TEST(FlatOps, MergeIntoMatchesNormalizeOfAgedUnion) {
  // Dense address space (30 addresses, up to 40 draws per side) so most
  // addresses appear on both sides at different hops. Reference: the
  // general-input normalize() of the concatenation of aged `a` and `b`,
  // which shares no code with the two-pointer merge. `out` starts filled
  // with stale entries and `scratch` is reused across trials, so a merge
  // that leaves old content behind fails too.
  Rng rng(59);
  flat::Scratch scratch;
  std::vector<NodeDescriptor> out;
  for (int trial = 0; trial < 200; ++trial) {
    auto a = random_entries(rng, 40, 30, 8);
    auto b = random_entries(rng, 40, 30, 8);
    flat::normalize(a);
    flat::normalize(b);
    const auto age = static_cast<HopCount>(rng.below(3));
    std::vector<NodeDescriptor> ref = a;
    for (auto& d : ref) d.hop_count = static_cast<HopCount>(d.hop_count + age);
    ref.insert(ref.end(), b.begin(), b.end());
    flat::normalize(ref);
    out.assign(static_cast<std::size_t>(rng.below(50)), NodeDescriptor{99, 99});
    flat::merge_into(a, b, out, scratch, age);
    EXPECT_EQ(out, ref) << "trial " << trial;
  }
}

TEST(FlatOps, MergeOversizedInputsFallBackToSortPath) {
  Rng rng(12);
  flat::Scratch scratch;
  std::vector<NodeDescriptor> out;
  // Address space 400 with up to 120 entries per side: the combined size
  // exceeds AddressSet::kMaxEntries and must route through normalize().
  for (int trial = 0; trial < 50; ++trial) {
    const View a = random_view(rng, 120, 400);
    const View b = random_view(rng, 120, 400);
    flat::merge_into(a.entries(), b.entries(), out, scratch);
    EXPECT_EQ(out, View::merge(a, b).entries()) << "trial " << trial;
  }
}

TEST(FlatOps, MergeSelectHeadMatchesViewAlgebraIncludingRngStream) {
  // The fused streaming kernel against the unfused View pipeline
  //   merge(aged a, b); erase(self); select_head_unbiased(c)
  // over the c sweep {1, 2, 30, 31, 100}, with `self` sometimes present in
  // the inputs. A post-call draw pins the Rng stream position.
  Rng rng(61);
  flat::Scratch scratch;
  std::vector<NodeDescriptor> out;
  for (std::size_t c : {1u, 2u, 30u, 31u, 100u}) {
    for (int trial = 0; trial < 150; ++trial) {
      const View a = random_view(rng, 32, 30, 6);
      const View b = random_view(rng, 32, 30, 6);
      const auto age = static_cast<HopCount>(rng.below(3));
      const auto self = static_cast<NodeId>(rng.below(35));
      const std::uint64_t seed = rng();

      View merged = a;
      for (HopCount k = 0; k < age; ++k) merged.increase_hop_count();
      merged = View::merge(merged, b);
      merged.erase(self);
      Rng r1(seed);
      const View expected = merged.select_head_unbiased(c, r1);

      Rng r2(seed);
      const std::size_t n = flat::merge_select_head_arr(
          a.entries(), b.entries(), self, c, r2, scratch, age);
      EXPECT_EQ(std::vector<NodeDescriptor>(scratch.merge_arr.begin(),
                                            scratch.merge_arr.begin() +
                                                static_cast<std::ptrdiff_t>(n)),
                expected.entries())
          << "c=" << c << " trial=" << trial;
      EXPECT_EQ(r1(), r2()) << "Rng diverged, c=" << c << " trial=" << trial;

      Rng r3(seed);
      flat::merge_select_head(a.entries(), b.entries(), self, c, r3, out,
                              scratch, age);
      EXPECT_EQ(out, expected.entries()) << "c=" << c << " trial=" << trial;
    }
  }
}

TEST(FlatOps, WriteActiveBufferMatchesMakeActiveBuffer) {
  // The slab writer against the vector-based make_active_buffer (which
  // places self with insert_self's binary search) and against the View
  // algebra merge(view, {{self, 0}}) both mirror.
  Rng rng(67);
  std::vector<NodeDescriptor> reference;
  for (int trial = 0; trial < 300; ++trial) {
    View view = random_view(rng, 32, 40, 6);
    const auto self = static_cast<NodeId>(rng.below(45));
    view.erase(self);  // precondition: a node never stores itself
    const flat::DescSpan span = view.entries();
    std::vector<NodeDescriptor> out(view.size() + 1);
    EXPECT_EQ(flat::write_active_buffer(span, self, true, out.data()),
              view.size() + 1);
    flat::make_active_buffer(span, self, true, reference);
    EXPECT_EQ(out, reference) << "trial " << trial;
    EXPECT_EQ(out, View::merge(view, View({{self, 0}})).entries())
        << "trial " << trial;
    EXPECT_EQ(flat::write_active_buffer(span, self, false, out.data()), 0u);
  }
}

TEST(FlatOps, WriteActiveBufferReachesEveryInsertionPoint) {
  // {self, 0} sorts among the hop-0 entries only, so the probes use views
  // whose hop-0 class spans all of the view or half of it (an older tail
  // behind it). The hop-0 addresses are 2, 4, 6, ...; each odd self lands
  // in a distinct gap, covering split == 0, every interior position and
  // split == the class size.
  std::vector<NodeDescriptor> reference;
  for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 8u, 13u, 31u}) {
    for (const bool older_tail : {false, true}) {
      const std::size_t fresh = older_tail ? n / 2 : n;
      std::vector<NodeDescriptor> entries;
      for (std::size_t k = 0; k < n; ++k) {
        const auto hop = static_cast<HopCount>(k < fresh ? 0 : 1 + k % 3);
        entries.push_back({static_cast<NodeId>(2 * (k + 1)), hop});
      }
      const View view(entries);
      const flat::DescSpan span = view.entries();
      std::set<std::size_t> splits;
      for (NodeId self = 1; self <= 2 * fresh + 1; self += 2) {
        std::vector<NodeDescriptor> out(n + 1);
        ASSERT_EQ(flat::write_active_buffer(span, self, true, out.data()),
                  n + 1);
        const std::size_t split = (self - 1) / 2;
        EXPECT_EQ(out[split], (NodeDescriptor{self, 0}))
            << "n=" << n << " self=" << self;
        flat::make_active_buffer(span, self, true, reference);
        EXPECT_EQ(out, reference) << "n=" << n << " self=" << self;
        splits.insert(split);
      }
      EXPECT_EQ(splits.size(), fresh + 1) << "n=" << n;
    }
  }
}

TEST(FlatOps, SelectionsMatchViewWithClonedRngs) {
  Rng rng(13);
  flat::Scratch scratch;
  for (int trial = 0; trial < 500; ++trial) {
    const View v = random_view(rng, 25);
    const auto c = static_cast<std::size_t>(rng.below(28));
    const std::uint64_t seed = rng();

    // Each policy gets two generators seeded identically: one consumed by
    // the View implementation, one by the flat mirror. Outputs must match
    // and both generators must land on the same stream position.
    {
      Rng r1(seed), r2(seed);
      std::vector<NodeDescriptor> buf = v.entries();
      flat::select_head_unbiased(buf, c, r2, scratch);
      EXPECT_EQ(buf, v.select_head_unbiased(c, r1).entries())
          << "head trial " << trial;
      EXPECT_EQ(r1(), r2()) << "head rng divergence, trial " << trial;
    }
    {
      Rng r1(seed), r2(seed);
      std::vector<NodeDescriptor> buf = v.entries();
      flat::select_tail_unbiased(buf, c, r2, scratch);
      EXPECT_EQ(buf, v.select_tail_unbiased(c, r1).entries())
          << "tail trial " << trial;
      EXPECT_EQ(r1(), r2()) << "tail rng divergence, trial " << trial;
    }
    {
      Rng r1(seed), r2(seed);
      std::vector<NodeDescriptor> buf = v.entries();
      flat::select_rand(buf, c, r2, scratch);
      EXPECT_EQ(buf, v.select_rand(c, r1).entries())
          << "rand trial " << trial;
      EXPECT_EQ(r1(), r2()) << "rand rng divergence, trial " << trial;
    }
    {
      std::vector<NodeDescriptor> buf = v.entries();
      flat::select_head(buf, c);
      EXPECT_EQ(buf, v.select_head(c).entries()) << "det head trial " << trial;
    }
  }
}

TEST(FlatOps, PeerSelectionMatchesViewWithClonedRngs) {
  Rng rng(14);
  for (int trial = 0; trial < 500; ++trial) {
    const View v = random_view(rng, 25);
    if (v.empty()) continue;
    const std::uint64_t seed = rng();
    {
      Rng r1(seed), r2(seed);
      EXPECT_EQ(flat::peer_rand(v.entries(), r2), v.peer_rand(r1));
      EXPECT_EQ(r1(), r2());
    }
    {
      Rng r1(seed), r2(seed);
      EXPECT_EQ(flat::peer_tail_unbiased(v.entries(), r2),
                v.peer_tail_unbiased(r1));
      EXPECT_EQ(r1(), r2());
    }
    EXPECT_EQ(flat::peer_head(v.entries()), v.peer_head());
  }
}

TEST(FlatOps, RandomizedTraceKeepsSlotAndViewInLockstep) {
  // Drive one flat slot and one View through the same random op sequence:
  // merge-in, age, erase — the full mutation surface a node's view sees.
  Rng rng(15);
  flat::Scratch scratch;
  std::vector<NodeDescriptor> buf;
  for (int run = 0; run < 30; ++run) {
    FlatViewStore store(64);
    const NodeId slot = store.add_node();
    View reference;
    for (int step = 0; step < 60; ++step) {
      switch (rng.below(3)) {
        case 0: {
          const View incoming = random_view(rng, 12);
          flat::merge_into(incoming.entries(), store.view_of(slot), buf,
                           scratch);
          store.assign(slot, buf);
          reference = View::merge(incoming, reference);
          break;
        }
        case 1:
          store.age(slot);
          reference.increase_hop_count();
          break;
        default: {
          const auto victim = static_cast<NodeId>(rng.below(40));
          EXPECT_EQ(store.erase_address(slot, victim),
                    reference.erase(victim));
          break;
        }
      }
      ASSERT_EQ(to_vec(store.view_of(slot)), reference.entries())
          << "run " << run << " step " << step;
    }
  }
}

// --- Engine vs adapter: identical protocol semantics ----------------------

// Replays the legacy CycleEngine loop one message at a time through the
// public GossipNode adapter API and checks that the batched flat engine
// produces the identical network state at every cycle. This is the
// acceptance check that the flat refactor preserved the paper's semantics
// through the adapter, including Rng stream consumption, stats accounting
// and the dead-contact path.
void expect_networks_identical(sim::Network& a, sim::Network& b,
                               const char* where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (NodeId id = 0; id < a.size(); ++id) {
    ASSERT_EQ(to_vec(a.view_span(id)), to_vec(b.view_span(id)))
        << where << ", node " << id;
    // The adapter's materialized View must agree with the raw slot.
    ASSERT_EQ(a.node(id).view().entries(), to_vec(a.view_span(id)))
        << where << ", node " << id;
    ASSERT_EQ(a.node(id).stats().initiated, b.node(id).stats().initiated)
        << where << ", node " << id;
    ASSERT_EQ(a.node(id).stats().received, b.node(id).stats().received)
        << where << ", node " << id;
    ASSERT_EQ(a.node(id).stats().replies_sent, b.node(id).stats().replies_sent)
        << where << ", node " << id;
    ASSERT_EQ(a.node(id).stats().contact_failures,
              b.node(id).stats().contact_failures)
        << where << ", node " << id;
  }
}

void run_legacy_style_cycle(sim::Network& net) {
  auto order = net.live_nodes();
  net.rng().shuffle(order);
  for (NodeId initiator : order) {
    if (!net.is_live(initiator)) continue;
    GossipNode& active = net.node(initiator);
    active.age_view();
    auto peer = active.select_peer();
    if (!peer) continue;
    active.note_initiated();
    if (!net.is_live(*peer) || !net.can_communicate(initiator, *peer)) {
      active.on_contact_failure(*peer);
      continue;
    }
    GossipNode& passive = net.node(*peer);
    const View buffer = active.make_active_buffer();
    auto reply = passive.handle_message(buffer);
    if (active.spec().pull()) active.handle_reply(*reply);
  }
}

void check_engine_adapter_equivalence(ProtocolSpec spec) {
  constexpr std::size_t kNodes = 60;
  constexpr std::uint64_t kSeed = 97;
  const ProtocolOptions options{8, false};
  sim::Network engine_net =
      sim::bootstrap::make_random(spec, options, kNodes, kSeed);
  sim::Network manual_net =
      sim::bootstrap::make_random(spec, options, kNodes, kSeed);
  sim::CycleEngine engine(engine_net);
  for (Cycle cycle = 0; cycle < 8; ++cycle) {
    if (cycle == 3) {
      // Kill the same nodes in both networks so dead-contact handling and
      // the failure stats path are exercised identically.
      for (NodeId id = 0; id < kNodes / 5; ++id) {
        engine_net.kill(id);
        manual_net.kill(id);
      }
    }
    engine.run_cycle();
    run_legacy_style_cycle(manual_net);
    expect_networks_identical(engine_net, manual_net, spec.name().c_str());
  }
}

TEST(FlatEngineEquivalence, NewscastMatchesAdapterDrivenExchanges) {
  check_engine_adapter_equivalence(ProtocolSpec::newscast());
}

TEST(FlatEngineEquivalence, AllEvaluatedInstancesMatchAdapterDriven) {
  for (const ProtocolSpec& spec : ProtocolSpec::evaluated()) {
    check_engine_adapter_equivalence(spec);
  }
}

// Golden end-to-end state digests of short EventEngine runs. They were
// captured while the kernels still had x86 SSE2/AVX2 variants, on which
// every variant produced these same values, so any change to a kernel's
// output or Rng use in the wakeup/request/reply pipeline shows up here.

TEST(FlatEngineEquivalence, EvaluatedProtocolsMatchGoldenDigests) {
  const std::vector<std::pair<std::string, std::uint64_t>> golden = {
      {"(rand,head,push)", 0x9908614c0d33be67ULL},
      {"(tail,head,push)", 0x389996a44d850ad9ULL},
      {"(rand,head,pushpull)", 0x8f09b9dcd754ce4cULL},
      {"(tail,head,pushpull)", 0xd4388e6e720486c8ULL},
      {"(rand,rand,push)", 0x2a8e35843629f52fULL},
      {"(tail,rand,push)", 0x35c6d46ed7da1b59ULL},
      {"(rand,rand,pushpull)", 0x6a4e5fe2c357bb5bULL},
      {"(tail,rand,pushpull)", 0xadb0650b5c116f01ULL},
  };
  const auto specs = ProtocolSpec::evaluated();
  ASSERT_EQ(specs.size(), golden.size());
  sim::EventEngineConfig cfg;
  cfg.drop_probability = 0.1;  // exercises the aging-after-drop path too
  for (std::size_t k = 0; k < specs.size(); ++k) {
    ASSERT_EQ(specs[k].name(), golden[k].first);
    auto net = sim::bootstrap::make_random(specs[k], ProtocolOptions{8, false},
                                           100, 17);
    sim::EventEngine engine(net, cfg);
    engine.run_until(8.5);
    EXPECT_EQ(scenarios::state_digest(net), golden[k].second)
        << golden[k].first;
  }
}

TEST(FlatEngineEquivalence, NewscastViewSizeSweepMatchesGoldenDigests) {
  // c = 100 pushes request merges past AddressSet::kMaxEntries, so the
  // sort-based fallback is pinned along with the streaming kernels.
  const std::vector<std::pair<std::size_t, std::uint64_t>> golden = {
      {1, 0x675ed3965cdb1d5cULL},  {2, 0x04a34327fffa8bb9ULL},
      {30, 0x5edc92b601c400ccULL}, {31, 0x6c0db2254cf13852ULL},
      {100, 0x018cbbcd4f35f8e5ULL},
  };
  for (const auto& [c, digest] : golden) {
    auto net = sim::bootstrap::make_random(ProtocolSpec::newscast(),
                                           ProtocolOptions{c, false}, 80, 23);
    sim::EventEngine engine(net, sim::EventEngineConfig{});
    engine.run_until(6.5);
    EXPECT_EQ(scenarios::state_digest(net), digest) << "c=" << c;
  }
}

// --- GossipNode adapter specifics ----------------------------------------

TEST(GossipNodeAdapter, SetViewRejectsOversizedViews) {
  GossipNode node(0, ProtocolSpec::newscast(), ProtocolOptions{3, false},
                  Rng(1));
  node.set_view(View{{1, 0}, {2, 0}, {3, 0}});
  EXPECT_EQ(node.view().size(), 3u);
  EXPECT_THROW(node.set_view(View{{1, 0}, {2, 0}, {3, 0}, {4, 0}}),
               std::logic_error);
}

TEST(GossipNodeAdapter, CopyOfStandaloneNodeIsIndependent) {
  GossipNode a(0, ProtocolSpec::newscast(), ProtocolOptions{4, false}, Rng(7));
  a.set_view(View{{1, 1}, {2, 2}});
  GossipNode b(a);
  b.set_view(View{{9, 0}});
  EXPECT_EQ(a.view(), (View{{1, 1}, {2, 2}}));
  EXPECT_EQ(b.view(), (View{{9, 0}}));
}

TEST(GossipNodeAdapter, CopyOfAttachedNodeDetachesFromTheNetwork) {
  sim::Network net = sim::bootstrap::make_random(
      ProtocolSpec::newscast(), ProtocolOptions{5, false}, 20, 21);
  GossipNode snapshot = net.node(3);
  const View before = snapshot.view();
  EXPECT_EQ(before.entries(), to_vec(net.view_span(3)));
  sim::CycleEngine engine(net);
  engine.run(3);
  // The copy kept its pre-run state; mutating it touches nothing in the
  // network.
  EXPECT_EQ(snapshot.view(), before);
  snapshot.set_view(View{{19, 0}});
  EXPECT_NE(to_vec(net.view_span(3)), snapshot.view().entries());
}

TEST(GossipNodeAdapter, ViewCacheTracksEngineMutations) {
  // The engine mutates arena slots without going through the adapter; the
  // adapter's cached View must still follow via the version stamps.
  sim::Network net = sim::bootstrap::make_random(
      ProtocolSpec::newscast(), ProtocolOptions{5, false}, 20, 3);
  const View before = net.node(4).view();
  EXPECT_EQ(before.entries(), to_vec(net.view_span(4)));
  sim::CycleEngine engine(net);
  engine.run(2);
  EXPECT_EQ(net.node(4).view().entries(), to_vec(net.view_span(4)));
}

}  // namespace
}  // namespace pss
