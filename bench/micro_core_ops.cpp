// Micro-benchmarks (google-benchmark) of the hot kernels: view merge and
// selection (object-graph and fused flat variants), a full pushpull
// exchange, scheduler schedule/pop (calendar queue vs. binary heap), one
// simulation cycle at several network sizes, graph snapshot construction
// and the metric estimators. These bound the cost of the experiment harness
// and catch performance regressions in the exchange path.
#include <benchmark/benchmark.h>

#include <queue>
#include <utility>

#include "pss/graph/metrics.hpp"
#include "pss/graph/undirected_graph.hpp"
#include "pss/membership/flat_ops.hpp"
#include "pss/membership/simd.hpp"
#include "pss/membership/view.hpp"
#include "pss/protocol/flat_exchange.hpp"
#include "pss/protocol/gossip_node.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/calendar_queue.hpp"
#include "pss/sim/cycle_engine.hpp"

namespace {

using namespace pss;

View make_view(std::size_t size, std::uint64_t seed, NodeId lo = 0) {
  Rng rng(seed);
  std::vector<NodeDescriptor> entries;
  entries.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    entries.push_back({static_cast<NodeId>(lo + rng.below(10 * size)),
                       static_cast<HopCount>(rng.below(20))});
  }
  return View(std::move(entries));
}

void BM_ViewMerge(benchmark::State& state) {
  const auto c = static_cast<std::size_t>(state.range(0));
  const View a = make_view(c, 1);
  const View b = make_view(c, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(View::merge(a, b));
  }
}
BENCHMARK(BM_ViewMerge)->Arg(30)->Arg(100);

void BM_ViewSelectHeadUnbiased(benchmark::State& state) {
  const View merged = make_view(61, 3);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(merged.select_head_unbiased(30, rng));
  }
}
BENCHMARK(BM_ViewSelectHeadUnbiased);

void BM_ViewSelectRand(benchmark::State& state) {
  const View merged = make_view(61, 5);
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(merged.select_rand(30, rng));
  }
}
BENCHMARK(BM_ViewSelectRand);

void BM_PushPullExchange(benchmark::State& state) {
  GossipNode a(0, ProtocolSpec::newscast(), ProtocolOptions{30, false}, Rng(1));
  GossipNode b(1, ProtocolSpec::newscast(), ProtocolOptions{30, false}, Rng(2));
  a.set_view(make_view(30, 7, 2));
  b.set_view(make_view(30, 8, 2));
  for (auto _ : state) {
    auto reply = b.handle_message(a.make_active_buffer());
    a.handle_reply(*reply);
  }
}
BENCHMARK(BM_PushPullExchange);

void BM_FlatMergeSelectHead(benchmark::State& state) {
  // The fused streaming kernel behind every (.,head,.) absorb — compare
  // with BM_ViewMerge + BM_ViewSelectHeadUnbiased, which together are the
  // object-graph algebra it replaces. Arg is the SIMD tier: 0 = scalar
  // oracle, 1 = the CPU's detected tier (same code the engines dispatch
  // to), so the pair reads as the vectorization speedup of the kernel.
  simd::set_level_for_testing(state.range(0) == 0 ? simd::Level::kScalar
                                                  : simd::detected_level());
  const View a = make_view(31, 11);
  const View b = make_view(30, 12);
  Rng rng(13);
  flat::Scratch scratch;
  std::vector<NodeDescriptor> out;
  for (auto _ : state) {
    flat::merge_select_head(a.entries(), b.entries(), 7, 30, rng, out, scratch,
                            /*age_a=*/1);
    benchmark::DoNotOptimize(out.data());
  }
  simd::set_level_for_testing(simd::detected_level());
}
BENCHMARK(BM_FlatMergeSelectHead)->Arg(0)->Arg(1);

// --- Scalar vs SIMD on the event-engine absorb kernels ----------------------
// The slab-based request/reply handlers EventEngine's absorbs (W-parts) run,
// on realistic converged inputs: Arg 0 pins the scalar reference, Arg 1
// dispatches the detected tier. FlatViewStore state is re-assigned each
// iteration so every absorb sees the same input (the kernel mutates the
// slot), which prices the kernel itself, not a drifting view.

void BM_FlatHandleRequest(benchmark::State& state) {
  simd::set_level_for_testing(state.range(0) == 0 ? simd::Level::kScalar
                                                  : simd::detected_level());
  auto net = sim::bootstrap::make_random(ProtocolSpec::newscast(),
                                         ProtocolOptions{30, false}, 1000, 42);
  sim::CycleEngine warm(net);
  warm.run(5);
  auto& arena = net.arena();
  // A converged active buffer: node 1's view plus itself.
  std::vector<NodeDescriptor> request(31);
  const std::uint32_t req_n = flat::write_active_buffer(
      net.view_span(1), 1, true, request.data());
  std::vector<NodeDescriptor> reply(31);
  std::vector<NodeDescriptor> snapshot(net.view_span(0).begin(),
                                       net.view_span(0).end());
  flat::Scratch scratch;
  for (auto _ : state) {
    arena.views.assign(0, snapshot);
    benchmark::DoNotOptimize(flat::handle_request(arena, 0, request.data(),
                                                  req_n, reply.data(),
                                                  net.spec(), net.options(),
                                                  scratch));
  }
  simd::set_level_for_testing(simd::detected_level());
}
BENCHMARK(BM_FlatHandleRequest)->Arg(0)->Arg(1);

void BM_FlatHandleReply(benchmark::State& state) {
  simd::set_level_for_testing(state.range(0) == 0 ? simd::Level::kScalar
                                                  : simd::detected_level());
  auto net = sim::bootstrap::make_random(ProtocolSpec::newscast(),
                                         ProtocolOptions{30, false}, 1000, 42);
  sim::CycleEngine warm(net);
  warm.run(5);
  auto& arena = net.arena();
  std::vector<NodeDescriptor> reply(31);
  const std::uint32_t reply_n = flat::write_active_buffer(
      net.view_span(1), 1, true, reply.data());
  std::vector<NodeDescriptor> snapshot(net.view_span(0).begin(),
                                       net.view_span(0).end());
  flat::Scratch scratch;
  for (auto _ : state) {
    arena.views.assign(0, snapshot);
    flat::handle_reply(arena, 0, reply.data(), reply_n, net.spec(),
                       net.options(), scratch);
    benchmark::DoNotOptimize(arena.views.view_of(0).data());
  }
  simd::set_level_for_testing(simd::detected_level());
}
BENCHMARK(BM_FlatHandleReply)->Arg(0)->Arg(1);

void BM_SimdAgeWriteBoth(benchmark::State& state) {
  // The fused wakeup kernel (age slot in place + stream aged copy): Arg 0
  // scalar, Arg 1 detected tier.
  simd::set_level_for_testing(state.range(0) == 0 ? simd::Level::kScalar
                                                  : simd::detected_level());
  std::vector<NodeDescriptor> view(30), out(30);
  Rng rng(21);
  for (auto& d : view) {
    d = {static_cast<NodeId>(rng.below(1000)),
         static_cast<HopCount>(rng.below(8))};
  }
  for (auto _ : state) {
    simd::age_write_both(view.data(), out.data(), view.size());
    benchmark::DoNotOptimize(out.data());
  }
  simd::set_level_for_testing(simd::detected_level());
}
BENCHMARK(BM_SimdAgeWriteBoth)->Arg(0)->Arg(1);

// --- Scheduler: calendar queue vs. binary heap -----------------------------
// The classic "hold" model at event-engine scale: a pending set of `n`
// events; each step pops the minimum and schedules a replacement — a mix of
// rearm-like (+1 period) and message-like (short latency) timestamps,
// exactly the event engine's steady-state access pattern.

struct HoldEvent {
  NodeId from = 0;
  NodeId to = 0;
  std::uint32_t slab = 0;
  std::uint32_t kind = 0;
  std::uint64_t exchange_id = 0;
};

void BM_CalendarQueueHold(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::CalendarQueue<HoldEvent> q(2.0);
  Rng rng(17);
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < n; ++i) {
    q.push(rng.uniform(), seq++, HoldEvent{});
  }
  for (auto _ : state) {
    const auto item = q.pop();
    const double at = rng.chance(0.33) ? item.at + 1.0
                                       : item.at + 0.01 + rng.uniform() * 0.09;
    q.push(at, seq++, item.value);
    benchmark::DoNotOptimize(seq);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CalendarQueueHold)->Arg(1 << 10)->Arg(1 << 17)->Arg(1 << 20);

void BM_BinaryHeapHold(benchmark::State& state) {
  using Entry = std::pair<double, std::uint64_t>;
  const auto n = static_cast<std::size_t>(state.range(0));
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> q;
  Rng rng(17);
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < n; ++i) q.emplace(rng.uniform(), seq++);
  for (auto _ : state) {
    const auto [at, id] = q.top();
    q.pop();
    const double next =
        rng.chance(0.33) ? at + 1.0 : at + 0.01 + rng.uniform() * 0.09;
    q.emplace(next, seq++);
    benchmark::DoNotOptimize(seq);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BinaryHeapHold)->Arg(1 << 10)->Arg(1 << 17)->Arg(1 << 20);

void BM_SimulationCycle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto net = sim::bootstrap::make_random(ProtocolSpec::newscast(),
                                         ProtocolOptions{30, false}, n, 42);
  sim::CycleEngine engine(net);
  for (auto _ : state) {
    engine.run_cycle();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimulationCycle)->Arg(1000)->Arg(10000);

void BM_GraphSnapshot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto net = sim::bootstrap::make_random(ProtocolSpec::newscast(),
                                         ProtocolOptions{30, false}, n, 42);
  sim::CycleEngine engine(net);
  engine.run(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::UndirectedGraph::from_network(net));
  }
}
BENCHMARK(BM_GraphSnapshot)->Arg(1000)->Arg(10000);

void BM_ClusteringSampled(benchmark::State& state) {
  auto net = sim::bootstrap::make_random(ProtocolSpec::newscast(),
                                         ProtocolOptions{30, false}, 10000, 42);
  sim::CycleEngine engine(net);
  engine.run(5);
  const auto g = graph::UndirectedGraph::from_network(net);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::clustering_coefficient_sampled(g, 1000, rng));
  }
}
BENCHMARK(BM_ClusteringSampled);

void BM_PathLengthSampled(benchmark::State& state) {
  auto net = sim::bootstrap::make_random(ProtocolSpec::newscast(),
                                         ProtocolOptions{30, false}, 10000, 42);
  sim::CycleEngine engine(net);
  engine.run(5);
  const auto g = graph::UndirectedGraph::from_network(net);
  Rng rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::average_path_length_sampled(g, 100, rng));
  }
}
BENCHMARK(BM_PathLengthSampled);

void BM_ConnectedComponents(benchmark::State& state) {
  auto net = sim::bootstrap::make_random(ProtocolSpec::newscast(),
                                         ProtocolOptions{30, false}, 10000, 42);
  sim::CycleEngine engine(net);
  engine.run(5);
  const auto g = graph::UndirectedGraph::from_network(net);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::connected_components(g));
  }
}
BENCHMARK(BM_ConnectedComponents);

}  // namespace

BENCHMARK_MAIN();
