// Scale driver for the flat asynchronous engine: events/second, memory and
// steady-state allocation behavior at N ∈ {10^4, 10^5, 10^6}, swept over a
// lane ladder, plus the recorded speedup over the frozen LegacyEventEngine
// baseline.
//
// This is the async counterpart of scale_million_nodes: the same Newscast
// instance and random bootstrap, but driven through the discrete-event
// message layer (per-message latency, drop probability, reply timeouts)
// instead of atomic cycles. Each cell runs the identical scenario from a
// fresh bootstrap: EventEngine at each lane count of the ladder
// (EventEngineConfig::threads; 1 runs every absorb at once, more defer
// absorbs into lookahead windows over a thread pool). Each run warms the
// engine for a few periods — letting the calendar queue, message pool and
// scratch buffers reach their high-water marks — then measures a timed
// window, counting every global operator new/delete in between: the
// recorded `steady_allocations` is the engine's whole-process allocation
// count during the measured window, and every counter in a row (`events`,
// the window counters and the EventEngineStats fields) covers the same
// window.
//
// Two gates, both over every EventEngine cell (the legacy row is outside
// them); either failing makes the driver exit non-zero:
//   - digest: every cell must end in the bit-identical network state — the
//     FNV state digest (views, liveness, per-node stats, Rng probes) of
//     each run is compared against the 1-lane cell, so any divergence
//     across lane counts fails. This is the lane-count contract enforced
//     at the scale the test suite cannot reach.
//   - zero_steady_allocations: no cell may allocate in its measured window.
//
// The legacy baseline (heap-of-Views object-graph engine) runs the same
// scenario where it is feasible (it is the 10^4-capped engine this driver
// exists to retire); `PSS_ASYNC_LEGACY=auto` runs it up to 10^5 nodes.
// Results overwrite BENCH_async.json.
//
// Knobs (see docs/PERFORMANCE.md):
//   PSS_ASYNC_NS      comma-separated network sizes (default 10000,100000,1000000)
//   PSS_ASYNC_THREADS comma-separated lane counts (default 1,2,4; 1 is
//                     always run, as the digest reference)
//   PSS_PERIODS       measured periods per run            (default 20)
//   PSS_WARMUP        warm-up periods before measuring    (default 5)
//   PSS_C             view size c                         (default 30)
//   PSS_SEED          master seed                         (default 42)
//   PSS_DROP          message drop probability            (default 0)
//   PSS_ASYNC_LEGACY  "auto" (n <= 1e5), "1" (always), "0" (never)
//   PSS_ASYNC_JSON    output path                         (default BENCH_async.json)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_meta.hpp"
#include "pss/common/env.hpp"
#include "pss/obs/run_recorder.hpp"
#include "pss/scenarios/digest.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/event_engine.hpp"
#include "pss/sim/legacy_event_engine.hpp"
#include "pss/sim/network.hpp"

// --- Whole-process allocation counter --------------------------------------
// Overriding the global allocation functions in the bench binary counts
// every heap allocation made while the engine runs — the strongest form of
// the "zero steady-state allocation" claim, since nothing can hide behind a
// custom pool or a standard-library container.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<std::size_t> parse_sizes(const std::string& text,
                                     const char* knob) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string token =
        text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!token.empty()) {
      std::size_t consumed = 0;
      unsigned long long value = 0;
      try {
        value = std::stoull(token, &consumed);
      } catch (const std::exception&) {
        consumed = 0;
      }
      if (consumed != token.size() || value == 0) {
        std::fprintf(stderr,
                     "%s: bad entry '%s' (want a comma-separated list of "
                     "positive integers)\n",
                     knob, token.c_str());
        std::exit(1);
      }
      out.push_back(static_cast<std::size_t>(value));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// Events the engine processed: wake-ups plus every delivered message
/// (dropped ones never enter the queue); comparable across all engines.
std::uint64_t events_processed(const pss::sim::EventEngineStats& s) {
  return s.wakeups + (s.messages_sent - s.messages_dropped);
}

/// Field-wise `after - before`: the counts of one measured window.
pss::sim::EventEngineStats stats_delta(const pss::sim::EventEngineStats& after,
                                       const pss::sim::EventEngineStats& before) {
  pss::sim::EventEngineStats d;
  d.wakeups = after.wakeups - before.wakeups;
  d.messages_sent = after.messages_sent - before.messages_sent;
  d.messages_dropped = after.messages_dropped - before.messages_dropped;
  d.messages_to_dead = after.messages_to_dead - before.messages_to_dead;
  d.replies_delivered = after.replies_delivered - before.replies_delivered;
  d.replies_stale = after.replies_stale - before.replies_stale;
  return d;
}

/// One cell: EventEngine at one lane count, or the legacy baseline.
struct RunResult {
  std::size_t n = 0;
  std::string engine;    ///< "event" or "legacy"
  unsigned threads = 0;  ///< EventEngine lanes (0 for legacy)
  double setup_seconds = 0;
  double run_seconds = 0;
  double events_per_second = 0;
  std::uint64_t events = 0;
  std::uint64_t steady_allocations = 0;
  double bytes_per_node = 0;
  double mean_view_size = 0;
  std::uint64_t digest = 0;  ///< post-run state digest (0 for legacy)
  bool gated = false;        ///< participates in the gates
  std::uint64_t windows = 0;  ///< EventEngine only; measured window only
  std::uint64_t deferred_tasks = 0;
  std::uint64_t pooled_tasks = 0;
  pss::sim::EventEngineStats stats;  ///< measured window only
};

/// Builds the standard scenario and runs warmup + measured periods through
/// `Engine`, filling the timing/allocation/digest fields of `r` (and the
/// window counters, for engines that have them). Every counter covers the
/// measured window only: the warm-up's share is subtracted.
template <typename Engine>
void run_cell(RunResult& r, const pss::ProtocolSpec& spec, std::size_t c,
              std::uint64_t seed, pss::sim::EventEngineConfig cfg,
              std::size_t warmup, std::size_t periods) {
  using namespace pss;
  const auto t_setup = Clock::now();
  sim::Network net(spec, ProtocolOptions{c, false}, seed);
  net.reserve_nodes(r.n);
  net.add_nodes(r.n);
  sim::bootstrap::init_random(net);
  Engine engine(net, cfg);
  engine.run_cycles(warmup);  // queue/pool/scratch reach high-water marks
  r.setup_seconds = seconds_since(t_setup);

  const auto warm_stats = engine.stats();
  std::uint64_t warm_windows = 0, warm_deferred = 0, warm_pooled = 0;
  if constexpr (requires { engine.windows(); }) {
    warm_windows = engine.windows();
    warm_deferred = engine.deferred_tasks();
    warm_pooled = engine.pooled_tasks();
  }
  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  const auto t_run = Clock::now();
  engine.run_cycles(periods);
  r.run_seconds = seconds_since(t_run);
  r.steady_allocations =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;

  r.stats = stats_delta(engine.stats(), warm_stats);
  r.events = events_processed(r.stats);
  r.events_per_second = static_cast<double>(r.events) / r.run_seconds;
  std::size_t engine_bytes = 0;
  if constexpr (requires { engine.resident_bytes(); }) {
    engine_bytes = engine.resident_bytes();
  }
  if constexpr (requires { engine.windows(); }) {
    r.windows = engine.windows() - warm_windows;
    r.deferred_tasks = engine.deferred_tasks() - warm_deferred;
    r.pooled_tasks = engine.pooled_tasks() - warm_pooled;
  }
  r.bytes_per_node =
      static_cast<double>(net.resident_bytes() + engine_bytes) /
      static_cast<double>(r.n);
  std::uint64_t total_view = 0;
  for (NodeId id = 0; id < r.n; ++id) total_view += net.view_span(id).size();
  r.mean_view_size =
      static_cast<double>(total_view) / static_cast<double>(r.n);
  r.digest = scenarios::state_digest(net);
}

}  // namespace

int main() {
  using namespace pss;

  const auto sizes =
      parse_sizes(env::get("PSS_ASYNC_NS").value_or("10000,100000,1000000"),
                  "PSS_ASYNC_NS");
  auto ladder = parse_sizes(env::get("PSS_ASYNC_THREADS").value_or("1,2,4"),
                            "PSS_ASYNC_THREADS");
  // The 1-lane cell is the digest reference, so it always runs, first.
  std::erase(ladder, std::size_t{1});
  ladder.insert(ladder.begin(), 1);
  const auto periods = static_cast<std::size_t>(env::get_int("PSS_PERIODS", 20));
  const auto warmup = static_cast<std::size_t>(env::get_int("PSS_WARMUP", 5));
  const auto c = static_cast<std::size_t>(env::get_int("PSS_C", 30));
  const auto seed = static_cast<std::uint64_t>(env::get_int("PSS_SEED", 42));
  const double drop = env::get_double("PSS_DROP", 0.0);
  const std::string legacy_mode =
      env::get("PSS_ASYNC_LEGACY").value_or("auto");
  const std::string out_path =
      env::get("PSS_ASYNC_JSON").value_or("BENCH_async.json");

  const ProtocolSpec spec = ProtocolSpec::newscast();
  sim::EventEngineConfig cfg;
  cfg.drop_probability = drop;

  std::vector<RunResult> results;
  bool digest_ok = true;
  std::printf(
      "scale_async: spec=%s c=%zu periods=%zu warmup=%zu drop=%.2f seed=%llu "
      "threads={",
      spec.name().c_str(), c, periods, warmup, drop,
      static_cast<unsigned long long>(seed));
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    std::printf("%s%zu", i ? "," : "", ladder[i]);
  }
  std::printf("}\n");

  bool allocations_ok = true;
  for (const std::size_t n : sizes) {
    std::uint64_t reference_digest = 0;
    for (const std::size_t threads : ladder) {
      RunResult r;
      r.n = n;
      r.engine = "event";
      r.threads = static_cast<unsigned>(threads);
      r.gated = true;
      sim::EventEngineConfig lane_cfg = cfg;
      lane_cfg.threads = r.threads;
      run_cell<sim::EventEngine>(r, spec, c, seed, lane_cfg, warmup, periods);
      if (threads == 1) reference_digest = r.digest;  // runs first
      std::printf(
          "  n=%-8zu event t=%zu  setup=%6.2fs run=%6.2fs %10.0f ev/s  "
          "%6.1f B/node  steady_allocs=%llu  windows=%llu deferred=%llu "
          "pooled=%llu  digest=%016llx\n",
          n, threads, r.setup_seconds, r.run_seconds, r.events_per_second,
          r.bytes_per_node,
          static_cast<unsigned long long>(r.steady_allocations),
          static_cast<unsigned long long>(r.windows),
          static_cast<unsigned long long>(r.deferred_tasks),
          static_cast<unsigned long long>(r.pooled_tasks),
          static_cast<unsigned long long>(r.digest));
      results.push_back(r);
    }

    // The gates: every EventEngine cell of this n must match the 1-lane
    // reference bit for bit, and allocate nothing while measured.
    for (const RunResult& r : results) {
      if (r.n != n || !r.gated) continue;
      if (r.digest != reference_digest) {
        digest_ok = false;
        std::fprintf(stderr,
                     "DIGEST MISMATCH n=%zu threads=%u: "
                     "%016llx != reference %016llx\n",
                     n, r.threads,
                     static_cast<unsigned long long>(r.digest),
                     static_cast<unsigned long long>(reference_digest));
      }
      if (r.steady_allocations != 0) {
        allocations_ok = false;
        std::fprintf(stderr,
                     "STEADY ALLOCATIONS n=%zu threads=%u: %llu\n",
                     n, r.threads,
                     static_cast<unsigned long long>(r.steady_allocations));
      }
    }

    const bool run_legacy =
        legacy_mode == "1" || (legacy_mode == "auto" && n <= 100000);
    if (run_legacy) {
      RunResult legacy;
      legacy.n = n;
      legacy.engine = "legacy";
      run_cell<sim::LegacyEventEngine>(legacy, spec, c, seed, cfg, warmup,
                                       periods);
      legacy.digest = 0;  // outside the gates: frozen baseline, own arena
      // Speedup of the fastest measured EventEngine cell at this n.
      double best = 0;
      for (const RunResult& r : results) {
        if (r.n == n && r.gated) best = std::max(best, r.events_per_second);
      }
      std::printf(
          "  n=%-8zu legacy:          run=%6.2fs %10.0f ev/s  -> best "
          "speedup %.1fx\n",
          n, legacy.run_seconds, legacy.events_per_second,
          best / legacy.events_per_second);
      results.push_back(legacy);
    }
  }

  const std::string spec_name = spec.name();
  obs::RunRecorder rec(
      "scale_async", 4,
      bench::make_run_metadata("scale_async", "event", spec_name,
                               bench::protocol_wire_id(spec), sizes.back(), c,
                               periods, seed));
  rec.json().key("params");
  rec.json().begin_object();
  rec.json().field("periods", static_cast<std::uint64_t>(periods));
  rec.json().field("warmup_periods", static_cast<std::uint64_t>(warmup));
  rec.json().field("drop_probability", drop);
  rec.json().end_object();
  rec.json().key("runs");
  rec.json().begin_array();
  for (const RunResult& r : results) {
    rec.json().begin_object();
    rec.json().field("n", static_cast<std::uint64_t>(r.n));
    rec.json().field("engine", r.engine);
    rec.json().field("threads", r.threads);
    rec.json().field("setup_seconds", r.setup_seconds);
    rec.json().field("run_seconds", r.run_seconds);
    rec.json().field("events", r.events);
    rec.json().field("events_per_second", r.events_per_second);
    rec.json().field("steady_allocations", r.steady_allocations);
    rec.json().field("bytes_per_node", r.bytes_per_node);
    rec.json().field("mean_view_size", r.mean_view_size);
    rec.json().field("windows", r.windows);
    rec.json().field("deferred_tasks", r.deferred_tasks);
    rec.json().field("pooled_tasks", r.pooled_tasks);
    rec.json().field("wakeups", r.stats.wakeups);
    rec.json().field("messages_sent", r.stats.messages_sent);
    rec.json().field("messages_dropped", r.stats.messages_dropped);
    rec.json().field("replies_delivered", r.stats.replies_delivered);
    rec.json().field("replies_stale", r.stats.replies_stale);
    rec.json().field("digest", obs::to_hex16(r.digest));
    rec.json().end_object();
  }
  rec.json().end_array();
  rec.gate("digest", digest_ok);
  rec.gate("zero_steady_allocations", allocations_ok);
  if (!rec.write(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  if (!digest_ok) std::fprintf(stderr, "digest gate FAILED\n");
  if (!allocations_ok) {
    std::fprintf(stderr, "zero_steady_allocations gate FAILED\n");
  }
  if (!digest_ok || !allocations_ok) return 1;
  std::printf(
      "digest gate OK (all lane counts bit-identical); "
      "zero_steady_allocations gate OK\n");
  return 0;
}
