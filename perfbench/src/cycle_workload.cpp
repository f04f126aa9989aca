// cycle-census-100k: the paper's observed experiment at the scale its
// users run it. Newscast on the 2-lane deterministic ParallelCycleEngine,
// 0.5% of the nodes leaving and 0.5% joining per cycle, and a census
// snapshot (rebuild + sampled clustering + sampled path length) every 4th
// cycle. The only workload with parallel lanes, churn and the census.
//
// A block is one census period: 4 cycles, each preceded by its churn, the
// census firing inside the last one. Blocks are the unit of measurement,
// so every sample carries the same engine/obs mix. ChurnModel's joins
// append node slots (dead slots are never reused), and the census and the
// engine scan every slot, so a block costs more the longer a network has
// churned. An episode is therefore a fresh set-up plus a fixed number of
// blocks, and a window is whole episodes: every run measures the same
// network states however fast the program is.
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "pss/obs/graph_census.hpp"
#include "pss/obs/run_recorder.hpp"
#include "pss/scenarios/digest.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/churn.hpp"
#include "pss/sim/cycle_engine.hpp"
#include "pss/sim/parallel_cycle_engine.hpp"

namespace perfbench {
namespace {

using namespace pss;

struct CycleParams {
  std::size_t n;
  std::size_t churn_per_cycle;
  std::size_t clustering_sample;
  std::size_t path_sources;
};

constexpr std::size_t kViewSize = 30;
constexpr unsigned kLanes = 2;
constexpr Cycle kCensusEvery = 4;
constexpr std::size_t kContactsPerJoin = 3;
constexpr std::size_t kBlocksPerEpisode = 5;
constexpr std::uint64_t kChurnSalt = 0xC4u;
constexpr std::uint64_t kCensusSalt = 0xCE5u;

CycleParams params(bool small) {
  if (small) return {2000, 10, 200, 4};
  return {100000, 500, 1000, 8};
}

/// The census snapshot, timed phase by phase from the probe seam.
class CensusProbe final : public sim::SnapshotProbe {
 public:
  CensusProbe(const CycleParams& p, std::uint64_t seed) : p_(p), rng_(seed) {}

  void on_snapshot(const sim::Network& net, Cycle) override {
    const std::uint64_t t0 = now_ns();
    census_.rebuild(net);
    const std::uint64_t t1 = now_ns();
    const double clustering =
        census_.clustering_sampled(p_.clustering_sample, rng_);
    const std::uint64_t t2 = now_ns();
    const obs::PathLengthEstimate path =
        census_.path_length_sampled(p_.path_sources, rng_);
    const std::uint64_t t3 = now_ns();
    rebuild_ns += t1 - t0;
    clustering_ns += t2 - t1;
    path_ns += t3 - t2;
    ++snapshots;
    ok = ok && census_.live_count() == net.live_count() &&
         clustering >= 0 && clustering <= 1 && path.average > 0 &&
         path.reachable_fraction > 0;
  }

  std::uint64_t total_ns() const {
    return rebuild_ns + clustering_ns + path_ns;
  }

  std::uint64_t rebuild_ns = 0;
  std::uint64_t clustering_ns = 0;
  std::uint64_t path_ns = 0;
  std::uint64_t snapshots = 0;
  bool ok = true;

 private:
  CycleParams p_;
  Rng rng_;
  obs::GraphCensus census_;
};

/// Cumulative counters of a run; windows are differences of two of these.
struct Counters {
  std::uint64_t cycles = 0;
  std::uint64_t live_sum = 0;  ///< live nodes summed over cycle starts
  std::uint64_t churn_ns = 0;
  std::uint64_t engine_ns = 0;  ///< run_cycle() wall, census included
  std::uint64_t census_ns = 0;
  std::uint64_t rebuild_ns = 0;
  std::uint64_t clustering_ns = 0;
  std::uint64_t path_ns = 0;
  std::uint64_t snapshots = 0;
  sim::EngineStats stats;

  std::uint64_t initiated() const {
    return stats.exchanges + stats.failed_contacts + stats.empty_views;
  }
  Counters operator-(const Counters& o) const {
    return zip(*this, o, std::minus<>{});
  }
  Counters operator+(const Counters& o) const {
    return zip(*this, o, std::plus<>{});
  }

 private:
  template <typename Op>
  static Counters zip(const Counters& a, const Counters& b, Op op) {
    Counters d;
    d.cycles = op(a.cycles, b.cycles);
    d.live_sum = op(a.live_sum, b.live_sum);
    d.churn_ns = op(a.churn_ns, b.churn_ns);
    d.engine_ns = op(a.engine_ns, b.engine_ns);
    d.census_ns = op(a.census_ns, b.census_ns);
    d.rebuild_ns = op(a.rebuild_ns, b.rebuild_ns);
    d.clustering_ns = op(a.clustering_ns, b.clustering_ns);
    d.path_ns = op(a.path_ns, b.path_ns);
    d.snapshots = op(a.snapshots, b.snapshots);
    d.stats.exchanges = op(a.stats.exchanges, b.stats.exchanges);
    d.stats.failed_contacts =
        op(a.stats.failed_contacts, b.stats.failed_contacts);
    d.stats.empty_views = op(a.stats.empty_views, b.stats.empty_views);
    return d;
  }
};

template <typename Engine>
Engine make_engine(sim::Network& net) {
  if constexpr (std::is_same_v<Engine, sim::ParallelCycleEngine>) {
    return sim::ParallelCycleEngine(
        net, {kLanes, sim::ParallelPolicy::kDeterministic});
  } else {
    return sim::CycleEngine(net);
  }
}

/// One set-up of the workload: network, engine, churn and census. The
/// engine keeps pointers into the network, so runs live behind a
/// unique_ptr and never move.
template <typename Engine>
class CycleRun {
 public:
  CycleRun(const CycleParams& p, std::uint64_t seed, sim::TraceProbe* trace)
      : net_(sim::bootstrap::make_random(ProtocolSpec::newscast(),
                                         ProtocolOptions{kViewSize, false},
                                         p.n, seed)),
        engine_(make_engine<Engine>(net_)),
        churn_({p.churn_per_cycle, p.churn_per_cycle, kContactsPerJoin},
               Rng(seed ^ kChurnSalt)),
        census_(p, seed ^ kCensusSalt) {
    engine_.attach_probe(census_, kCensusEvery);
    if (trace != nullptr) engine_.attach_trace(*trace);
  }

  /// Runs one block; returns the exchanges it initiated.
  std::uint64_t run_block() {
    const std::uint64_t before = initiated();
    for (Cycle i = 0; i < kCensusEvery; ++i) {
      const std::uint64_t t0 = now_ns();
      churn_.apply(net_);
      const std::uint64_t t1 = now_ns();
      live_sum_ += net_.live_count();
      engine_.run_cycle();
      churn_ns_ += t1 - t0;
      engine_ns_ += now_ns() - t1;
      ++cycles_;
    }
    return initiated() - before;
  }

  std::uint64_t initiated() const {
    const sim::EngineStats& s = engine_.stats();
    return s.exchanges + s.failed_contacts + s.empty_views;
  }

  Counters counters() const {
    Counters c;
    c.cycles = cycles_;
    c.live_sum = live_sum_;
    c.churn_ns = churn_ns_;
    c.engine_ns = engine_ns_;
    c.census_ns = census_.total_ns();
    c.rebuild_ns = census_.rebuild_ns;
    c.clustering_ns = census_.clustering_ns;
    c.path_ns = census_.path_ns;
    c.snapshots = census_.snapshots;
    c.stats = engine_.stats();
    return c;
  }

  const sim::Network& network() const { return net_; }
  bool census_ok() const { return census_.ok; }

 private:
  sim::Network net_;
  Engine engine_;
  sim::ChurnModel churn_;
  CensusProbe census_;
  std::uint64_t cycles_ = 0;
  std::uint64_t live_sum_ = 0;
  std::uint64_t churn_ns_ = 0;
  std::uint64_t engine_ns_ = 0;
};

using ParallelRun = CycleRun<sim::ParallelCycleEngine>;

/// Construction plus one warm-up block (which also sizes the census
/// buffers).
template <typename Engine>
std::unique_ptr<CycleRun<Engine>> set_up(const CycleParams& p,
                                         std::uint64_t seed,
                                         sim::TraceProbe* trace) {
  auto run = std::make_unique<CycleRun<Engine>>(p, seed, trace);
  run->run_block();
  return run;
}

Pace pace(const Options& o) {
  return {o.seconds, kBlocksPerEpisode};
}

std::uint64_t run_block(ParallelRun& run) { return run.run_block(); }

/// Checks every timed run makes after its window, on the last episode.
/// Every episode runs the same seed, so all must end with one digest.
void check_run(const ParallelRun& run,
               const std::vector<std::uint64_t>& digests, Report& report) {
  const Counters total = run.counters();
  report.check(views_ok(run.network(), kViewSize),
               "views sorted/unique/no-self/<=c");
  report.check(total.initiated() == total.live_sum,
               "initiated == live nodes summed per cycle");
  report.check(run.census_ok(), "census agrees with the network");
  report.check(std::equal(digests.begin() + 1, digests.end(), digests.begin()),
               "every episode ends with one digest");
  report.note("state_digest " + obs::to_hex16(digests.back()));
  report.note("node_slots " + std::to_string(run.network().size()));
}

void end_to_end(const CycleParams& p, const Options& o, Report& report) {
  const std::size_t rss0 = rss_bytes();
  Counters start, window;
  std::vector<std::uint64_t> digests;
  const auto w = run_episodes(
      pace(o),
      [&] {
        auto run = set_up<sim::ParallelCycleEngine>(p, o.seed, nullptr);
        start = run->counters();
        return run;
      },
      run_block,
      [&](const ParallelRun& run) {
        window = window + (run.counters() - start);
        digests.push_back(scenarios::state_digest(run.network()));
      });
  check_run(*w.last, digests, report);

  const double initiated = static_cast<double>(window.initiated());
  // Each exchange puts a request and a reply on the wire; a contact to a
  // dead node loses the request only. Frames carry the sender's view
  // plus its own descriptor.
  const double frames = 2.0 * window.stats.exchanges +
                        static_cast<double>(window.stats.failed_contacts);
  report.set_attempted(window.initiated());
  report.note(block_rates(w.blocks));
  report.metric("exchanges_per_s", sustained_rate(w.blocks), "1/s");
  report.metric("cpu_us_per_exchange", sustained_cpu_us(w.blocks), "us");
  report.metric("setup_s", median(w.setup_s), "s");
  report.metric("rss_bytes_per_node",
                static_cast<double>(w.peak_rss - std::min(w.peak_rss, rss0)) /
                    p.n,
                "B");
  report.metric("completed_exchange_ratio",
                window.stats.exchanges / initiated, "ratio");
  report.metric("wire_bytes_per_exchange",
                frames * frame_bytes(mean_live_view(w.last->network()) + 1) /
                    initiated,
                "B");
}

void traced(const CycleParams& p, const Options& o, Report& report) {
  // Traced episodes, armed for their blocks only.
  LaneSplitProbe probe;
  Counters start, w;
  std::vector<std::uint64_t> digests;
  auto tw = run_episodes(
      pace(o),
      [&] {
        probe.set_armed(false);
        auto run = set_up<sim::ParallelCycleEngine>(p, o.seed, &probe);
        start = run->counters();
        probe.set_armed(true);
        return run;
      },
      run_block,
      [&](const ParallelRun& run) {
        probe.set_armed(false);
        w = w + (run.counters() - start);
        digests.push_back(scenarios::state_digest(run.network()));
      });
  check_run(*tw.last, digests, report);
  const double wall = tw.window_ns;
  tw.last.reset();

  // The untraced twin: as many episodes, nothing attached.
  std::vector<std::uint64_t> plain_digests;
  const auto plain = run_episodes(
      Pace{0, kBlocksPerEpisode, 0, tw.episodes},
      [&] { return set_up<sim::ParallelCycleEngine>(p, o.seed, nullptr); },
      run_block,
      [&](const ParallelRun& run) {
        plain_digests.push_back(scenarios::state_digest(run.network()));
      });
  const double plain_wall = plain.window_ns;
  report.check(plain_digests == digests, "traced digest == untraced digest");

  using sim::TracePhase;
  const double e = static_cast<double>(w.initiated());
  const double engine_wall = static_cast<double>(w.engine_ns - w.census_ns);
  const double select = probe.scan_lane.sum_ns(TracePhase::kSelect);
  const double merge_all = probe.all.sum_ns(TracePhase::kMergeApply);
  const double merge_scan_lane = probe.scan_lane.sum_ns(TracePhase::kMergeApply);
  const double engine_self = engine_wall - select - merge_scan_lane;
  const double snaps = static_cast<double>(w.snapshots);
  report.check(engine_self >= 0, "span self times are non-negative");

  LayerBudget budget;
  budget.sim = engine_self + select + static_cast<double>(w.churn_ns);
  budget.protocol = merge_scan_lane;
  budget.obs = static_cast<double>(w.census_ns);

  report.set_attempted(w.initiated());
  LayerMetrics m;
  m.select_ns = select / probe.scan_lane.count(TracePhase::kSelect);
  m.sequencer_share = select / engine_wall;
  m.lane_busy_ratio = merge_all / (kLanes * engine_wall);
  m.engine_self_ns_per_exchange = engine_self / e;
  m.churn_ms_per_cycle = w.churn_ns * 1e-6 / w.cycles;
  m.merge_apply_ns = merge_all / probe.all.count(TracePhase::kMergeApply);
  m.merge_apply_p99_ns = probe.all.percentile_ns(TracePhase::kMergeApply, 0.99);
  m.census_rebuild_ms = w.rebuild_ns * 1e-6 / snaps;
  m.clustering_ms = w.clustering_ns * 1e-6 / snaps;
  m.path_length_ms = w.path_ns * 1e-6 / snaps;
  m.census_share = w.census_ns / wall;
  m.trace_overhead_ratio = wall / plain_wall;
  report_layers(m, budget, wall, e, report);
}

}  // namespace

void run_cycle_census(const Options& options, Report& report) {
  const CycleParams p = params(options.small);
  if (options.trace) {
    traced(p, options, report);
  } else {
    end_to_end(p, options, report);
  }
}

bool cycle_selftest(std::uint64_t seed) {
  // The 2-lane engine with churn and census against the sequential engine
  // over the same blocks: the digests must agree.
  const CycleParams p = params(true);
  auto parallel = set_up<sim::ParallelCycleEngine>(p, seed, nullptr);
  auto sequential = set_up<sim::CycleEngine>(p, seed, nullptr);
  for (int i = 0; i < 3; ++i) {
    parallel->run_block();
    sequential->run_block();
  }
  return scenarios::state_digest(parallel->network()) ==
         scenarios::state_digest(sequential->network());
}

}  // namespace perfbench
