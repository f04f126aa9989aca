// Shared pieces of the benchmark: options, the report it prints, host
// probes (CPU time, RSS, the drift reference loop), the episode loop and
// its block statistics, the view invariant check, and the lane-splitting
// trace probe.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "pss/membership/node_descriptor.hpp"
#include "pss/obs/profiler.hpp"
#include "pss/sim/network.hpp"
#include "pss/sim/trace_probe.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test scale: the same workload shape at a few thousand nodes.
  bool small = false;
};

/// Everything one run prints: diagnostic lines first, then the result
/// object on the last line (see print()).
class Report {
 public:
  void metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a correctness check; a failed check marks every operation
  /// of the run as failed.
  void check(bool ok, const std::string& what);
  void note(const std::string& line);
  void set_attempted(std::uint64_t attempted) { attempted_ = attempted; }
  bool correct() const { return correct_; }
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::vector<Metric> metrics_;
};

/// Wall clock for every span the benchmark times: the engines' trace
/// clock, so the benchmark's own spans and the engines' spans share one
/// axis and subtract cleanly.
inline std::uint64_t now_ns() { return pss::sim::trace_clock_ns(); }

/// User + system CPU seconds of this process (getrusage(RUSAGE_SELF)).
double cpu_seconds();

/// Resident set size now, in bytes. The workloads sample it after every
/// block and keep the maximum as the run's peak.
std::size_t rss_bytes();

/// Milliseconds one fixed pointer-chasing loop takes on this host: a
/// drift diagnostic printed with every run, never used to normalise.
double host_ref_ms();

/// Host-wide CPU time counters from /proc/stat, in clock ticks.
struct HostTicks {
  std::uint64_t steal = 0;  ///< time the hypervisor ran something else
  std::uint64_t total = 0;
};
HostTicks host_ticks();

double median(std::vector<double> values);

/// The q-quantile (0 <= q <= 1) of `values`, interpolating linearly
/// between the two nearest order statistics.
double quantile(std::vector<double> values, double q);

/// One measured block of a timed window.
struct Block {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t initiated = 0;
};

/// Quantile of the blocks that the two throughput figures read: the
/// rate nine blocks in ten reach and the cost nine in ten stay under.
/// The host switches between a slow and a fast state for seconds at a
/// time; a median over blocks lands in either state depending on the
/// share of blocks each got, while this tail quantile reads the state
/// every run spends time in (README.md, noise study).
inline constexpr double kSustainedQuantile = 0.1;

/// kSustainedQuantile over blocks of initiated exchanges per wall second.
double sustained_rate(const std::vector<Block>& blocks);
/// 1 - kSustainedQuantile over blocks of CPU microseconds per initiated
/// exchange.
double sustained_cpu_us(const std::vector<Block>& blocks);

/// Returns memory freed by a discarded set-up to the OS, so the RSS taken
/// after the window counts live state only.
void release_freed_memory();

/// How a timed window is cut into episodes and blocks.
struct Pace {
  double seconds = 0;                  ///< block wall time to measure
  std::size_t blocks_per_episode = 1;  ///< same count in every episode
  std::size_t min_episodes = 3;        ///< set-ups, for setup_s's median
  std::size_t fixed_episodes = 0;  ///< when non-zero, exactly this many
};

/// What a window measured. `last` is the last episode's workload, kept
/// alive for the checks made after the window.
template <typename Run>
struct Window {
  std::unique_ptr<Run> last;
  std::vector<Block> blocks;
  std::vector<double> setup_s;  ///< one set-up per episode
  std::size_t peak_rss = 0;     ///< max RSS over set-ups and blocks
  std::size_t episodes = 0;
  /// Wall time of the measured part of the episodes (blocks plus the
  /// loop's own bookkeeping between them), set-ups excluded.
  double window_ns = 0;
};

/// Runs a timed window as a sequence of episodes. Each episode sets the
/// workload up afresh from the seed with `set_up()` (returning a
/// std::unique_ptr; timed, one set-up sample), then runs
/// `pace.blocks_per_episode` blocks of `run_block(run)` (returning the
/// exchanges it initiated), then calls `end_episode(run)`. Every episode
/// does the same work, so the window stays stationary however fast the
/// program runs: a workload whose state grows (churn appends node slots)
/// is measured over the same states in every run. At least
/// `pace.min_episodes` run; after that another starts only while it is
/// expected to end nearer `pace.seconds` of measured block wall time than
/// stopping would, so a run measures `pace.seconds` give or take half an
/// episode. With `pace.fixed_episodes` set, exactly that many run. RSS is
/// sampled after every set-up and block.
template <typename SetUp, typename RunBlock, typename EndEpisode>
auto run_episodes(const Pace& pace, SetUp&& set_up, RunBlock&& run_block,
                  EndEpisode&& end_episode) {
  Window<typename decltype(set_up())::element_type> w;
  double measured = 0;
  auto more = [&] {
    if (pace.fixed_episodes != 0) return w.episodes < pace.fixed_episodes;
    if (w.episodes < pace.min_episodes) return true;
    const double per_episode = measured / static_cast<double>(w.episodes);
    return measured + per_episode / 2 < pace.seconds;
  };
  while (more()) {
    w.last.reset();
    release_freed_memory();
    const std::uint64_t s0 = now_ns();
    w.last = set_up();
    w.setup_s.push_back((now_ns() - s0) * 1e-9);
    w.peak_rss = std::max(w.peak_rss, rss_bytes());
    const std::uint64_t m0 = now_ns();
    for (std::size_t i = 0; i < pace.blocks_per_episode; ++i) {
      const double cpu0 = cpu_seconds();
      const std::uint64_t t0 = now_ns();
      Block b;
      b.initiated = run_block(*w.last);
      b.wall_s = (now_ns() - t0) * 1e-9;
      b.cpu_s = cpu_seconds() - cpu0;
      w.blocks.push_back(b);
      measured += b.wall_s;
      w.peak_rss = std::max(w.peak_rss, rss_bytes());
    }
    w.window_ns += static_cast<double>(now_ns() - m0);
    end_episode(*w.last);
    ++w.episodes;
  }
  return w;
}

/// Sum of the blocks' wall times, in nanoseconds.
double blocks_wall_ns(const std::vector<Block>& blocks);

/// Diagnostic line listing every block's exchanges per second, so the
/// in-run spread behind the sustained rate can be read off each run.
std::string block_rates(const std::vector<Block>& blocks);

/// View invariants of one live node: sorted by (hop, address), one entry
/// per address, no entry for `self`, at most `c` entries. `scratch` is
/// reused across calls.
bool view_ok(std::span<const pss::NodeDescriptor> view, pss::NodeId self,
             std::size_t c, std::vector<pss::NodeId>& scratch);

/// view_ok over every live node of a simulated network.
bool views_ok(const pss::sim::Network& net, std::size_t c);

/// Mean view size over live nodes.
double mean_live_view(const pss::sim::Network& net);

/// Encoded size of a wire frame carrying `entries` descriptors (the
/// cycle workload's messages carry the same buffers a deployment would
/// encode).
double frame_bytes(double entries);

/// Share of the traced wall time the layer budget may leave unexplained.
inline constexpr double kBudgetTolerance = 0.05;

/// Per-layer metrics of a traced run. Every run prints all of them; a
/// layer the workload does not exercise reads 0.
struct LayerMetrics {
  double select_ns = 0;
  double sequencer_share = 0;
  double lane_busy_ratio = 0;
  double engine_self_ns_per_exchange = 0;
  double churn_ms_per_cycle = 0;
  double merge_apply_ns = 0;
  double merge_apply_p99_ns = 0;
  double reply_absorb_ns = 0;
  double census_rebuild_ms = 0;
  double clustering_ms = 0;
  double path_length_ms = 0;
  double census_share = 0;
  double trace_overhead_ratio = 0;
  double send_ns_per_frame = 0;
  double poll_self_ns_per_frame = 0;
  double handler_self_ns_per_frame = 0;
  double tick_self_ns = 0;
  double frames_per_poll = 0;
  double empty_poll_ratio = 0;
  double send_failure_ratio = 0;
};

/// Self time of each layer over the traced window, in nanoseconds. The
/// parts are disjoint, so together they should cover the window.
struct LayerBudget {
  double sim = 0;
  double protocol = 0;
  double obs = 0;
  double transport = 0;
};

/// Adds the per-layer metrics and the budget (per exchange, plus the
/// unaccounted share of `wall_ns`) to the report, and checks the budget
/// against kBudgetTolerance.
void report_layers(const LayerMetrics& m, const LayerBudget& budget,
                   double wall_ns, double exchanges, Report& report);

/// Tees every span into `all` and, when recorded on the constructing
/// thread, into `scan_lane` as well. The parallel cycle engine records
/// select spans on its scanning thread (lane 0) and merge+apply spans on
/// every lane, so `scan_lane` holds the critical path and `all` the lane
/// totals.
class LaneSplitProbe final : public pss::sim::TraceProbe {
 public:
  LaneSplitProbe() : scan_thread_(std::this_thread::get_id()) {}
  bool armed() const override { return all.armed(); }
  void set_armed(bool armed) { all.set_armed(armed); }
  void record(const pss::sim::TraceSpan& span) override {
    all.record(span);
    if (std::this_thread::get_id() == scan_thread_) scan_lane.record(span);
  }

  pss::obs::Profiler all;
  pss::obs::Profiler scan_lane;

 private:
  std::thread::id scan_thread_;
};

// Workload entry points (one translation unit each).
void run_cycle_census(const Options& options, Report& report);
void run_udp_saturate(const Options& options, Report& report);

/// Small-N self-test: the 2-lane engine with churn and census must end
/// with the same state digest as the sequential engine.
bool cycle_selftest(std::uint64_t seed);

}  // namespace perfbench
