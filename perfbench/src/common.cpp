#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

#include "pss/common/rng.hpp"
#include "pss/transport/wire.hpp"

namespace perfbench {

void Report::check(bool ok, const std::string& what) {
  std::printf("check %-44s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  if (!ok) correct_ = false;
}

void Report::note(const std::string& line) {
  std::printf("%s\n", line.c_str());
}

void Report::print() const {
  bool finite = true;
  for (const Metric& m : metrics_) {
    if (!std::isfinite(m.value)) {
      std::printf("metric %s is not finite\n", m.name.c_str());
      finite = false;
    }
  }
  const bool ok = correct_ && finite;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              ok ? "true" : "false", attempted_, ok ? 0 : attempted_);
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

namespace {

// Keeps the reference walk from being optimised away.
volatile std::uint64_t g_ref_sink;

std::size_t status_kib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::stoull(line.substr(key.size()));
    }
  }
  return 0;
}

}  // namespace

std::size_t rss_bytes() { return status_kib("VmRSS") * 1024; }

double host_ref_ms() {
  // A single-cycle permutation over 16 MiB, walked by dependent loads:
  // memory latency plus a little integer work, the two things every
  // workload here is made of. Median of five walks.
  constexpr std::size_t kSlots = std::size_t{1} << 22;
  constexpr std::size_t kSteps = std::size_t{1} << 18;
  std::vector<std::uint32_t> next(kSlots);
  std::iota(next.begin(), next.end(), 0u);
  pss::Rng rng(0x5EEDF00DULL);
  // Sattolo's shuffle: one cycle through every slot.
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    std::swap(next[i], next[rng.below(i)]);
  }
  std::vector<double> walks;
  std::uint32_t at = 0;
  std::uint64_t mix = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t s = 0; s < kSteps; ++s) {
      at = next[at];
      mix = (mix ^ at) * 0x100000001B3ULL;
    }
    walks.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  g_ref_sink = mix;
  return median(walks);
}

HostTicks host_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // the aggregate "cpu" line
  HostTicks ticks;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(in >> value)) break;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = at - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double sustained_rate(const std::vector<Block>& blocks) {
  std::vector<double> rates;
  for (const Block& b : blocks) rates.push_back(b.initiated / b.wall_s);
  return quantile(std::move(rates), kSustainedQuantile);
}

double sustained_cpu_us(const std::vector<Block>& blocks) {
  std::vector<double> costs;
  for (const Block& b : blocks) costs.push_back(b.cpu_s * 1e6 / b.initiated);
  return quantile(std::move(costs), 1 - kSustainedQuantile);
}

double blocks_wall_ns(const std::vector<Block>& blocks) {
  double ns = 0;
  for (const Block& b : blocks) ns += b.wall_s * 1e9;
  return ns;
}

std::string block_rates(const std::vector<Block>& blocks) {
  std::string line = "block_rates";
  char buf[32];
  for (const Block& b : blocks) {
    std::snprintf(buf, sizeof buf, " %.0f", b.initiated / b.wall_s);
    line += buf;
  }
  return line;
}

bool view_ok(std::span<const pss::NodeDescriptor> view, pss::NodeId self,
             std::size_t c, std::vector<pss::NodeId>& scratch) {
  if (view.size() > c) return false;
  if (!std::is_sorted(view.begin(), view.end(), pss::ByHopThenAddress{})) {
    return false;
  }
  scratch.clear();
  for (const pss::NodeDescriptor& d : view) {
    if (d.address == self) return false;
    scratch.push_back(d.address);
  }
  std::sort(scratch.begin(), scratch.end());
  return std::adjacent_find(scratch.begin(), scratch.end()) == scratch.end();
}

bool views_ok(const pss::sim::Network& net, std::size_t c) {
  std::vector<pss::NodeId> scratch;
  for (pss::NodeId id = 0; id < net.size(); ++id) {
    if (net.is_live(id) && !view_ok(net.view_span(id), id, c, scratch)) {
      return false;
    }
  }
  return true;
}

double mean_live_view(const pss::sim::Network& net) {
  double entries = 0;
  for (pss::NodeId id = 0; id < net.size(); ++id) {
    if (net.is_live(id)) {
      entries += static_cast<double>(net.view_span(id).size());
    }
  }
  return entries / static_cast<double>(net.live_count());
}

double frame_bytes(double entries) {
  using pss::transport::WireCodec;
  return WireCodec::kHeaderBytes + WireCodec::kRecordBytes * entries;
}

void release_freed_memory() { malloc_trim(0); }

void report_layers(const LayerMetrics& m, const LayerBudget& budget,
                   double wall_ns, double exchanges, Report& report) {
  report.metric("sim.select_ns", m.select_ns, "ns");
  report.metric("sim.sequencer_share", m.sequencer_share, "ratio");
  report.metric("sim.lane_busy_ratio", m.lane_busy_ratio, "ratio");
  report.metric("sim.engine_self_ns_per_exchange",
                m.engine_self_ns_per_exchange, "ns");
  report.metric("sim.churn_ms_per_cycle", m.churn_ms_per_cycle, "ms");
  report.metric("protocol.merge_apply_ns", m.merge_apply_ns, "ns");
  report.metric("protocol.merge_apply_p99_ns", m.merge_apply_p99_ns, "ns");
  report.metric("protocol.reply_absorb_ns", m.reply_absorb_ns, "ns");
  report.metric("obs.census_rebuild_ms", m.census_rebuild_ms, "ms");
  report.metric("obs.clustering_ms", m.clustering_ms, "ms");
  report.metric("obs.path_length_ms", m.path_length_ms, "ms");
  report.metric("obs.census_share", m.census_share, "ratio");
  report.metric("obs.trace_overhead_ratio", m.trace_overhead_ratio, "ratio");
  report.metric("transport.send_ns_per_frame", m.send_ns_per_frame, "ns");
  report.metric("transport.poll_self_ns_per_frame", m.poll_self_ns_per_frame,
                "ns");
  report.metric("transport.handler_self_ns_per_frame",
                m.handler_self_ns_per_frame, "ns");
  report.metric("transport.tick_self_ns", m.tick_self_ns, "ns");
  report.metric("transport.frames_per_poll", m.frames_per_poll, "count");
  report.metric("transport.empty_poll_ratio", m.empty_poll_ratio, "ratio");
  report.metric("transport.send_failure_ratio", m.send_failure_ratio,
                "ratio");

  report.metric("budget.sim_ns_per_exchange", budget.sim / exchanges, "ns");
  report.metric("budget.protocol_ns_per_exchange", budget.protocol / exchanges,
                "ns");
  report.metric("budget.obs_ns_per_exchange", budget.obs / exchanges, "ns");
  report.metric("budget.transport_ns_per_exchange",
                budget.transport / exchanges, "ns");
  const double unaccounted =
      1.0 - (budget.sim + budget.protocol + budget.obs + budget.transport) /
                wall_ns;
  report.metric("budget.unaccounted_ratio", unaccounted, "ratio");
  report.check(std::abs(unaccounted) <= kBudgetTolerance,
               "layer budget covers the traced wall");
}

}  // namespace perfbench
