// udp-saturate-2k: the deployment wire path. 2000 standalone ServiceNodes
// run Newscast (c = 30) over 4 UdpTransport sockets on 127.0.0.1, 500
// nodes per socket, demultiplexed by the frame header, all on one thread.
// The loop is closed: a round ticks every node once, then polls every
// socket until two passes in a row come back empty. Codec, ServiceNode
// handlers and sendto/recvfrom carry the load; the kernels are a small
// share. Traffic crosses the loopback interface, not a real link.
//
// A block is 10 rounds; an episode is a fresh set-up (new sockets on the
// same ports) plus a fixed number of blocks, and a window is whole
// episodes (see common.hpp). Sends are seen through a benchmark-owned
// Transport decorator around each socket; ticks, polls and frame handlers
// are timed around the calls the loop makes.
#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/transport/service_node.hpp"
#include "pss/transport/udp_transport.hpp"

namespace perfbench {
namespace {

using namespace pss;

constexpr std::size_t kViewSize = 30;
constexpr std::size_t kSockets = 4;
constexpr std::size_t kRoundsPerBlock = 10;
constexpr std::size_t kWarmupRounds = 20;
constexpr std::size_t kMaxPollPasses = 64;
constexpr std::size_t kBlocksPerEpisode = 20;

std::size_t node_count(bool small) { return small ? 400 : 2000; }

/// Send-side counters shared by the decorators of all sockets.
struct SendMeter {
  bool timed = false;
  std::uint64_t frames = 0;
  std::uint64_t failures = 0;
  std::uint64_t bytes = 0;  ///< UDP payload bytes of accepted frames
  std::uint64_t ns = 0;

  template <typename Op>
  SendMeter zip(const SendMeter& o, Op op) const {
    return {timed, op(frames, o.frames), op(failures, o.failures),
            op(bytes, o.bytes), op(ns, o.ns)};
  }
};

/// Counts (and, when the meter is timed, times) every send; polls pass
/// straight through.
class MeteredTransport final : public transport::Transport {
 public:
  MeteredTransport(transport::UdpTransport& inner, SendMeter& meter)
      : inner_(&inner), meter_(&meter) {}

  bool send(NodeId to, std::span<const std::byte> frame) override {
    const std::uint64_t t0 = meter_->timed ? now_ns() : 0;
    const bool ok = inner_->send(to, frame);
    if (meter_->timed) meter_->ns += now_ns() - t0;
    ++meter_->frames;
    if (ok) {
      meter_->bytes += frame.size();
    } else {
      ++meter_->failures;
    }
    return ok;
  }

  std::size_t poll(const transport::FrameHandler& handler) override {
    return inner_->poll(handler);
  }

 private:
  transport::UdpTransport* inner_;
  SendMeter* meter_;
};

/// Loop-side counters; the *_ns fields are only filled in timed runs.
struct LoopMeter {
  std::uint64_t ticks = 0;
  std::uint64_t frames = 0;
  std::uint64_t polls = 0;
  std::uint64_t empty_polls = 0;
  std::uint64_t demux_misses = 0;  ///< frames for no hosted node
  std::uint64_t tick_ns = 0;
  std::uint64_t tick_send_ns = 0;  ///< sends nested in on_tick
  std::uint64_t poll_ns = 0;
  std::uint64_t handler_ns = 0;
  std::uint64_t handler_send_ns = 0;  ///< sends nested in frame handlers

  template <typename Op>
  LoopMeter zip(const LoopMeter& o, Op op) const {
    return {op(ticks, o.ticks),
            op(frames, o.frames),
            op(polls, o.polls),
            op(empty_polls, o.empty_polls),
            op(demux_misses, o.demux_misses),
            op(tick_ns, o.tick_ns),
            op(tick_send_ns, o.tick_send_ns),
            op(poll_ns, o.poll_ns),
            op(handler_ns, o.handler_ns),
            op(handler_send_ns, o.handler_send_ns)};
  }
};

/// Adds the change of a cumulative meter over one episode to `total`.
template <typename Meter>
void add_delta(Meter& total, const Meter& end, const Meter& start) {
  total = total.zip(end.zip(start, std::minus<>{}), std::plus<>{});
}

/// First port of kSockets consecutive ports on 127.0.0.1 that nothing
/// else holds, searched from a seed-derived start.
std::uint16_t free_base_port(std::uint64_t seed) {
  for (std::uint64_t attempt = 0; attempt < 256; ++attempt) {
    const auto base =
        static_cast<std::uint16_t>(20000 + ((seed + attempt) * 64) % 30000);
    std::vector<int> fds;
    bool free = true;
    for (std::size_t s = 0; s < kSockets && free; ++s) {
      const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(base + s));
      free = fd >= 0 && ::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                               sizeof addr) == 0;
      if (fd >= 0) fds.push_back(fd);
    }
    for (const int fd : fds) ::close(fd);
    if (free) return base;
  }
  throw std::runtime_error("no free UDP port range on 127.0.0.1");
}

class UdpRun {
 public:
  UdpRun(std::size_t n, std::uint64_t seed, std::uint16_t port,
         sim::TraceProbe* trace)
      : book_(transport::UdpAddressBook::local_range(port, n, kSockets)) {
    const transport::WireCodec codec(kViewSize);
    for (std::size_t s = 0; s < kSockets; ++s) {
      sockets_.push_back(std::make_unique<transport::UdpTransport>(
          book_, static_cast<NodeId>(s), codec.max_frame_bytes()));
      metered_.push_back(
          std::make_unique<MeteredTransport>(*sockets_.back(), send));
    }
    // The simulator's random bootstrap supplies each node's initial view
    // and its protocol Rng stream.
    const sim::Network boot = sim::bootstrap::make_random(
        ProtocolSpec::newscast(), ProtocolOptions{kViewSize, false}, n, seed);
    std::vector<NodeId> contacts;
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<NodeId>(i);
      nodes_.emplace_back(id, ProtocolSpec::newscast(),
                          ProtocolOptions{kViewSize, false},
                          boot.arena().rngs[id], *metered_[i % kSockets]);
      contacts.clear();
      for (const NodeDescriptor& d : boot.view_span(id)) {
        contacts.push_back(d.address);
      }
      nodes_.back().init(contacts);
      if (trace != nullptr) nodes_.back().attach_trace(*trace);
    }
    handler_ = [this](NodeId to, std::span<const std::byte> bytes) {
      deliver(to, bytes);
    };
  }

  void run_rounds(std::size_t rounds) {
    for (std::size_t r = 0; r < rounds; ++r) round();
  }

  std::uint64_t requests_sent() const {
    std::uint64_t total = 0;
    for (const auto& node : nodes_) total += node.stats().requests_sent;
    return total;
  }
  std::uint64_t replies_delivered() const {
    std::uint64_t total = 0;
    for (const auto& node : nodes_) total += node.stats().replies_delivered;
    return total;
  }
  const std::deque<transport::ServiceNode>& nodes() const { return nodes_; }
  const std::vector<std::unique_ptr<transport::UdpTransport>>& sockets()
      const {
    return sockets_;
  }

  SendMeter send;
  LoopMeter loop;

 private:
  void round() {
    now_ += 1.0;
    for (auto& node : nodes_) {
      ++loop.ticks;
      if (!send.timed) {
        node.on_tick(now_);
        continue;
      }
      const std::uint64_t sent0 = send.ns;
      const std::uint64_t t0 = now_ns();
      node.on_tick(now_);
      loop.tick_ns += now_ns() - t0;
      loop.tick_send_ns += send.ns - sent0;
    }
    // Requests beget replies, so one pass is not enough; stop after two
    // quiet passes in a row.
    std::size_t quiet = 0;
    for (std::size_t pass = 0; pass < kMaxPollPasses && quiet < 2; ++pass) {
      std::size_t received = 0;
      for (auto& socket : metered_) {
        const std::uint64_t t0 = send.timed ? now_ns() : 0;
        const std::size_t got = socket->poll(handler_);
        if (send.timed) loop.poll_ns += now_ns() - t0;
        ++loop.polls;
        if (got == 0) ++loop.empty_polls;
        received += got;
      }
      quiet = received == 0 ? quiet + 1 : 0;
    }
  }

  void deliver(NodeId to, std::span<const std::byte> bytes) {
    ++loop.frames;
    if (to >= nodes_.size()) {
      ++loop.demux_misses;
      return;
    }
    if (!send.timed) {
      nodes_[to].on_datagram(bytes, now_);
      return;
    }
    const std::uint64_t sent0 = send.ns;
    const std::uint64_t t0 = now_ns();
    nodes_[to].on_datagram(bytes, now_);
    loop.handler_ns += now_ns() - t0;
    loop.handler_send_ns += send.ns - sent0;
  }

  transport::UdpAddressBook book_;
  std::vector<std::unique_ptr<transport::UdpTransport>> sockets_;
  std::vector<std::unique_ptr<MeteredTransport>> metered_;
  std::deque<transport::ServiceNode> nodes_;
  transport::FrameHandler handler_;
  double now_ = 0;
};

/// Construction plus the warm-up rounds.
std::unique_ptr<UdpRun> set_up(std::size_t n, std::uint64_t seed,
                               std::uint16_t port, sim::TraceProbe* trace) {
  auto run = std::make_unique<UdpRun>(n, seed, port, trace);
  run->run_rounds(kWarmupRounds);
  return run;
}

Pace pace(const Options& o) {
  return {o.seconds, kBlocksPerEpisode};
}

std::uint64_t run_block(UdpRun& run) {
  const std::uint64_t before = run.requests_sent();
  run.run_rounds(kRoundsPerBlock);
  return run.requests_sent() - before;
}

/// Outcome of the checks over every episode of a window: socket timing
/// makes episodes differ, so each is checked when it ends.
struct Checks {
  bool views = true;
  std::uint64_t faults = 0;  ///< rejected, mismatched or misaddressed

  void add(const UdpRun& run) {
    std::vector<NodeId> scratch;
    for (const auto& node : run.nodes()) {
      views = views && view_ok(node.view(), node.self(), kViewSize, scratch);
      faults += node.stats().frames_rejected +
                node.stats().protocol_mismatches + node.stats().misaddressed;
    }
    for (const auto& socket : run.sockets()) {
      faults += socket->stats().oversized_dropped;
    }
    faults += run.loop.demux_misses;
  }

  void report_to(Report& report) const {
    report.check(views, "views sorted/unique/no-self/<=c");
    report.check(faults == 0, "no rejected/mismatched/misaddressed frames");
  }
};

void end_to_end(std::size_t n, std::uint16_t port, const Options& o,
                Report& report) {
  const std::size_t rss0 = rss_bytes();
  std::uint64_t requests0 = 0, replies0 = 0, bytes0 = 0;
  std::uint64_t requests = 0, replies = 0, bytes = 0;
  Checks checks;
  const auto w = run_episodes(
      pace(o),
      [&] {
        auto run = set_up(n, o.seed, port, nullptr);
        requests0 = run->requests_sent();
        replies0 = run->replies_delivered();
        bytes0 = run->send.bytes;
        return run;
      },
      run_block,
      [&](const UdpRun& run) {
        requests += run.requests_sent() - requests0;
        replies += run.replies_delivered() - replies0;
        bytes += run.send.bytes - bytes0;
        checks.add(run);
      });
  checks.report_to(report);

  const auto initiated = static_cast<double>(requests);
  report.set_attempted(requests);
  report.note(block_rates(w.blocks));
  report.metric("exchanges_per_s", sustained_rate(w.blocks), "1/s");
  report.metric("cpu_us_per_exchange", sustained_cpu_us(w.blocks), "us");
  report.metric("setup_s", median(w.setup_s), "s");
  report.metric("rss_bytes_per_node",
                static_cast<double>(w.peak_rss - std::min(w.peak_rss, rss0)) /
                    n,
                "B");
  report.metric("completed_exchange_ratio", replies / initiated, "ratio");
  report.metric("wire_bytes_per_exchange", bytes / initiated, "B");
}

void traced(std::size_t n, std::uint16_t port, const Options& o,
            Report& report) {
  // Traced episodes: profiler armed and meters timed for the blocks only.
  obs::Profiler probe;
  SendMeter send0, s;
  LoopMeter loop0, l;
  std::uint64_t requests0 = 0, requests = 0;
  Checks checks;
  const auto tw = run_episodes(
      pace(o),
      [&] {
        probe.set_armed(false);
        auto run = set_up(n, o.seed, port, &probe);
        run->send.timed = true;
        send0 = run->send;
        loop0 = run->loop;
        requests0 = run->requests_sent();
        probe.set_armed(true);
        return run;
      },
      run_block,
      [&](const UdpRun& run) {
        probe.set_armed(false);
        add_delta(s, run.send, send0);
        add_delta(l, run.loop, loop0);
        requests += run.requests_sent() - requests0;
        checks.add(run);
      });
  checks.report_to(report);
  const double wall = tw.window_ns;

  // The untraced twin: as many episodes, nothing attached or timed.
  const auto plain = run_episodes(
      Pace{0, kBlocksPerEpisode, 0, tw.episodes},
      [&] { return set_up(n, o.seed, port, nullptr); }, run_block,
      [](const UdpRun&) {});
  const double plain_wall = plain.window_ns;

  using sim::TracePhase;
  const auto e = static_cast<double>(requests);
  const auto ticks = static_cast<double>(l.ticks);
  const auto frames = static_cast<double>(l.frames);
  const auto polls = static_cast<double>(l.polls);
  const auto sends = static_cast<double>(s.frames);
  const auto send_ns = static_cast<double>(s.ns);
  const double tick_self = static_cast<double>(l.tick_ns) -
                           static_cast<double>(l.tick_send_ns);
  const double poll_self = static_cast<double>(l.poll_ns) -
                           static_cast<double>(l.handler_ns);
  const double merge = probe.sum_ns(TracePhase::kMergeApply);
  const double absorb = probe.sum_ns(TracePhase::kReplyReceived);
  // A request handler's merge+apply span encloses the reply send, so the
  // handler's own time is what its protocol spans leave over, and the
  // protocol's merge time is its span minus the send inside it.
  const double handler_self =
      static_cast<double>(l.handler_ns) - merge - absorb;
  const double merge_self = merge - static_cast<double>(l.handler_send_ns);
  report.check(std::min({tick_self, poll_self, handler_self, merge_self}) >= 0,
               "span self times are non-negative");

  LayerBudget budget;
  budget.transport = tick_self + send_ns + poll_self + handler_self;
  budget.protocol = merge_self + absorb;

  report.set_attempted(requests);
  LayerMetrics m;
  m.merge_apply_ns = merge_self / probe.count(TracePhase::kMergeApply);
  m.merge_apply_p99_ns = probe.percentile_ns(TracePhase::kMergeApply, 0.99);
  m.reply_absorb_ns = absorb / probe.count(TracePhase::kReplyReceived);
  m.trace_overhead_ratio = wall / plain_wall;
  m.send_ns_per_frame = send_ns / sends;
  m.poll_self_ns_per_frame = poll_self / frames;
  m.handler_self_ns_per_frame = handler_self / frames;
  m.tick_self_ns = tick_self / ticks;
  m.frames_per_poll = frames / polls;
  m.empty_poll_ratio = static_cast<double>(l.empty_polls) / polls;
  m.send_failure_ratio = static_cast<double>(s.failures) / sends;
  report_layers(m, budget, wall, e, report);
}

}  // namespace

void run_udp_saturate(const Options& options, Report& report) {
  const std::size_t n = node_count(options.small);
  const std::uint16_t port = free_base_port(options.seed);
  if (options.trace) {
    traced(n, port, options, report);
  } else {
    end_to_end(n, port, options, report);
  }
}

}  // namespace perfbench
