// perfbench: the repository benchmark. One workload per run:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--small]
//   perfbench --selftest [--seed <n>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// makes a traced run of the same workload and seed, then an untraced run
// of the same length, and reports the per-layer metrics. The last line of
// standard output is the result object. --small runs the same workload
// shape at a few thousand nodes (the self-tests use it).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <cycle-census-100k|"
               "udp-saturate-2k> --seed <n> --seconds <s> "
               "--trace <0|1> [--small]\n"
               "       perfbench --selftest [--seed <n>]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& text, const char* flag) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return std::stoull(text);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      options.workload = value();
    } else if (flag == "--seed") {
      options.seed = parse_uint(value(), "--seed");
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(parse_uint(value(), "--seconds"));
    } else if (flag == "--trace") {
      const std::uint64_t trace = parse_uint(value(), "--trace");
      if (trace > 1) usage("--trace takes 0 or 1");
      options.trace = trace == 1;
    } else if (flag == "--small") {
      options.small = true;
    } else if (flag == "--selftest") {
      selftest = true;
    } else {
      usage(("unknown argument " + flag).c_str());
    }
  }

  try {
    if (selftest) {
      const bool ok = perfbench::cycle_selftest(options.seed);
      std::printf("selftest parallel(2 lanes)==sequential digest %s\n",
                  ok ? "ok" : "FAILED");
      return ok ? 0 : 1;
    }
    const std::map<std::string, void (*)(const Options&, Report&)> workloads{
        {"cycle-census-100k", perfbench::run_cycle_census},
        {"udp-saturate-2k", perfbench::run_udp_saturate},
    };
    const auto it = workloads.find(options.workload);
    if (it == workloads.end()) usage("unknown or missing --workload");
    if (options.seconds < 1) usage("--seconds must be at least 1");

    // Host drift diagnostic: printed with every run, compared with nothing.
    const double ref_ms = perfbench::host_ref_ms();
    std::printf("host.ref_ms %.4f\n", ref_ms);
    std::printf("workload %s seed %llu seconds %.0f trace %d%s\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.trace ? 1 : 0, options.small ? " small" : "");
    Report report;
    const perfbench::HostTicks ticks0 = perfbench::host_ticks();
    it->second(options, report);
    const perfbench::HostTicks ticks1 = perfbench::host_ticks();
    // Share of all vCPU time the hypervisor gave to others during the run:
    // a second drift diagnostic, like host.ref_ms never compared against.
    if (ticks1.total > ticks0.total) {
      std::printf("host.steal_pct %.2f\n",
                  100.0 * static_cast<double>(ticks1.steal - ticks0.steal) /
                      static_cast<double>(ticks1.total - ticks0.total));
    }
    if (options.trace) report.metric("host.ref_ms", ref_ms, "ms");
    report.print();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
