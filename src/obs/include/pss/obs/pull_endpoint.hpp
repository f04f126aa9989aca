// Minimal Prometheus-style text-exposition pull endpoint — the ROADMAP's
// "pull endpoint on the daemon's ring buffer" item.
//
// One blocking TCP listener on localhost, served from a single background
// thread: any connection (the request bytes are read and ignored — every
// path serves the same document) gets an HTTP/1.0 200 with
// `text/plain; version=0.0.4` and the latest snapshot the producer
// installed via set_text(). The daemon re-renders counters + profiler
// histograms + trace-ring stats once per tick; a Prometheus scrape (or
// `curl`) pulls whatever snapshot is current.
//
// Deliberately NOT a web server: no keep-alive, no routing, no TLS, no
// request parsing beyond a bounded drain. The accept loop polls with a
// short timeout so stop() (and the destructor) join promptly; set_text()
// swaps the document under a mutex, so the serving thread never reads a
// torn snapshot (the threaded test in tests/trace_test.cpp runs under
// TSan in CI).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace pss::obs {

class PullEndpoint {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()) and starts the
  /// serving thread. ok() reports bind/listen failure — the endpoint then
  /// serves nothing but stays safe to destroy (observability degrades,
  /// never the process; the file-sink discipline).
  explicit PullEndpoint(std::uint16_t port);
  ~PullEndpoint();

  PullEndpoint(const PullEndpoint&) = delete;
  PullEndpoint& operator=(const PullEndpoint&) = delete;

  bool ok() const { return ok_; }
  /// The bound port (resolves port 0 to the kernel's choice).
  std::uint16_t port() const { return port_; }

  /// Installs the document served to subsequent connections.
  void set_text(std::string text);

  /// Stops the serving thread and closes the listener; idempotent.
  void stop();

  /// Connections answered so far. A reply is counted before its
  /// connection closes, so a client that has read to EOF is included.
  std::uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }

 private:
  void serve_loop();

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool ok_ = false;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> served_{0};
  std::mutex mutex_;
  std::string text_;
  std::thread thread_;
};

}  // namespace pss::obs
