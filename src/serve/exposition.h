#ifndef KBQA_SERVE_EXPOSITION_H_
#define KBQA_SERVE_EXPOSITION_H_

/// Pull-based observability exposition (DESIGN.md §8): a tiny blocking
/// HTTP/1.0 listener over POSIX sockets serving
///
///   /metricsz   global metrics registry (text tables; ?format=json for
///               the MetricsSnapshot JSON)
///   /statusz    build info, uptime, process RSS, wide-event sink totals
///   /eventz     recent wide events as JSONL (?n=K, newest last)
///   /slo        SLO burn-rate evaluation as JSON (404 when no monitor
///               is attached)
///
/// One accept thread handles connections serially — every handler renders
/// from lock-free snapshots in microseconds, so a scrape cannot stall the
/// serving path, and the serving path never blocks on the scraper. Each
/// connection gets one fixed deadline to deliver its request and take its
/// response, so an idle, trickling or never-reading client delays later
/// scrapes by at most that deadline, and teardown wakes the accept thread
/// wherever it waits. Lives
/// in src/serve (not src/obs) because it needs util's Status/Result
/// machinery and kbqa_util itself links against kbqa_obs — obs cannot
/// link util symbols without a static library cycle.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "obs/slo.h"
#include "util/status.h"

namespace kbqa::serve {

struct ExpositionOptions {
  /// Loopback by default: this is an operator endpoint, not a public API.
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; read the outcome from port().
  int port = 0;
  /// Optional SLO monitor behind /slo; gauges are refreshed per scrape.
  const obs::SloMonitor* slo = nullptr;
  /// Optional extra key/value lines appended to /statusz (the example
  /// server reports engine/world facts through this).
  std::function<void(std::string*)> statusz_extra;
};

class ExpositionServer {
 public:
  /// Binds, listens, and starts the accept thread. Returns kUnavailable
  /// when the port cannot be bound.
  static Result<std::unique_ptr<ExpositionServer>> Start(
      const ExpositionOptions& options);

  /// Wakes the accept thread (even mid-connection), joins it, and closes
  /// the listener.
  ~ExpositionServer();

  ExpositionServer(const ExpositionServer&) = delete;
  ExpositionServer& operator=(const ExpositionServer&) = delete;

  /// The bound port (the ephemeral pick when options.port was 0).
  int port() const { return port_; }
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  /// Routes one request path (with optional query string) to its handler
  /// and returns the response body; used directly by tests and by the
  /// socket loop. `status_out` gets the HTTP status code (200/404),
  /// `content_type_out` the MIME type.
  static std::string HandlePath(const ExpositionOptions& options,
                                const std::string& path_and_query,
                                int* status_out,
                                std::string* content_type_out);

  /// Extracts the request path from a raw request blob: the first line's
  /// "GET <path> ..." form, tolerating HTTP/0.9 one-liners, missing
  /// versions, and truncated reads. Returns "/" when no path can be
  /// extracted. Pure — the byte-facing half of the request parser, split
  /// out so tests and the fuzz harness drive it without a socket.
  static std::string ParseRequestPath(const std::string& request);

 private:
  ExpositionServer(const ExpositionOptions& options, int listen_fd,
                   const int wake_fds[2], int port);

  void AcceptLoop();
  void ServeConnection(int fd);

  ExpositionOptions options_;
  int listen_fd_ = -1;
  /// Self-pipe: the destructor closes the write end, which makes the read
  /// end readable and ends every poll the accept thread is in.
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  int port_ = 0;
  std::atomic<uint64_t> requests_served_{0};
  std::thread accept_thread_;
};

}  // namespace kbqa::serve

#endif  // KBQA_SERVE_EXPOSITION_H_
