#include "serve/exposition.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/wide_event.h"

namespace kbqa::serve {

namespace {

constexpr size_t kMaxRequestBytes = 4096;

/// How long one connection may take from accept to the last byte of its
/// response. The accept thread serves connections one at a time, so this
/// bounds how long an idle, trickling or never-reading client can hold up
/// every later scrape.
constexpr std::chrono::seconds kConnectionDeadline{2};

using Deadline = std::optional<std::chrono::steady_clock::time_point>;

/// Waits until `fd` is ready for `events` (true), or until the wake pipe
/// fires or `deadline` passes (false). No deadline waits indefinitely.
bool WaitReady(int fd, short events, int wake_fd, Deadline deadline) {
  for (;;) {
    int timeout_ms = -1;
    if (deadline) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          *deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return false;
      timeout_ms = static_cast<int>(left.count());
    }
    pollfd fds[2] = {{fd, events, 0}, {wake_fd, POLLIN, 0}};
    const int n = ::poll(fds, 2, timeout_ms);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0 || fds[1].revents != 0) return false;
    // Ready, or POLLHUP/POLLERR that the following call reports.
    return true;
  }
}

/// Current process resident-set size in bytes (Linux /proc/self/statm;
/// 0 where unavailable).
uint64_t ProcessResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size_pages = 0;     // NOLINT(runtime/int)
  unsigned long long resident_pages = 0; // NOLINT(runtime/int)
  const int matched =
      std::fscanf(f, "%llu %llu", &size_pages, &resident_pages);
  std::fclose(f);
  if (matched != 2) return 0;
  const long page = sysconf(_SC_PAGESIZE);  // NOLINT(runtime/int)
  if (page <= 0) return 0;
  return resident_pages * static_cast<uint64_t>(page);
}

std::string KvLine(const char* key, const std::string& value) {
  std::string out = key;
  out += ": ";
  out += value;
  out += '\n';
  return out;
}

/// Splits "path?query" and returns the value of `key` in the query string
/// ("" when absent). Queries here are simple k=v&k=v lists.
std::string QueryParam(const std::string& path_and_query,
                       const std::string& key) {
  const size_t qmark = path_and_query.find('?');
  if (qmark == std::string::npos) return "";
  std::string query = path_and_query.substr(qmark + 1);
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(pos, amp - pos);
    const size_t eq = pair.find('=');
    if (eq != std::string::npos && pair.substr(0, eq) == key) {
      return pair.substr(eq + 1);
    }
    pos = amp + 1;
  }
  return "";
}

std::string RenderIndex() {
  return "kbqa exposition endpoints:\n"
         "  /metricsz        metrics registry (text; ?format=json)\n"
         "  /statusz         build info, uptime, process RSS\n"
         "  /eventz          recent wide events as JSONL (?n=K)\n"
         "  /slo             SLO burn-rate evaluation (JSON)\n";
}

std::string RenderMetricsz(const std::string& path_and_query) {
  if (QueryParam(path_and_query, "format") == "json") {
    return obs::MetricsRegistry::Global().Snapshot().ToJson();
  }
  std::ostringstream os;
  obs::RenderMetricsTable(obs::MetricsRegistry::Global().Snapshot(), os);
  return os.str();
}

uint64_t StartSteadyNs() {
  static const uint64_t kStart = obs::NowSteadyNs();
  return kStart;
}

std::string RenderStatusz(const ExpositionOptions& options) {
  std::string out;
  out += KvLine("build.compiler", __VERSION__);
#ifdef NDEBUG
  out += KvLine("build.mode", "release");
#else
  out += KvLine("build.mode", "debug");
#endif
  out += KvLine("obs.enabled", obs::Enabled() ? "true" : "false");
  out += KvLine("pid", std::to_string(getpid()));
  const uint64_t uptime_ns = obs::NowSteadyNs() - StartSteadyNs();
  out += KvLine("uptime_s", std::to_string(uptime_ns / 1'000'000'000ull));
  out += KvLine("process.resident_bytes",
                std::to_string(ProcessResidentBytes()));
  out += KvLine("wide_events.recorded",
                std::to_string(obs::WideEvents::TotalRecorded()));
  out += KvLine("wide_events.dropped",
                std::to_string(obs::WideEvents::Dropped()));
  out += KvLine("wide_events.sample_period",
                std::to_string(obs::WideEvents::SamplePeriod()));
  if (options.statusz_extra) options.statusz_extra(&out);
  return out;
}

std::string RenderEventz(const std::string& path_and_query) {
  size_t n = 100;
  const std::string n_param = QueryParam(path_and_query, "n");
  if (!n_param.empty()) {
    n = static_cast<size_t>(std::strtoull(n_param.c_str(), nullptr, 10));
    if (n == 0) n = 1;
    if (n > obs::WideEvents::kRingCapacity) {
      n = obs::WideEvents::kRingCapacity;
    }
  }
  std::string out;
  for (const obs::WideEvent& event : obs::WideEvents::Recent(n)) {
    out += event.ToJsonLine();
    out += '\n';
  }
  return out;
}

std::string RenderSlo(const obs::SloMonitor& slo) {
  const obs::SloEvaluation eval = slo.PublishGauges(obs::NowSteadyNs());
  std::ostringstream os;
  os << "{\"availability_target\":" << slo.spec().availability_target
     << ",\"latency_threshold_ns\":" << slo.spec().latency_threshold_ns
     << ",\"short_window_s\":" << slo.spec().short_window_s
     << ",\"long_window_s\":" << slo.spec().long_window_s
     << ",\"burn_rate_threshold\":" << slo.spec().burn_rate_threshold
     << ",\"short_burn_rate\":" << eval.short_burn_rate
     << ",\"long_burn_rate\":" << eval.long_burn_rate
     << ",\"short_good\":" << eval.short_good
     << ",\"short_bad\":" << eval.short_bad
     << ",\"long_good\":" << eval.long_good
     << ",\"long_bad\":" << eval.long_bad
     << ",\"good_total\":" << slo.TotalGood()
     << ",\"bad_total\":" << slo.TotalBad()
     << ",\"firing\":" << (eval.firing ? "true" : "false") << "}";
  return os.str();
}

bool SendAll(int fd, const std::string& data, int wake_fd,
             Deadline deadline) {
  size_t sent = 0;
  while (sent < data.size()) {
    if (!WaitReady(fd, POLLOUT, wake_fd, deadline)) return false;
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      continue;
    }
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

std::string ExpositionServer::HandlePath(const ExpositionOptions& options,
                                         const std::string& path_and_query,
                                         int* status_out,
                                         std::string* content_type_out) {
  const size_t qmark = path_and_query.find('?');
  const std::string path = qmark == std::string::npos
                               ? path_and_query
                               : path_and_query.substr(0, qmark);
  *status_out = 200;
  *content_type_out = "text/plain; charset=utf-8";
  if (path == "/" || path == "/index" || path.empty()) {
    return RenderIndex();
  }
  if (path == "/metricsz") {
    if (QueryParam(path_and_query, "format") == "json") {
      *content_type_out = "application/json";
    }
    return RenderMetricsz(path_and_query);
  }
  if (path == "/statusz") {
    return RenderStatusz(options);
  }
  if (path == "/eventz") {
    *content_type_out = "application/jsonl";
    return RenderEventz(path_and_query);
  }
  if (path == "/slo") {
    if (options.slo == nullptr) {
      *status_out = 404;
      return "no SLO monitor attached\n";
    }
    *content_type_out = "application/json";
    return RenderSlo(*options.slo);
  }
  *status_out = 404;
  return "not found; see / for endpoints\n";
}

std::string ExpositionServer::ParseRequestPath(const std::string& request) {
  const size_t line_end = request.find_first_of("\r\n");
  const std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  if (line.rfind("GET ", 0) != 0) return "/";
  const size_t path_start = 4;
  const size_t path_end = line.find(' ', path_start);
  return line.substr(path_start, path_end == std::string::npos
                                     ? std::string::npos
                                     : path_end - path_start);
}

Result<std::unique_ptr<ExpositionServer>> ExpositionServer::Start(
    const ExpositionOptions& options) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable("exposition: socket() failed");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("exposition: bad bind address " +
                                   options.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::Unavailable("exposition: bind(" + options.bind_address +
                               ":" + std::to_string(options.port) +
                               ") failed: " + std::strerror(errno));
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return Status::Unavailable("exposition: listen() failed");
  }
  // Non-blocking, so an accept after a readiness poll never blocks on a
  // connection the client already abandoned. Accepted sockets stay
  // blocking: Linux does not inherit O_NONBLOCK through accept.
  int wake_fds[2];
  if (::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0 ||
      ::pipe(wake_fds) != 0) {
    ::close(fd);
    return Status::Unavailable("exposition: listener set-up failed");
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  int port = options.port;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    port = ntohs(bound.sin_port);
  }
  StartSteadyNs();  // pin the uptime epoch to server start
  return std::unique_ptr<ExpositionServer>(new ExpositionServer(
      options, fd, wake_fds, port));  // NOLINT(kbqa-naked-new)
}

ExpositionServer::ExpositionServer(const ExpositionOptions& options,
                                   int listen_fd, const int wake_fds[2],
                                   int port)
    : options_(options),
      listen_fd_(listen_fd),
      wake_read_fd_(wake_fds[0]),
      wake_write_fd_(wake_fds[1]),
      port_(port) {
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

ExpositionServer::~ExpositionServer() {
  ::close(wake_write_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(wake_read_fd_);
  ::close(listen_fd_);
}

void ExpositionServer::AcceptLoop() {
  while (WaitReady(listen_fd_, POLLIN, wake_read_fd_, std::nullopt)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
          errno == ECONNABORTED) {
        continue;
      }
      return;  // listener broken; nothing useful left to do
    }
    ServeConnection(fd);
    ::close(fd);
  }
}

void ExpositionServer::ServeConnection(int fd) {
  const Deadline deadline =
      std::chrono::steady_clock::now() + kConnectionDeadline;
  std::string request;
  char buf[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    // Idle past the deadline, or the server is stopping: drop the
    // connection unanswered.
    if (!WaitReady(fd, POLLIN, wake_read_fd_, deadline)) return;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
    // A bare "GET /path\n" (HTTP/0.9 style, what a raw-socket test or
    // netcat sends) has no header block; one line is a full request.
    if (request.find('\n') != std::string::npos) break;
  }
  const std::string path = ParseRequestPath(request);
  int status = 200;
  std::string content_type;
  const std::string body = HandlePath(options_, path, &status, &content_type);
  std::string response = "HTTP/1.0 ";
  response += status == 200 ? "200 OK" : "404 Not Found";
  response += "\r\nContent-Type: " + content_type;
  response += "\r\nContent-Length: " + std::to_string(body.size());
  response += "\r\nConnection: close\r\n\r\n";
  response += body;
  SendAll(fd, response, wake_read_fd_, deadline);
  requests_served_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace kbqa::serve
