// End-to-end half: spawns the shipped `sqlnf serve`, loads the dataset
// through POST /query, and drives one workload's light and heavy
// streams as two closed-loop keep-alive connections, checking every
// answer with the oracle.

#include "bench.h"

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "sqlnf/net/client.h"

extern char** environ;

namespace frontbench {
namespace {

using Clock = std::chrono::steady_clock;

// A run is spread over this many servers (see RunServe), and each
// stream warms up on each of them for this long and at least this many
// requests before measuring.
constexpr int kServers = 2;
constexpr auto kWarmup = std::chrono::milliseconds(500);
constexpr int kMinWarmups = 3;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// Linear interpolation between closest ranks.
double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = p * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double sum = 0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

// One `sqlnf serve --port 0` child. The destructor stops it with
// SIGTERM and reaps it, so no path leaves a server behind.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  bool Start(const std::string& binary) {
    int fds[2];
    if (pipe(fds) != 0) return false;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::vector<std::string> args = {binary,      "serve",     "--port",
                                     "0",         "--workers", "2",
                                     "--threads", "1"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    out_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      return false;
    }
    // The server prints "serving on http://127.0.0.1:<port> ..." once
    // it listens; EOF first means it died.
    std::string line;
    char c = 0;
    while (read(out_, &c, 1) == 1) {
      if (c != '\n') {
        line += c;
        continue;
      }
      const size_t at = line.find("127.0.0.1:");
      if (at != std::string::npos) {
        port_ = std::atoi(line.c_str() + at + 10);
        return port_ > 0;
      }
      line.clear();
    }
    return false;
  }

  int port() const { return port_; }

  // Peak resident set (VmHWM) in MiB, or -1.
  double PeakRssMb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (status >> key) {
      if (key == "VmHWM:") {
        double kb = -1;
        status >> kb;
        return kb / 1024.0;
      }
    }
    return -1;
  }

  void Stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int status = 0;
      while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      pid_ = -1;
    }
    if (out_ >= 0) {
      close(out_);
      out_ = -1;
    }
  }

 private:
  pid_t pid_ = -1;
  int out_ = -1;
  int port_ = 0;
};

bool PostOk(sqlnf::HttpConnection* conn, const std::string& body,
            std::string* why) {
  sqlnf::Result<sqlnf::HttpClientResponse> r = conn->Post("/query", body);
  if (!r.ok()) {
    *why = r.status().ToString();
    return false;
  }
  if (r->status != 200 || r->body.rfind("{\"ok\":true", 0) != 0) {
    *why = "HTTP " + std::to_string(r->status) + " " + r->body.substr(0, 300);
    return false;
  }
  return true;
}

// Spawns a server and loads every table over `conn`; returns seconds
// from spawn to the last acknowledged batch, or < 0 on failure.
double Setup(const std::string& binary, const std::vector<std::string>& load,
             ServerProcess* server,
             std::optional<sqlnf::HttpConnection>* conn) {
  const Clock::time_point start = Clock::now();
  if (!server->Start(binary)) {
    std::fprintf(stderr, "setup: could not start %s\n", binary.c_str());
    return -1;
  }
  sqlnf::Result<sqlnf::HttpConnection> opened =
      sqlnf::HttpConnection::Open(server->port());
  if (!opened.ok()) {
    std::fprintf(stderr, "setup: %s\n", opened.status().ToString().c_str());
    return -1;
  }
  conn->emplace(std::move(*opened));
  std::string why;
  for (const std::string& body : load) {
    if (!PostOk(&**conn, body, &why)) {
      std::fprintf(stderr, "setup: load batch failed: %s\n", why.c_str());
      return -1;
    }
  }
  return Seconds(Clock::now() - start);
}

struct StreamResult {
  std::vector<double> latencies_ms;  // measured window only
  int64_t attempted = 0;             // warm-up included
  int64_t failed = 0;
  std::string first_failure;
};

// A closed loop over `conn`: the next request goes out only after the
// previous reply. Requests that start before `measure_from` are warm-up.
void RunStream(sqlnf::HttpConnection* conn, Stream* stream,
               Clock::time_point measure_from, Clock::time_point until,
               StreamResult* out) {
  int warmups = 0;
  for (;;) {
    const Request request = stream->Next();
    std::this_thread::sleep_for(std::chrono::microseconds(request.think_us));
    const Clock::time_point t0 = Clock::now();
    const bool warmup = t0 < measure_from || warmups < kMinWarmups;
    if (!warmup && t0 >= until) break;
    sqlnf::Result<sqlnf::HttpClientResponse> r =
        conn->Post(request.path, request.body);
    const Clock::time_point t1 = Clock::now();
    ++out->attempted;
    std::string why;
    const bool ok = r.ok() ? CheckResponse(request, r->status, r->body, &why)
                           : (why = r.status().ToString(), false);
    if (!ok) {
      ++out->failed;
      if (out->first_failure.empty()) out->first_failure = why;
      if (!r.ok()) return;  // connection gone
    }
    if (warmup) {
      ++warmups;
    } else {
      out->latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
  }
}

}  // namespace

int RunServe(const Options& options, const Dataset& data, Outcome* result) {
  std::vector<std::string> load = {QueryBody(data.create_sql)};
  for (const std::string& batch : InsertBatches(data, 512 * 1024)) {
    load.push_back(QueryBody(batch));
  }

  // The run is split over several servers, each loaded from scratch and
  // then measured for an equal share of the run, so that setup_s is a
  // median of several loads. Latencies are pooled over the servers;
  // setup_s and mem_mb are medians over them.
  std::vector<double> setups, mems;
  StreamResult light_result, heavy_result;
  const auto share = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(options.seconds / kServers));
  for (int i = 0; i < kServers; ++i) {
    ServerProcess server;
    std::optional<sqlnf::HttpConnection> heavy_conn;
    const double s = Setup(options.server, load, &server, &heavy_conn);
    if (s < 0) return 1;
    setups.push_back(s);
    // The heavy stream keeps the load connection, so it stays on the
    // worker that did the load and the light stream gets the other one.
    // Left to accept order, the pairing changes from server to server
    // and, with it, which heap the heavy requests allocate from.
    sqlnf::Result<sqlnf::HttpConnection> light_conn =
        sqlnf::HttpConnection::Open(server.port());
    if (!light_conn.ok()) {
      std::fprintf(stderr, "connect: %s\n",
                   light_conn.status().ToString().c_str());
      return 1;
    }

    // Each server starts from the loaded state, so each gets fresh
    // streams (the rw writer's oracle tracks what it wrote).
    const uint64_t seed = options.seed * 16 + static_cast<uint64_t>(i);
    Stream light(&data, options.workload, StreamKind::kLight, seed);
    Stream heavy(&data, options.workload, StreamKind::kHeavy, seed);
    const Clock::time_point measure_from = Clock::now() + kWarmup;
    const Clock::time_point until = measure_from + share;
    const size_t light_before = light_result.latencies_ms.size();
    const size_t heavy_before = heavy_result.latencies_ms.size();
    std::thread heavy_thread(RunStream, &*heavy_conn, &heavy, measure_from,
                             until, &heavy_result);
    RunStream(&*light_conn, &light, measure_from, until, &light_result);
    heavy_thread.join();
    mems.push_back(server.PeakRssMb());
    auto segment_mean = [](const StreamResult& r, size_t from) {
      return Mean({r.latencies_ms.begin() + from, r.latencies_ms.end()});
    };
    std::fprintf(stderr,
                 "server %d: setup %.3f s, peak rss %.1f MiB, mean light "
                 "%.3f ms heavy %.3f ms\n",
                 i, s, mems.back(), segment_mean(light_result, light_before),
                 segment_mean(heavy_result, heavy_before));
  }

  for (const StreamResult* s : {&light_result, &heavy_result}) {
    if (!s->first_failure.empty()) {
      std::fprintf(stderr, "oracle: %s\n", s->first_failure.c_str());
    }
  }
  result->attempted = light_result.attempted + heavy_result.attempted;
  result->failed = light_result.failed + heavy_result.failed;
  const double ok_frac =
      result->attempted == 0
          ? 0
          : 1.0 - static_cast<double>(result->failed) /
                      static_cast<double>(result->attempted);
  std::printf("samples: light=%zu heavy=%zu over %d servers (%.1f s)\n",
              light_result.latencies_ms.size(),
              heavy_result.latencies_ms.size(), kServers,
              options.seconds);
  // The centre is the mean, not the median. On a shared host each vCPU
  // runs at one of a few speeds for seconds at a time, so a stream's
  // latencies are a mixture of modes whose shares change from run to
  // run; the median jumps between modes as the shares cross one half,
  // while the mean moves in proportion to them.
  result->metrics = {
      {"setup_s", Percentile(setups, 0.5), "s"},
      {"mem_mb", Percentile(mems, 0.5), "MiB"},
      {"light_mean_ms", Mean(light_result.latencies_ms), "ms"},
      {"light_p90_ms", Percentile(light_result.latencies_ms, 0.9), "ms"},
      {"heavy_mean_ms", Mean(heavy_result.latencies_ms), "ms"},
      {"heavy_p90_ms", Percentile(heavy_result.latencies_ms, 0.9), "ms"},
      {"ok_frac", ok_frac, "frac"},
  };
  return 0;
}

}  // namespace frontbench
