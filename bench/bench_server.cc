// End-to-end HTTP service throughput (EXPERIMENTS.md E18): an
// in-process HttpServer + SqlnfService loaded with the contractor
// replica, hammered by 16 keep-alive loopback connections issuing
// read-only /query POSTs, with the server worker pool swept over
// {1, 4}. Each request exercises the full stack — socket framing,
// JSON body parse, snapshot-routed execution, ResultSet JSON render —
// so the numbers measure the service, not just the engine.
//
// Emits BENCH_server.json: one record per worker count with aggregate
// requests/sec and p50/p99 latency. Shape checks (always on): zero
// transport or HTTP errors, every body carries "ok":true, and the
// row count in each response matches the contractor table. Scaling
// gate: with >= 4 hardware threads, 4 workers must serve >= 2x the
// requests/sec of 1 worker — the snapshot read path has no shared
// lock, so worker threads must scale (ISSUE acceptance criterion).
// `--check` runs the same sweep on a shorter clock for CI.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "sqlnf/core/table.h"
#include "sqlnf/datagen/lmrp.h"
#include "sqlnf/engine/catalog.h"
#include "sqlnf/engine/session.h"
#include "sqlnf/net/client.h"
#include "sqlnf/net/server.h"
#include "sqlnf/net/service.h"

namespace sqlnf::bench {
namespace {

constexpr int kConnections = 16;
constexpr int kWorkerCounts[] = {1, 4};

struct BenchRecord {
  int workers = 0;
  int connections = 0;
  int64_t requests = 0;
  double requests_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
};

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct ClientResult {
  std::vector<double> latencies_us;
  int64_t requests = 0;
};

// One client: a keep-alive connection looping the same read-only
// /query until `stop`. The SELECT returns the whole contractor table,
// so every round trip pays for a 173-row x 22-column JSON render on
// the server side — the cost we want the worker pool to parallelize.
void ClientLoop(int port, int expect_rows, std::atomic<bool>* stop,
                std::atomic<int>* failures, ClientResult* out) {
  Result<HttpConnection> conn = HttpConnection::Open(port);
  if (!conn.ok()) {
    failures->fetch_add(1);
    return;
  }
  const std::string body = R"({"sql":"SELECT * FROM contractor;"})";
  const std::string rows_marker =
      "\"affected\":" + std::to_string(expect_rows);
  while (!stop->load(std::memory_order_relaxed)) {
    auto start = std::chrono::steady_clock::now();
    Result<HttpClientResponse> r = conn->Post("/query", body);
    if (!r.ok() || r->status != 200 ||
        r->body.find("\"ok\":true") == std::string::npos ||
        r->body.find(rows_marker) == std::string::npos) {
      failures->fetch_add(1);
      return;
    }
    out->latencies_us.push_back(MicrosSince(start));
    ++out->requests;
  }
}

void WriteJson(const std::vector<BenchRecord>& records) {
  std::FILE* f = std::fopen("BENCH_server.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "WARN could not open BENCH_server.json\n");
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f,
                 "  {\"op\": \"http_query_select\", \"workers\": %d, "
                 "\"connections\": %d, \"requests\": %lld, "
                 "\"requests_per_sec\": %.1f, \"p50_us\": %.2f, "
                 "\"p99_us\": %.2f}%s\n",
                 r.workers, r.connections,
                 static_cast<long long>(r.requests), r.requests_per_sec,
                 r.p50_us, r.p99_us, i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote BENCH_server.json (%zu records)\n",
               records.size());
}

int Run(double run_ms) {
  // One database serves every sweep point: the workload is read-only,
  // so reusing it just means every config reads the same snapshot.
  Database db;
  Table contractor = ValueOrDie(Contractor(), "Contractor");
  {
    WriterScope writer;  // main thread, before the server exists
    CheckOk(db.IngestTable(contractor, ConstraintSet()), "IngestTable");
  }
  const int expect_rows = contractor.num_rows();
  SessionRegistry registry(&db);
  SqlnfService service(&registry);

  std::vector<BenchRecord> records;
  std::printf("%-18s %8s %12s %14s %10s %10s\n", "op", "workers", "conns",
              "req/sec", "p50(us)", "p99(us)");

  for (int workers : kWorkerCounts) {
    HttpServerOptions options;
    options.workers = workers;
    HttpServer server(
        [&service](const HttpRequest& r) { return service.Handle(r); },
        options);
    CheckOk(server.Start(), "HttpServer::Start");

    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};
    std::vector<ClientResult> results(kConnections);
    std::vector<std::thread> clients;
    clients.reserve(kConnections);
    for (int c = 0; c < kConnections; ++c) {
      clients.emplace_back(ClientLoop, server.port(), expect_rows, &stop,
                           &failures, &results[c]);
    }
    auto start = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int>(run_ms)));
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : clients) t.join();
    double elapsed_s = MicrosSince(start) / 1e6;
    server.Stop();

    if (failures.load() != 0) {
      std::fprintf(stderr, "FAIL %d client errors at %d workers\n",
                   failures.load(), workers);
      return 1;
    }

    std::vector<double> latencies;
    int64_t requests = 0;
    for (ClientResult& cr : results) {
      requests += cr.requests;
      latencies.insert(latencies.end(), cr.latencies_us.begin(),
                       cr.latencies_us.end());
    }
    if (requests == 0) {
      std::fprintf(stderr, "FAIL no requests completed at %d workers\n",
                   workers);
      return 1;
    }

    BenchRecord rec{workers, kConnections, requests,
                    static_cast<double>(requests) / elapsed_s,
                    Percentile(&latencies, 0.50),
                    Percentile(&latencies, 0.99)};
    std::printf("%-18s %8d %12d %14.1f %10.2f %10.2f\n",
                "http_query_select", rec.workers, rec.connections,
                rec.requests_per_sec, rec.p50_us, rec.p99_us);
    records.push_back(rec);
  }

  // Scaling gate: reads route through SnapshotAll (no writer mutex),
  // so with real cores a 4-worker pool must at least double 1-worker
  // throughput. Skipped on tiny machines, where the 16 client threads
  // and the workers fight for the same core.
  unsigned hw = std::thread::hardware_concurrency();
  if (hw >= 4 && records.size() >= 2 &&
      records[1].requests_per_sec < 2.0 * records[0].requests_per_sec) {
    std::fprintf(stderr,
                 "FAIL no worker scaling on %u cores: 1w=%.0f/s 4w=%.0f/s\n",
                 hw, records[0].requests_per_sec,
                 records[1].requests_per_sec);
    return 1;
  }
  if (hw < 4) {
    std::printf("(scaling gate skipped: hardware_concurrency=%u)\n", hw);
  }

  WriteJson(records);
  std::printf("OK\n");
  return 0;
}

}  // namespace
}  // namespace sqlnf::bench

int main(int argc, char** argv) {
  // --check: the CI entry point — same sweep and gates, shorter clock.
  const bool check =
      argc > 1 && std::strcmp(argv[1], "--check") == 0;
  return sqlnf::bench::Run(check ? 300.0 : 1500.0);
}
