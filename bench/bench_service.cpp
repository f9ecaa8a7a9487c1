// bench_service: replay a synthetic request log against the placement
// service at N simulated clients and report p50/p99 latency and throughput.
//
// Two transports share the same deterministic log:
//   --mode inproc  call PlacementService::handle_text directly (default:
//                  measures the service engine + SweepCache, no sockets)
//   --mode http    full loopback HTTP round-trips; targets an external
//                  daemon with --port (CI's service-smoke job) or a
//                  self-hosted HttpServer otherwise
//
// Clients are *simulated*: a fixed pool of driver threads interleaves the
// per-client request sequences, so `--clients 10000` exercises 10k distinct
// request streams without 10k OS threads. The log mix (placement / what-if /
// sweep / stats) is a pure function of (client, request index) — every run
// replays the identical log.
//
// The default run is deliberately small: the measurement harness executes
// every binary in build/bench/ with no arguments. Scale it up with
// --clients/--requests, or gate CI with --check-p99-ms / zero-error
// enforcement; tracked throughput numbers come from perfbench.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/fault/fault_injection.hpp"
#include "report/sweep.hpp"
#include "repro/json.hpp"
#include "service/http.hpp"
#include "service/recovery.hpp"
#include "service/service.hpp"

namespace {

using knl::repro::json::Value;

struct BenchOptions {
  std::size_t clients = 200;
  std::size_t requests = 1000;  ///< total, spread across the clients
  std::string mode = "inproc";
  std::uint16_t port = 0;  ///< http mode: external daemon; 0 = self-host
  int drivers = 0;         ///< driver threads; 0 = min(hw, 32)
  std::string out;         ///< write the JSON report here ("" = stdout only)
  double check_p99_ms = 0.0;  ///< > 0: exit 1 when p99 exceeds this bound
  bool check_errors = false;  ///< exit 1 on any non-2xx except 429
  /// Chaos pass (http mode): a KNL_FAULT_PLAN-grammar plan interpreted
  /// *client-side* — http-read selects requests sent as socket-level chaos
  /// (torn frames, malformed JSON, oversized bodies), slow-client selects
  /// requests trickled out in stalled slices. The server stays unfaulted,
  /// so any reset seen by a healthy request is the server's fault.
  std::string chaos_plan;
  double check_chaos_ratio = 0.0;  ///< > 0: healthy p99 <= ratio * baseline p99
  /// Kill-and-restart drill (needs the in-process engine: inproc mode or
  /// self-hosted http): run the log, snapshot to this path, wipe the cache
  /// (the "kill"), recover from the snapshot and rerun.
  std::string restart_drill;
  double check_recovery = 0.0;  ///< > 0: post/pre hit-rate ratio bound
};

/// SplitMix64: the deterministic request-log generator.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

const char* kWorkloads[] = {"STREAM", "GUPS", "DGEMM", "MiniFE", "XSBench",
                            "Graph500"};
const char* kConfigs[] = {"DRAM", "HBM", "Cache Mode"};

struct Request {
  std::string method;
  std::string target;
  std::string body;
};

/// The synthetic log: (client, index) -> request. Footprints are drawn from
/// a small palette so the run settles into a realistic cache-hit regime
/// while still forcing misses early on.
Request synth_request(std::uint64_t client, std::uint64_t index) {
  const std::uint64_t r = mix64(client * 0x100000001b3ull + index);
  const std::uint64_t kind = r % 100;
  const std::uint64_t bytes = (64ull + 64ull * ((r >> 8) % 24)) << 20;  // 64MiB..1.5GiB
  const char* workload = kWorkloads[(r >> 16) % 6];
  const int threads = static_cast<int>(16u << ((r >> 24) % 4));  // 16..128

  if (kind < 40) {
    Value body = Value::object();
    body.set("name", "bench-app");
    body.set("footprint_bytes", static_cast<double>(bytes));
    body.set("regular_fraction", static_cast<double>((r >> 32) % 101) / 100.0);
    body.set("flops_per_byte", static_cast<double>((r >> 40) % 8));
    return {"POST", "/placement", body.dump(0)};
  }
  if (kind < 80) {
    Value body = Value::object();
    body.set("workload", workload);
    body.set("bytes", static_cast<double>(bytes));
    body.set("threads", threads);
    body.set("config", kConfigs[(r >> 48) % 3]);
    return {"POST", "/whatif", body.dump(0)};
  }
  if (kind < 90) {
    Value body = Value::object();
    body.set("workload", workload);
    body.set("threads", threads);
    Value sizes = Value::array();
    for (int i = 0; i < 3; ++i) {
      sizes.push_back(static_cast<double>(
          (128ull + 128ull * (static_cast<std::uint64_t>(i) + (r >> 52) % 3)) << 20));
    }
    body.set("sizes_bytes", std::move(sizes));
    return {"POST", "/sweep", body.dump(0)};
  }
  if (kind < 99) return {"GET", "/stats", ""};
  return {"GET", "/healthz", ""};
}

std::string request_wire(const Request& request) {
  std::string wire = request.method + " " + request.target + " HTTP/1.1\r\n";
  wire += "Host: 127.0.0.1\r\nConnection: close\r\n";
  wire += "Content-Length: " + std::to_string(request.body.size()) + "\r\n\r\n";
  wire += request.body;
  return wire;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_exact(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, 0);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

int read_status(int fd) {
  std::string reply;
  char chunk[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  // "HTTP/1.1 NNN ..."
  if (reply.size() < 12 || reply.compare(0, 9, "HTTP/1.1 ") != 0) return 0;
  return std::stoi(reply.substr(9, 3));
}

/// Send `wire` in `slices` pieces with `stall_ms` pauses (slices <= 1 sends
/// it whole), then read the status line. 0 = no parseable response,
/// -1 = connection failure before the request was fully sent.
int http_send(std::uint16_t port, const std::string& wire, int slices,
              int stall_ms) {
  const int fd = connect_loopback(port);
  if (fd < 0) return -1;
  if (slices <= 1) {
    if (!send_exact(fd, wire.data(), wire.size())) {
      ::close(fd);
      return -1;
    }
  } else {
    const std::size_t step =
        std::max<std::size_t>(1, wire.size() / static_cast<std::size_t>(slices));
    for (std::size_t at = 0; at < wire.size(); at += step) {
      const std::size_t len = std::min(step, wire.size() - at);
      if (!send_exact(fd, wire.data() + at, len)) {
        ::close(fd);
        return -1;
      }
      if (at + len < wire.size()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
      }
    }
  }
  const int status = read_status(fd);
  ::close(fd);
  return status;
}

/// Minimal loopback HTTP client: one connection per request (no keep-alive
/// bookkeeping; measures the full accept/parse/respond path).
int http_round_trip(std::uint16_t port, const Request& request) {
  return http_send(port, request_wire(request), 1, 0);
}

/// Pure client-side plan selection, deterministic in (seed, site, key) like
/// the server-side injector but independent of it: the bench never arms the
/// process-wide FaultInjector, so a self-hosted server stays unfaulted.
bool plan_selects(const knl::fault::FaultPlan& plan, std::string_view site,
                  std::uint64_t key) {
  for (const knl::fault::FaultSite& clause : plan.sites) {
    if (clause.site != site) continue;
    if (clause.key >= 0) {
      if (static_cast<std::uint64_t>(clause.key) == key) return true;
      continue;
    }
    if (clause.rate > 0.0) {
      const std::uint64_t h =
          mix64(plan.seed ^ knl::fault::site_key(site) ^
                (key * 0x9e3779b97f4a7c15ull));
      if (static_cast<double>(h >> 11) * 0x1.0p-53 < clause.rate) return true;
      continue;
    }
    if (clause.every > 0 && key % clause.every == 0) return true;
  }
  return false;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

bool parse_size(const std::string& text, std::size_t& out) {
  try {
    std::size_t consumed = 0;
    const long long v = std::stoll(text, &consumed);
    if (consumed != text.size() || v < 0) return false;
    out = static_cast<std::size_t>(v);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto value = [&]() -> const std::string* {
      if (i + 1 >= args.size()) {
        std::cerr << "bench_service: " << arg << " needs a value\n";
        return nullptr;
      }
      return &args[++i];
    };
    std::size_t n = 0;
    if (arg == "--clients") {
      const std::string* v = value();
      if (v == nullptr || !parse_size(*v, n) || n == 0) return 2;
      options.clients = n;
    } else if (arg == "--requests") {
      const std::string* v = value();
      if (v == nullptr || !parse_size(*v, n) || n == 0) return 2;
      options.requests = n;
    } else if (arg == "--mode") {
      const std::string* v = value();
      if (v == nullptr || (*v != "inproc" && *v != "http")) return 2;
      options.mode = *v;
    } else if (arg == "--port") {
      const std::string* v = value();
      if (v == nullptr || !parse_size(*v, n) || n > 65535) return 2;
      options.port = static_cast<std::uint16_t>(n);
    } else if (arg == "--drivers") {
      const std::string* v = value();
      if (v == nullptr || !parse_size(*v, n)) return 2;
      options.drivers = static_cast<int>(n);
    } else if (arg == "--out") {
      const std::string* v = value();
      if (v == nullptr) return 2;
      options.out = *v;
    } else if (arg == "--check-p99-ms") {
      const std::string* v = value();
      if (v == nullptr) return 2;
      options.check_p99_ms = std::stod(*v);
      options.check_errors = true;
    } else if (arg == "--chaos-plan") {
      const std::string* v = value();
      if (v == nullptr) return 2;
      options.chaos_plan = *v;
    } else if (arg == "--check-chaos-ratio") {
      const std::string* v = value();
      if (v == nullptr) return 2;
      options.check_chaos_ratio = std::stod(*v);
    } else if (arg == "--restart-drill") {
      const std::string* v = value();
      if (v == nullptr) return 2;
      options.restart_drill = *v;
    } else if (arg == "--check-recovery") {
      const std::string* v = value();
      if (v == nullptr) return 2;
      options.check_recovery = std::stod(*v);
    } else {
      std::cerr << "bench_service: unknown option " << arg << "\n"
                << "usage: bench_service [--clients N] [--requests N]\n"
                << "       [--mode inproc|http] [--port P] [--drivers N]\n"
                << "       [--out FILE] [--check-p99-ms X]\n"
                << "       [--chaos-plan PLAN] [--check-chaos-ratio R]\n"
                << "       [--restart-drill FILE] [--check-recovery R]\n";
      return 2;
    }
  }

  if (!options.chaos_plan.empty() && options.mode != "http") {
    std::cerr << "bench_service: --chaos-plan requires --mode http\n";
    return 2;
  }
  if (!options.restart_drill.empty() && options.mode == "http" &&
      options.port != 0) {
    std::cerr << "bench_service: --restart-drill needs the in-process engine "
                 "(--mode inproc, or self-hosted http without --port)\n";
    return 2;
  }
  knl::fault::FaultPlan chaos;
  if (!options.chaos_plan.empty()) {
    try {
      chaos = knl::fault::FaultPlan::parse(options.chaos_plan);
    } catch (const std::exception& e) {
      std::cerr << "bench_service: bad --chaos-plan: " << e.what() << "\n";
      return 2;
    }
  }

  // Self-hosted engine (inproc mode and self-hosted http mode share it).
  knl::service::ServiceOptions service_options;
  service_options.max_inflight = 4096;
  std::optional<knl::service::PlacementService> service;
  std::optional<knl::service::HttpServer> server;
  std::uint16_t port = options.port;
  if (options.mode == "inproc" || port == 0) {
    service.emplace(service_options);
    if (options.mode == "http") {
      server.emplace(*service, knl::service::HttpServerOptions{});
      server->start();
      port = server->port();
    }
  }

  const int drivers =
      options.drivers > 0
          ? options.drivers
          : static_cast<int>(std::min(32u, std::max(2u, std::thread::hardware_concurrency())));

  // Per-request latencies, preallocated so drivers never contend on memory.
  std::vector<double> latencies_ms(options.requests, 0.0);
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::size_t> next{0};

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= options.requests) return;
      const std::uint64_t client = i % options.clients;
      const std::uint64_t index = i / options.clients;
      const Request request = synth_request(client, index);

      const auto start = std::chrono::steady_clock::now();
      int status = 0;
      if (options.mode == "inproc") {
        status = service->handle_text(request.method, request.target, request.body)
                     .status;
      } else {
        status = http_round_trip(port, request);
      }
      const auto stop = std::chrono::steady_clock::now();
      latencies_ms[i] =
          std::chrono::duration<double, std::milli>(stop - start).count();

      if (status == 200) {
        ok.fetch_add(1, std::memory_order_relaxed);
      } else if (status == 429) {
        shed.fetch_add(1, std::memory_order_relaxed);
      } else {
        failed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(drivers));
  for (int i = 0; i < drivers; ++i) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();

  std::vector<double> sorted = latencies_ms;
  std::sort(sorted.begin(), sorted.end());
  const double p50 = percentile(sorted, 0.50);
  const double p90 = percentile(sorted, 0.90);
  const double p99 = percentile(sorted, 0.99);
  const double qps =
      wall_seconds > 0.0 ? static_cast<double>(options.requests) / wall_seconds : 0.0;

  // -------------------------------------------------------------------------
  // Chaos pass: the run above is the fault-free baseline; now replay the
  // identical log with plan-selected requests replaced by socket-level
  // faults and measure what the *healthy* requests experienced.
  // -------------------------------------------------------------------------
  std::optional<Value> chaos_report;
  double healthy_p99_ratio = 0.0;
  std::uint64_t healthy_conn_failures = 0;
  std::uint64_t chaos_unexpected = 0;
  if (!options.chaos_plan.empty()) {
    std::vector<double> healthy_ms;
    healthy_ms.reserve(options.requests);
    std::mutex healthy_mutex;
    std::atomic<std::uint64_t> torn{0};
    std::atomic<std::uint64_t> malformed{0};
    std::atomic<std::uint64_t> oversized{0};
    std::atomic<std::uint64_t> slow{0};
    std::atomic<std::uint64_t> healthy_ok{0};
    std::atomic<std::uint64_t> healthy_shed{0};
    std::atomic<std::uint64_t> healthy_failed{0};
    std::atomic<std::uint64_t> unexpected{0};
    std::atomic<std::size_t> chaos_next{0};

    const auto chaos_worker = [&] {
      std::vector<double> local;
      for (;;) {
        const std::size_t i = chaos_next.fetch_add(1, std::memory_order_relaxed);
        if (i >= options.requests) break;
        const Request request =
            synth_request(i % options.clients, i / options.clients);
        if (plan_selects(chaos, knl::fault::kSiteHttpRead, i)) {
          const std::uint64_t variant = mix64(i) % 3;
          if (variant == 0) {
            // Torn frame: promise the full body, send part of it, vanish.
            const std::string wire = request_wire(request);
            const int fd = connect_loopback(port);
            if (fd >= 0) {
              const std::size_t cut = wire.size() - request.body.size() / 2 - 1;
              send_exact(fd, wire.data(), cut);
              ::close(fd);
            }
            torn.fetch_add(1, std::memory_order_relaxed);
          } else if (variant == 1) {
            // Malformed JSON: a well-framed request whose body is garbage;
            // the only acceptable answer is a taxonomy-shaped 400.
            Request bad = request;
            bad.method = "POST";
            bad.target = "/whatif";
            bad.body = "{\"workload\": \"STREAM\", broken";
            const int status = http_send(port, request_wire(bad), 1, 0);
            malformed.fetch_add(1, std::memory_order_relaxed);
            if (status != 400) unexpected.fetch_add(1, std::memory_order_relaxed);
          } else {
            // Oversized: a 16 MiB Content-Length must be refused as 413
            // from the header alone, before any body lands.
            std::string wire =
                request.method + " " + request.target + " HTTP/1.1\r\n";
            wire += "Host: 127.0.0.1\r\nConnection: close\r\n";
            wire += "Content-Length: " + std::to_string(16u << 20) + "\r\n\r\n";
            const int status = http_send(port, wire, 1, 0);
            oversized.fetch_add(1, std::memory_order_relaxed);
            if (status != 413) unexpected.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (plan_selects(chaos, knl::fault::kSiteSlowClient, i)) {
          // Slow client: the whole request trickles out in stalled slices,
          // pinning an acceptor thread for the duration.
          (void)http_send(port, request_wire(request), 4, 15);
          slow.fetch_add(1, std::memory_order_relaxed);
        } else {
          const auto start = std::chrono::steady_clock::now();
          const int status = http_round_trip(port, request);
          const auto stop = std::chrono::steady_clock::now();
          local.push_back(
              std::chrono::duration<double, std::milli>(stop - start).count());
          if (status == 200) {
            healthy_ok.fetch_add(1, std::memory_order_relaxed);
          } else if (status == 429) {
            healthy_shed.fetch_add(1, std::memory_order_relaxed);
          } else {
            // Includes resets and unparsable replies (status <= 0): a
            // healthy client must never eat another client's fault.
            healthy_failed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      const std::lock_guard<std::mutex> lock(healthy_mutex);
      healthy_ms.insert(healthy_ms.end(), local.begin(), local.end());
    };
    std::vector<std::thread> chaos_pool;
    chaos_pool.reserve(static_cast<std::size_t>(drivers));
    for (int i = 0; i < drivers; ++i) chaos_pool.emplace_back(chaos_worker);
    for (std::thread& t : chaos_pool) t.join();

    std::sort(healthy_ms.begin(), healthy_ms.end());
    const double healthy_p99 = percentile(healthy_ms, 0.99);
    healthy_p99_ratio = p99 > 0.0 ? healthy_p99 / p99 : 0.0;
    healthy_conn_failures = healthy_failed.load();
    chaos_unexpected = unexpected.load();

    Value chaos_json = Value::object();
    chaos_json.set("plan", chaos.to_string());
    chaos_json.set("baseline_p99_ms", p99);
    chaos_json.set("healthy_p99_ms", healthy_p99);
    chaos_json.set("healthy_p99_ratio", healthy_p99_ratio);
    Value injected = Value::object();
    injected.set("torn_frames", static_cast<double>(torn.load()));
    injected.set("malformed_json", static_cast<double>(malformed.load()));
    injected.set("oversized_bodies", static_cast<double>(oversized.load()));
    injected.set("slow_clients", static_cast<double>(slow.load()));
    chaos_json.set("injected", std::move(injected));
    Value healthy = Value::object();
    healthy.set("requests", static_cast<double>(healthy_ms.size()));
    healthy.set("ok", static_cast<double>(healthy_ok.load()));
    healthy.set("shed", static_cast<double>(healthy_shed.load()));
    healthy.set("failed", static_cast<double>(healthy_conn_failures));
    chaos_json.set("healthy", std::move(healthy));
    chaos_json.set("unexpected_fault_responses",
                   static_cast<double>(chaos_unexpected));
    chaos_report = std::move(chaos_json);
  }

  Value report = Value::object();
  report.set("benchmark", "bench_service");
  report.set("mode", options.mode);
  report.set("clients", static_cast<double>(options.clients));
  report.set("requests", static_cast<double>(options.requests));
  report.set("drivers", drivers);
  report.set("wall_seconds", wall_seconds);
  report.set("qps", qps);
  Value latency = Value::object();
  latency.set("p50_ms", p50);
  latency.set("p90_ms", p90);
  latency.set("p99_ms", p99);
  latency.set("max_ms", sorted.empty() ? 0.0 : sorted.back());
  report.set("latency", std::move(latency));
  Value responses = Value::object();
  responses.set("ok", static_cast<double>(ok.load()));
  responses.set("shed", static_cast<double>(shed.load()));
  responses.set("failed", static_cast<double>(failed.load()));
  report.set("responses", std::move(responses));
  if (chaos_report.has_value()) report.set("chaos", std::move(*chaos_report));
  if (service.has_value()) {
    // In-process run: the engine's own view (cache hit rate, shed count).
    const auto stats =
        service->handle("GET", "/stats", knl::repro::json::Value());
    report.set("service_stats", stats.body);
  }

  // -------------------------------------------------------------------------
  // Kill-and-restart drill: snapshot the warm cache, wipe it (the "kill"),
  // recover a fresh service from the snapshot and replay the identical log.
  // A working recovery path answers phase 2 mostly from the snapshot, so
  // the post-restart hit rate lands at or above the pre-kill one.
  // -------------------------------------------------------------------------
  knl::service::SnapshotLoad drill_outcome = knl::service::SnapshotLoad::Missing;
  double drill_recovery = 0.0;
  if (!options.restart_drill.empty() && service.has_value()) {
    // The drill replays through the engine directly; drain and drop any
    // self-hosted server first so no socket can observe the service across
    // the reset/re-emplace gap.
    if (server.has_value()) {
      server->stop();
      server.reset();
    }
    const auto hit_rate = [&service]() -> double {
      const auto stats =
          service->handle("GET", "/stats", knl::repro::json::Value());
      const Value* cache = stats.body.find("cache");
      const Value* rate = cache != nullptr ? cache->find("hit_rate") : nullptr;
      return rate != nullptr ? rate->as_number() : 0.0;
    };
    const double pre_hit_rate = hit_rate();
    std::string error;
    if (!knl::service::save_cache_snapshot(options.restart_drill, &error)) {
      std::cerr << "bench_service: snapshot failed: " << error << "\n";
      return 1;
    }
    const double entries_snapshotted =
        static_cast<double>(knl::report::SweepCache::instance().size());

    service.reset();
    knl::report::SweepCache::instance().clear();
    knl::report::SweepCache::instance().reset_stats();
    std::string detail;
    drill_outcome =
        knl::service::load_cache_snapshot(options.restart_drill, &detail);
    service.emplace(service_options);

    std::atomic<std::size_t> drill_next{0};
    const auto drill_worker = [&] {
      for (;;) {
        const std::size_t i = drill_next.fetch_add(1, std::memory_order_relaxed);
        if (i >= options.requests) return;
        const Request request =
            synth_request(i % options.clients, i / options.clients);
        (void)service->handle_text(request.method, request.target, request.body);
      }
    };
    std::vector<std::thread> drill_pool;
    drill_pool.reserve(static_cast<std::size_t>(drivers));
    for (int i = 0; i < drivers; ++i) drill_pool.emplace_back(drill_worker);
    for (std::thread& t : drill_pool) t.join();

    const double post_hit_rate = hit_rate();
    drill_recovery = pre_hit_rate > 0.0 ? post_hit_rate / pre_hit_rate : 0.0;

    Value drill = Value::object();
    drill.set("snapshot_path", options.restart_drill);
    drill.set("snapshot_outcome", knl::service::to_string(drill_outcome));
    drill.set("snapshot_detail", detail);
    drill.set("entries_snapshotted", entries_snapshotted);
    drill.set("pre_kill_hit_rate", pre_hit_rate);
    drill.set("post_restart_hit_rate", post_hit_rate);
    drill.set("recovery_ratio", drill_recovery);
    report.set("restart_drill", std::move(drill));
  }

  const std::string text = report.dump(2) + "\n";
  std::cout << text;
  if (!options.out.empty()) {
    std::ofstream out(options.out);
    out << text;
    if (!out) {
      std::cerr << "bench_service: cannot write " << options.out << "\n";
      return 2;
    }
  }

  if (server.has_value()) server->stop();

  if (options.check_errors && failed.load() > 0) {
    std::cerr << "bench_service: " << failed.load() << " failed responses\n";
    return 1;
  }
  if (options.check_p99_ms > 0.0 && p99 > options.check_p99_ms) {
    std::cerr << "bench_service: p99 " << p99 << " ms exceeds bound "
              << options.check_p99_ms << " ms\n";
    return 1;
  }
  if (options.check_chaos_ratio > 0.0) {
    if (healthy_conn_failures > 0) {
      std::cerr << "bench_service: " << healthy_conn_failures
                << " healthy requests saw resets or unparsable replies under "
                   "chaos\n";
      return 1;
    }
    if (chaos_unexpected > 0) {
      std::cerr << "bench_service: " << chaos_unexpected
                << " injected faults drew the wrong response code\n";
      return 1;
    }
    if (healthy_p99_ratio > options.check_chaos_ratio) {
      std::cerr << "bench_service: healthy p99 ratio " << healthy_p99_ratio
                << " exceeds bound " << options.check_chaos_ratio << "\n";
      return 1;
    }
  }
  if (options.check_recovery > 0.0) {
    if (drill_outcome != knl::service::SnapshotLoad::Recovered) {
      std::cerr << "bench_service: restart drill snapshot was not recovered ("
                << knl::service::to_string(drill_outcome) << ")\n";
      return 1;
    }
    if (drill_recovery < options.check_recovery) {
      std::cerr << "bench_service: recovery ratio " << drill_recovery
                << " below bound " << options.check_recovery << "\n";
      return 1;
    }
  }
  return 0;
}
