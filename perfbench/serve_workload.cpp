// serve workload: a knl-serve engine (PlacementService + HttpServer) hosted
// in this process and driven over loopback HTTP with the bench_service
// request mix — 40% /placement, 40% /whatif, 10% /sweep, 9% /stats, 1%
// /healthz — drawn from the seed. Set-up warms the SweepCache with one pass
// of the log, so the timed phases see a long-running daemon: /whatif and
// /sweep are cache reads, /placement computes on every request.
//
// Two timed phases share the run:
//   closed loop  one keep-alive connection per hardware thread, each sending
//                its next request on reply: the throughput ceiling
//   open loop    the same connections at one fixed offered rate; latency is
//                timed from each request's due time, so a stall also counts
//                against the requests queued behind it
// After each window the engine also handles the log's first /placement and
// /whatif requests in process, one caller, a few times over: rounds of its
// HTTP-free latency.
// Every reply must be a 200 whose model field (best / result / figure)
// equals what the in-process engine returned for the same request.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "common.hpp"
#include "core/advisor.hpp"
#include "core/machine.hpp"
#include "report/sweep.hpp"
#include "repro/json.hpp"
#include "service/http.hpp"
#include "service/service.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

namespace {

using knl::repro::json::Value;

constexpr std::size_t kLogSize = 4000;
/// Window lengths of the alternating closed- and open-loop phases.
constexpr double kClosedWindowS = 1.0;
constexpr double kOpenWindowS = 2.0;
/// After each window, kInprocRounds rounds in which one caller hands the
/// log's first kInprocPerRound /placement and /whatif requests straight to
/// the engine: its latency without the HTTP front end. Every round takes the
/// same requests, so rounds differ only in host speed.
constexpr int kInprocRounds = 3;
constexpr std::size_t kInprocPerRound = 400;
/// Slack of the traced run's decomposition: per endpoint, the median
/// in-process handle must fit inside the median HTTP round trip within
/// 10% + 50 us.
constexpr double kSlackFraction = 0.10;
constexpr double kSlackUs = 50.0;

enum Endpoint : int { kPlacement = 0, kWhatif = 1, kSweep = 2, kStats = 3, kHealthz = 4 };
const char* const kEndpointNames[] = {"placement", "whatif", "sweep", "stats", "healthz"};

const char* const kWorkloads[] = {"STREAM", "GUPS",    "DGEMM",
                                  "MiniFE", "XSBench", "Graph500"};
const char* const kConfigs[] = {"DRAM", "HBM", "Cache Mode"};

struct Request {
  Endpoint endpoint = kStats;
  std::string method;
  std::string target;
  std::string body;
  std::string wire;      ///< the keep-alive HTTP/1.1 request bytes
  std::string expected;  ///< `"field": <dump>` the reply must contain
};

/// One request of the bench_service mix, keyed by (seed, index).
Request synth_request(std::uint64_t seed, std::uint64_t index, Endpoint endpoint) {
  const std::uint64_t r = mix64(mix64(seed) ^ (index * 0x100000001b3ull));
  const std::uint64_t bytes = (64ull + 64ull * ((r >> 8) % 24)) << 20;  // 64MiB..1.5GiB
  const char* workload = kWorkloads[(r >> 16) % 6];
  const int threads = static_cast<int>(16u << ((r >> 24) % 4));  // 16..128

  Request request;
  request.endpoint = endpoint;
  Value body = Value::object();
  if (endpoint == kPlacement) {
    body.set("name", "bench-app");
    body.set("footprint_bytes", static_cast<double>(bytes));
    body.set("regular_fraction", static_cast<double>((r >> 32) % 101) / 100.0);
    body.set("flops_per_byte", static_cast<double>((r >> 40) % 8));
  } else if (endpoint == kWhatif) {
    body.set("workload", workload);
    body.set("bytes", static_cast<double>(bytes));
    body.set("threads", threads);
    body.set("config", kConfigs[(r >> 48) % 3]);
  } else if (endpoint == kSweep) {
    body.set("workload", workload);
    body.set("threads", threads);
    Value sizes = Value::array();
    for (std::uint64_t i = 0; i < 3; ++i) {
      sizes.push_back(static_cast<double>((128ull + 128ull * (i + (r >> 52) % 3)) << 20));
    }
    body.set("sizes_bytes", std::move(sizes));
  }
  const bool post = request.endpoint <= kSweep;
  request.method = post ? "POST" : "GET";
  request.target = std::string("/") + kEndpointNames[request.endpoint];
  if (post) request.body = body.dump(0);
  request.wire = request.method + " " + request.target +
                 " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
                 std::to_string(request.body.size()) + "\r\n\r\n" + request.body;
  return request;
}

/// The log holds the mix in exact proportions: every block of 100 requests
/// is 40 /placement, 40 /whatif, 10 /sweep, 9 /stats and 1 /healthz, in an
/// order shuffled by the seed.
std::vector<Request> make_log(std::uint64_t seed) {
  std::vector<Endpoint> block;
  for (const auto& [endpoint, count] : {std::pair{kPlacement, 40}, {kWhatif, 40},
                                        {kSweep, 10}, {kStats, 9}, {kHealthz, 1}}) {
    block.insert(block.end(), static_cast<std::size_t>(count), endpoint);
  }
  std::vector<Request> log;
  log.reserve(kLogSize);
  for (std::uint64_t start = 0; start < kLogSize; start += block.size()) {
    for (std::size_t i = block.size() - 1; i > 0; --i) {
      std::swap(block[i], block[mix64(seed ^ (start + i)) % (i + 1)]);
    }
    for (std::size_t i = 0; i < block.size(); ++i) {
      log.push_back(synth_request(seed, start + i, block[i]));
    }
  }
  return log;
}

/// The model field a reply must reproduce, as it appears in a dump(0).
std::string expected_field(const Request& request, const Value& body) {
  const char* field = request.endpoint == kPlacement ? "best"
                      : request.endpoint == kWhatif  ? "result"
                      : request.endpoint == kSweep   ? "figure"
                                                     : nullptr;
  if (field == nullptr) return {};
  const Value* v = body.find(field);
  return v == nullptr ? std::string("<missing>")
                      : "\"" + std::string(field) + "\": " + v->dump(0);
}

/// One keep-alive loopback connection.
class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    timeval tv{};
    tv.tv_sec = 10;  // a hung server fails the run instead of hanging it
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Send one request and read its reply. Returns the status (0 = reset or
  /// unparsable); `body` holds the reply body.
  int round_trip(const std::string& wire, std::string& body) {
    if (fd_ < 0) return 0;
    std::size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return 0;
      sent += static_cast<std::size_t>(n);
    }
    std::size_t head_end = 0;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!fill()) return 0;
    }
    if (buffer_.compare(0, 9, "HTTP/1.1 ") != 0) return 0;
    const int status = std::atoi(buffer_.c_str() + 9);
    const std::size_t cl = buffer_.find("Content-Length: ");
    if (cl == std::string::npos || cl > head_end) return 0;
    const std::size_t length = std::strtoull(buffer_.c_str() + cl + 16, nullptr, 10);
    const std::size_t total = head_end + 4 + length;
    while (buffer_.size() < total) {
      if (!fill()) return 0;
    }
    body.assign(buffer_, head_end + 4, length);
    buffer_.erase(0, total);
    return status;
  }

 private:
  bool fill() {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

bool reply_ok(const Request& request, int status, const std::string& body) {
  if (status != 200) return false;
  if (request.expected.empty()) return true;
  return body.find(request.expected) != std::string::npos;
}

/// Run `fn(thread_index)` on `n` threads and join them all.
template <typename Fn>
void parallel(int n, Fn fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) threads.emplace_back(fn, t);
  for (std::thread& t : threads) t.join();
}

knl::AppCharacteristics app_of(const Value& body) {
  knl::AppCharacteristics app;
  app.name = body.find("name")->as_string();
  app.footprint_bytes = static_cast<std::uint64_t>(body.find("footprint_bytes")->as_number());
  app.regular_fraction = body.find("regular_fraction")->as_number();
  app.flops_per_byte = body.find("flops_per_byte")->as_number();
  return app;
}

knl::MemConfig config_of(const std::string& name) {
  if (name == "HBM") return knl::MemConfig::HBM;
  if (name == "Cache Mode") return knl::MemConfig::CacheMode;
  return knl::MemConfig::DRAM;
}

/// Per-request record of the open loop.
struct Sample {
  std::size_t index = 0;  ///< request id (open-loop ordinal)
  double latency_ms = 0.0;  ///< reply time minus due time
  double late_ms = 0.0;     ///< send time minus due time
  double rtt_us = 0.0;      ///< reply time minus send time
  bool traced = false;
  bool ok = false;
};

}  // namespace

std::uint64_t serve_input_digest(const Options& options) {
  std::uint64_t h = 0;
  for (const Request& request : make_log(options.seed)) {
    for (const char c : request.wire) h = mix64(h ^ static_cast<unsigned char>(c));
  }
  return h;
}

void run_serve(const Options& options, Result& result) {
  const int clients = hardware_threads();
  std::vector<Request> log = make_log(options.seed);
  knl::report::SweepCache& cache = knl::report::SweepCache::instance();

  knl::service::ServiceOptions service_options;
  service_options.max_inflight = 4096;
  using Service = std::optional<knl::service::PlacementService>;
  using Server = std::optional<knl::service::HttpServer>;
  Service service;
  Server server;

  // Set-up: engine, HTTP front end and one warm-up pass of the log through
  // the engine, from an empty cache. The ones made during the timed phase
  // build a second engine beside the one under load, then drop it; its
  // warm-up pass leaves the cache as warm as before.
  std::vector<double> setup_s;
  const auto set_up = [&](Service& engine, Server& front) {
    front.reset();
    engine.reset();
    cache.clear();
    const Clock::time_point start = Clock::now();
    engine.emplace(service_options);
    front.emplace(*engine, knl::service::HttpServerOptions{});
    front->start();
    std::atomic<std::size_t> next{0};
    parallel(clients, [&](int) {
      for (std::size_t i; (i = next.fetch_add(1)) < log.size();) {
        (void)engine->handle_text(log[i].method, log[i].target, log[i].body);
      }
    });
    setup_s.push_back(ms_since(start) / 1e3);
  };
  for (int rep = 0; rep < kSetupReps; ++rep) set_up(service, server);

  // Reference replies from the in-process engine (untimed).
  for (Request& request : log) {
    const knl::service::ServiceResponse reply =
        service->handle_text(request.method, request.target, request.body);
    if (reply.status != 200) {
      result.fail("in-process " + request.target + " answered " +
                  std::to_string(reply.status));
    }
    request.expected = expected_field(request, reply.body);
  }

  const std::uint16_t port = server->port();
  std::vector<std::unique_ptr<Connection>> connections;
  for (int t = 0; t < clients; ++t) connections.push_back(std::make_unique<Connection>(port));
  const knl::report::SweepCacheStats cache_before = cache.stats();
  // Cache lookups made by the set-ups of the timed phase, left out of the
  // hit ratio.
  std::uint64_t setup_hits = 0;
  std::uint64_t setup_misses = 0;
  Clock::time_point last_setup = Clock::now();
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::size_t> cursor{0};

  // The run alternates closed-loop and open-loop windows, so both phases see
  // the same host conditions. In an open window request j is due at
  // j / rate and rides connection j % clients; the traced run puts spans on
  // every other open window.
  Tracer tracer(options.trace);
  const auto per_window = static_cast<std::size_t>(kOpenWindowS * options.serve_rate);
  const double failed_latency_ms = kOpenWindowS * 1e3;  // over any limit
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  std::vector<double> window_qps;
  std::vector<double> window_cpu_us;
  // In-process requests, per endpoint: every latency, and each /placement's
  // fastest over the rounds.
  std::array<std::vector<const Request*>, 2> inproc;
  for (const Request& request : log) {
    if (request.endpoint <= kWhatif && inproc[request.endpoint].size() < kInprocPerRound) {
      inproc[request.endpoint].push_back(&request);
    }
  }
  std::array<std::vector<double>, 2> inproc_ms;
  FastestPerItem placement_best(inproc[kPlacement].size());

  const auto inproc_phase = [&] {
    for (int round = 0; round < kInprocRounds; ++round) {
      for (std::size_t e = 0; e < inproc.size(); ++e) {
        for (std::size_t i = 0; i < inproc[e].size(); ++i) {
          const Request& request = *inproc[e][i];
          const Clock::time_point t0 = Clock::now();
          const knl::service::ServiceResponse reply =
              service->handle_text(request.method, request.target, request.body);
          inproc_ms[e].push_back(us_between(t0, Clock::now()) / 1e3);
          if (e == kPlacement) placement_best.add(i, inproc_ms[e].back());
          attempted.fetch_add(1);
          if (!reply_ok(request, reply.status, reply.body.dump(0))) failed.fetch_add(1);
        }
      }
    }
  };
  std::vector<double> window_tail;
  std::string tail_label = "p50";
  std::uint64_t completed_total = 0;
  std::vector<Sample> samples;
  for (std::size_t window = 0; window == 0 || Clock::now() < deadline; ++window) {
    std::atomic<std::uint64_t> completed{0};
    std::atomic<double> client_cpu_ms{0.0};
    const double cpu_start = process_cpu_ms();
    const Clock::time_point closed_start = Clock::now();
    const Clock::time_point closed_end =
        closed_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kClosedWindowS));
    parallel(clients, [&](int t) {
      Connection& conn = *connections[static_cast<std::size_t>(t)];
      std::string body;
      const double thread_start = thread_cpu_ms();
      while (Clock::now() < closed_end) {
        const Request& request = log[cursor.fetch_add(1) % log.size()];
        const int status = conn.round_trip(request.wire, body);
        attempted.fetch_add(1);
        if (!reply_ok(request, status, body)) failed.fetch_add(1);
        completed.fetch_add(1);
      }
      client_cpu_ms.fetch_add(thread_cpu_ms() - thread_start);
    });
    // Server CPU per request: the process's CPU time minus the clients'.
    window_cpu_us.push_back(1e3 * (process_cpu_ms() - cpu_start - client_cpu_ms.load()) /
                            static_cast<double>(std::max<std::uint64_t>(1, completed.load())));
    window_qps.push_back(static_cast<double>(completed.load()) /
                         (ms_since(closed_start) / 1e3));
    completed_total += completed.load();
    inproc_phase();

    const bool traced = options.trace && window % 2 == 1;
    const std::size_t base = samples.size();
    samples.resize(base + per_window);
    const Clock::time_point open_start = Clock::now() + std::chrono::milliseconds(2);
    parallel(clients, [&](int t) {
      Connection& conn = *connections[static_cast<std::size_t>(t)];
      std::string body;
      for (auto j = static_cast<std::size_t>(t); j < per_window;
           j += static_cast<std::size_t>(clients)) {
        const Clock::time_point due =
            open_start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(static_cast<double>(j) /
                                                           options.serve_rate));
        std::this_thread::sleep_until(due);
        Sample& s = samples[base + j];
        s.index = base + j;
        s.traced = traced;
        const Request& request = log[s.index % log.size()];
        const Clock::time_point sent = Clock::now();
        const int status = conn.round_trip(request.wire, body);
        const Clock::time_point done = Clock::now();
        s.ok = reply_ok(request, status, body);
        s.late_ms = us_between(due, sent) / 1e3;
        s.rtt_us = us_between(sent, done);
        s.latency_ms = s.ok ? us_between(due, done) / 1e3 : failed_latency_ms;
        if (traced) tracer.record("http.request", sent, done, Tracer::kNoSpan, s.index);
        attempted.fetch_add(1);
        if (!s.ok) failed.fetch_add(1);
      }
    });
    inproc_phase();
    if (!traced) {
      std::vector<double> latency;
      for (std::size_t j = base; j < samples.size(); ++j) latency.push_back(samples[j].latency_ms);
      const Tail tail = supported_tail(latency);
      window_tail.push_back(tail.value);
      tail_label = tail.label;
    }
    if (ms_since(last_setup) >= kSetupEveryS * 1e3) {
      const knl::report::SweepCacheStats before = cache.stats();
      Service scratch_service;
      Server scratch_server;
      set_up(scratch_service, scratch_server);
      scratch_server.reset();
      const knl::report::SweepCacheStats after = cache.stats();
      setup_hits += after.hits - before.hits;
      setup_misses += after.misses - before.misses;
      last_setup = Clock::now();
    }
  }
  const double qps = quantile(window_qps, 0.5);

  const knl::report::SweepCacheStats cache_after = cache.stats();
  result.attempted = attempted.load();
  result.failed = failed.load();

  std::vector<double> latency, late, latency_traced, placement;
  for (const Sample& s : samples) {
    (s.traced ? latency_traced : latency).push_back(s.latency_ms);
    if (s.traced) continue;
    late.push_back(s.late_ms);
    if (log[s.index % log.size()].endpoint == kPlacement) placement.push_back(s.latency_ms);
  }
  const double p50 = quantile(latency, 0.5);
  const double tail = quantile(window_tail, 0.5);
  const Tail late_tail = supported_tail(late);
  result.report["setup_s"] = {quantile(setup_s, kFastQuantile), "s", setup_s.size(),
                              "p10 of the set-ups spread over the run"};
  result.report["peak_rss_mb"] = {peak_rss_mb(), "MiB", 0, ""};
  result.report["serve_qps"] = {qps, "req/s", completed_total,
                                "closed loop, " + std::to_string(clients) +
                                    " connections, median of " +
                                    std::to_string(window_qps.size()) + " windows; " +
                                    kUngatedParallel};
  result.report["serve_p50_ms"] = {
      p50, "ms", latency.size(),
      "open loop at " + std::to_string(static_cast<int>(options.serve_rate)) + " req/s; " +
          kUngatedMix};
  result.report["serve_" + tail_label + "_ms"] = {
      tail, "ms", latency.size(),
      "median of " + std::to_string(window_tail.size()) + " window " + tail_label + "s; " +
          kUngatedTail};
  result.report["serve_cpu_us_per_req"] = {quantile(window_cpu_us, 0.5), "us",
                                          window_cpu_us.size(),
                                          "server CPU per request, closed loop"};
  result.report["serve_placement_p50_ms"] = {quantile(placement, 0.5), "ms", placement.size(),
                                            "/placement requests of the open loop; " +
                                                std::string(kUngatedLoaded)};
  result.report["serve_inproc_placement_p50_ms"] = {
      quantile(inproc_ms[kPlacement], 0.5), "ms", inproc_ms[kPlacement].size(),
      "/placement through PlacementService::handle_text, one caller"};
  result.report["serve_inproc_whatif_p50_ms"] = {
      quantile(inproc_ms[kWhatif], 0.5), "ms", inproc_ms[kWhatif].size(),
      "/whatif (a cache read) through PlacementService::handle_text, one caller"};
  result.report["generator_late_p50_ms"] = {quantile(late, 0.5), "ms", late.size(), ""};
  result.report["generator_late_" + late_tail.label + "_ms"] = {late_tail.value, "ms",
                                                               late.size(), ""};

  result.slots["setup_s"] = result.report["setup_s"];
  result.slots["peak_rss_mb"] = result.report["peak_rss_mb"];
  result.slots["main_ms"] = {placement_best.median(), "ms", inproc[kPlacement].size(),
                             "serve_inproc_placement_p50_ms, fastest per request"};
  result.slots["second_ms"] = {quantile(window_cpu_us, 0.5) / 1e3, "ms", window_cpu_us.size(),
                               "serve_cpu_us_per_req / 1e3"};

  if (options.trace) {
    // Pair every traced request with the same request handled in process,
    // unloaded, by request id; then time the layers under it on its body.
    const knl::Machine machine(knl::MachineConfig::knl7210());
    std::map<std::string, std::vector<double>> handle_by_endpoint;
    std::vector<double> advise_us, placement_self_us, hit_us, run_us, self_us, rtt_us;
    std::map<std::string, std::vector<double>> rtt_by_endpoint;
    std::size_t paired = 0;
    for (const Sample& s : samples) {
      if (!s.traced || !s.ok) continue;
      const Request& request = log[s.index % log.size()];
      const Clock::time_point t0 = Clock::now();
      const knl::service::ServiceResponse reply =
          service->handle_text(request.method, request.target, request.body);
      const Clock::time_point t1 = Clock::now();
      if (reply.status != 200) result.fail("in-process replay of " + request.target);
      tracer.record("service.handle", t0, t1, Tracer::kNoSpan, s.index);
      const double h = us_between(t0, t1);
      handle_by_endpoint[kEndpointNames[request.endpoint]].push_back(h);
      rtt_us.push_back(s.rtt_us);
      self_us.push_back(s.rtt_us - h);
      rtt_by_endpoint[kEndpointNames[request.endpoint]].push_back(s.rtt_us);
      ++paired;

      const std::optional<Value> body =
          request.body.empty() ? std::nullopt : Value::parse(request.body);
      if (request.endpoint == kPlacement) {
        const knl::AppCharacteristics app = app_of(*body);
        const knl::Advisor advisor(machine);
        const Clock::time_point a0 = Clock::now();
        const knl::Advice advice = advisor.advise(app);
        const Clock::time_point a1 = Clock::now();
        tracer.record("advisor.advise", a0, a1, Tracer::kNoSpan, s.index);
        if (advice.ranked.empty()) result.fail("advisor returned no ranking");
        advise_us.push_back(us_between(a0, a1));
        placement_self_us.push_back(h - us_between(a0, a1));
      } else if (request.endpoint == kWhatif) {
        const auto workload = knl::workloads::find_workload(body->find("workload")->as_string())
                                  .make(static_cast<std::uint64_t>(body->find("bytes")->as_number()));
        const knl::trace::AccessProfile profile = workload->profile();
        const knl::RunConfig run_config{config_of(body->find("config")->as_string()),
                                        static_cast<int>(body->find("threads")->as_number()),
                                        0.0};
        bool hit = false;
        const Clock::time_point c0 = Clock::now();
        const knl::RunResult cached = knl::report::cached_run(machine, profile, run_config, &hit);
        const Clock::time_point c1 = Clock::now();
        const knl::RunResult fresh = machine.run(profile, run_config);
        const Clock::time_point c2 = Clock::now();
        tracer.record("cache.hit", c0, c1, Tracer::kNoSpan, s.index);
        tracer.record("machine.run", c1, c2, Tracer::kNoSpan, s.index);
        if (!hit) result.fail("resident /whatif key missed the SweepCache");
        if (cached.seconds != fresh.seconds) result.fail("cached and fresh run differ");
        hit_us.push_back(us_between(c0, c1));
        run_us.push_back(us_between(c1, c2));
      }
    }
    const std::size_t n = paired;
    result.layers["http.rtt_p50_us"] = {quantile(rtt_us, 0.5), "us", n, ""};
    result.layers["http.rtt_p99_us"] = {quantile(rtt_us, 0.99), "us", n, ""};
    result.layers["http.self_p50_us"] = {quantile(self_us, 0.5), "us", n,
                                         "round trip minus in-process handle"};
    for (const char* endpoint : {"placement", "whatif", "sweep", "stats"}) {
      const std::vector<double>& v = handle_by_endpoint[endpoint];
      result.layers[std::string("service.handle_p50_us.") + endpoint] = {quantile(v, 0.5), "us",
                                                                         v.size(), ""};
      result.layers[std::string("service.handle_p99_us.") + endpoint] = {quantile(v, 0.99), "us",
                                                                         v.size(), ""};
    }
    result.layers["advisor.advise_us"] = {quantile(advise_us, 0.5), "us", advise_us.size(), ""};
    result.layers["service.placement_self_us"] = {quantile(placement_self_us, 0.5), "us",
                                                  placement_self_us.size(),
                                                  "placement handle minus advise"};
    result.layers["cache.hit_us"] = {quantile(hit_us, 0.5), "us", hit_us.size(), ""};
    result.layers["machine.run_us"] = {quantile(run_us, 0.5), "us", run_us.size(), ""};
    const auto hits =
        static_cast<double>(cache_after.hits - cache_before.hits - setup_hits);
    const double lookups =
        hits + static_cast<double>(cache_after.misses - cache_before.misses - setup_misses);
    result.layers["cache.hit_ratio"] = {
        lookups > 0.0 ? hits / lookups : 0.0,
        "ratio", static_cast<std::size_t>(lookups), "timed phases"};
    const knl::service::ServiceCounters counters = service->counters();
    result.layers["service.shed"] = {static_cast<double>(counters.shed), "count", 0, ""};
    result.layers["service.errors"] = {static_cast<double>(counters.errors), "count", 0, ""};
    result.layers["service.deadline_exceeded"] = {
        static_cast<double>(counters.deadline_exceeded), "count", 0, ""};
    result.layers["service.health_transitions"] = {
        static_cast<double>(service->health().snapshot().transitions), "count", 0, ""};
    result.layers["trace.overhead.serve"] = {
        p50 > 0.0 ? quantile(latency_traced, 0.5) / p50 : 0.0, "ratio",
        latency_traced.size(), "traced serve_p50 / untraced serve_p50"};
    double worst = 0.0;
    for (const auto& [endpoint, handles] : handle_by_endpoint) {
      const double handle = quantile(handles, 0.5);
      const double rtt = quantile(rtt_by_endpoint[endpoint], 0.5);
      worst = std::max(worst, rtt > 0.0 ? handle / rtt : 0.0);
      if (handle > rtt * (1.0 + kSlackFraction) + kSlackUs) {
        result.fail(endpoint + ": handle exceeds its round trip beyond the slack");
      }
    }
    result.layers["trace.parts_ratio.serve"] = {
        worst, "ratio", n, "max over endpoints of median handle / median round trip"};
    if (counters.shed + counters.errors + counters.deadline_exceeded > 0) {
      result.fail("the service shed or errored: this run measured brownout");
    }
    if (!options.trace_out.empty() && !tracer.write_json(options.trace_out)) {
      result.fail("cannot write " + options.trace_out);
    }
  }
  server->stop();
}

}  // namespace perfbench
