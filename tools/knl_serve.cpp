// knl-serve: the placement-advisor daemon. Binds PlacementService to a
// loopback HTTP listener and runs until SIGINT/SIGTERM, then drains
// gracefully: the listener closes, in-flight requests finish within the
// drain deadline, a final SweepCache snapshot lands on disk, and the
// process exits 0. On boot the daemon recovers the previous life's warmth:
// it verifies and loads the cache snapshot (a tampered snapshot is
// rejected and the cache cold-starts) and replays any journaled requests
// that were in flight when the previous process died. Every knob of
// ServiceOptions and HttpServerOptions is a flag; docs/SERVICE.md documents
// the endpoints and a worked curl session.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fault/fault_injection.hpp"
#include "service/http.hpp"
#include "service/recovery.hpp"
#include "service/service.hpp"

namespace {

std::atomic<bool> g_stop{false};

extern "C" void handle_signal(int) { g_stop.store(true); }

void usage(std::ostream& os) {
  os << "usage: knl-serve [options]\n"
        "\n"
        "Serve placement, what-if and sweep queries over HTTP on 127.0.0.1.\n"
        "\n"
        "options:\n"
        "  --port N            TCP port (default 0 = ephemeral; the chosen\n"
        "                      port is printed on stdout as 'listening on ...')\n"
        "  --workers N         queries computing at once; each runs on its\n"
        "                      connection thread (default 0 = one per\n"
        "                      hardware thread)\n"
        "  --http-threads N    connection-acceptor threads (default 8)\n"
        "  --max-inflight N    admitted queries before load shedding kicks in\n"
        "                      with HTTP 429 (default 1024)\n"
        "  --retry-after-ms N  base Retry-After hint on 429/503 responses; the\n"
        "                      served value scales with queue depth (default 50)\n"
        "  --cache-capacity N  SweepCache entry bound (default 65536)\n"
        "  --max-sweep-cells N largest per-query sweep grid (default 512)\n"
        "  --idle-timeout-ms N keep-alive idle timeout (default 5000)\n"
        "  --read-deadline-ms N  slow-client budget for reading one request;\n"
        "                      past it the client gets 408 (default 10000)\n"
        "  --default-deadline-ms N  server-side request budget when the client\n"
        "                      sends none; 0 disables (default 30000)\n"
        "  --degraded-p99-ms N  rolling p99 above which /sweep browns out to\n"
        "                      cache-only answers (default 250)\n"
        "  --shedding-p99-ms N  rolling p99 above which POST queries shed with\n"
        "                      429 (default 1000)\n"
        "  --snapshot-path P   SweepCache snapshot file: loaded (and verified)\n"
        "                      on boot, written every --snapshot-interval-ms\n"
        "                      and once more on graceful drain\n"
        "  --snapshot-interval-ms N  periodic snapshot cadence (default 5000)\n"
        "  --journal-path P    in-flight request journal: pending requests are\n"
        "                      replayed on boot, then the journal restarts\n"
        "  --drain-deadline-ms N  bound on graceful drain; past it the process\n"
        "                      exits without waiting further (default 10000)\n"
        "  --help              this text\n"
        "\n"
        "Fault injection: set KNL_FAULT_PLAN to arm the deterministic\n"
        "injector (sites http-read, http-write, json-write, ...).\n";
}

bool parse_int(const std::string& text, long long& out) {
  try {
    std::size_t consumed = 0;
    out = std::stoll(text, &consumed);
    return consumed == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  knl::service::ServiceOptions service_options;
  knl::service::HttpServerOptions http_options;
  std::string snapshot_path;
  std::string journal_path;
  long long snapshot_interval_ms = 5000;
  long long drain_deadline_ms = 10000;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    }
    if (i + 1 >= args.size()) {
      std::cerr << "knl-serve: " << arg << " needs a value\n";
      return 2;
    }
    // The two path-valued flags take their value verbatim.
    if (arg == "--snapshot-path") {
      snapshot_path = args[++i];
      continue;
    }
    if (arg == "--journal-path") {
      journal_path = args[++i];
      continue;
    }
    long long value = 0;
    if (!parse_int(args[++i], value) || value < 0) {
      std::cerr << "knl-serve: bad value for " << arg << ": " << args[i] << "\n";
      return 2;
    }
    if (arg == "--port" && value <= 65535) {
      http_options.port = static_cast<std::uint16_t>(value);
    } else if (arg == "--workers") {
      service_options.workers = static_cast<int>(value);
    } else if (arg == "--http-threads" && value > 0) {
      http_options.threads = static_cast<int>(value);
    } else if (arg == "--max-inflight" && value > 0) {
      service_options.max_inflight = static_cast<std::size_t>(value);
    } else if (arg == "--retry-after-ms") {
      service_options.retry_after_ms = static_cast<int>(value);
    } else if (arg == "--cache-capacity" && value > 0) {
      service_options.cache_capacity = static_cast<std::size_t>(value);
    } else if (arg == "--max-sweep-cells" && value > 0) {
      service_options.max_sweep_cells = static_cast<std::size_t>(value);
    } else if (arg == "--idle-timeout-ms" && value > 0) {
      http_options.idle_timeout_ms = static_cast<int>(value);
    } else if (arg == "--read-deadline-ms") {
      http_options.read_deadline_ms = static_cast<int>(value);
    } else if (arg == "--default-deadline-ms") {
      service_options.default_deadline_ms = static_cast<double>(value);
    } else if (arg == "--degraded-p99-ms" && value > 0) {
      service_options.health.degraded_p99_ms = static_cast<double>(value);
    } else if (arg == "--shedding-p99-ms" && value > 0) {
      service_options.health.shedding_p99_ms = static_cast<double>(value);
    } else if (arg == "--snapshot-interval-ms" && value > 0) {
      snapshot_interval_ms = value;
    } else if (arg == "--drain-deadline-ms" && value > 0) {
      drain_deadline_ms = value;
    } else {
      std::cerr << "knl-serve: unknown or out-of-range option " << arg << "\n";
      usage(std::cerr);
      return 2;
    }
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  std::string fault_error;
  if (!knl::fault::arm_from_env(&fault_error)) {
    std::cerr << "knl-serve: bad KNL_FAULT_PLAN: " << fault_error << "\n";
    return 2;
  }

  try {
    knl::service::PlacementService service(service_options);
    service.health().set_transition_log(
        [](knl::service::HealthState from, knl::service::HealthState to,
           const std::string& why) {
          std::cerr << "knl-serve: health " << knl::service::to_string(from)
                    << " -> " << knl::service::to_string(to) << " (" << why
                    << ")\n";
        });

    // Warm-restart recovery, in order: verify + load the snapshot, replay
    // whatever the previous life admitted but never answered, then start
    // journaling this life's requests from a clean file.
    if (!snapshot_path.empty()) {
      std::string detail;
      const knl::service::SnapshotLoad outcome =
          knl::service::load_cache_snapshot(snapshot_path, &detail);
      std::cout << "knl-serve: snapshot " << knl::service::to_string(outcome)
                << " (" << detail << ")" << std::endl;
    }
    knl::service::RequestJournal journal;
    if (!journal_path.empty()) {
      std::string journal_error;
      const auto pending = knl::service::RequestJournal::pending(
          journal_path, knl::service::RequestJournal::kMaxBytes, &journal_error);
      if (!journal_error.empty()) {
        std::cerr << "knl-serve: journal not replayed: " << journal_error << "\n";
      }
      for (const knl::service::PendingRequest& request : pending) {
        // Replay re-warms exactly the cache entries the interrupted
        // requests would have populated; the responses are discarded.
        (void)service.handle_text(request.method, request.target, request.body);
      }
      if (!pending.empty()) {
        std::cout << "knl-serve: replayed " << pending.size()
                  << " journaled in-flight requests" << std::endl;
      }
      if (!journal.open(journal_path)) {
        std::cerr << "knl-serve: cannot open journal " << journal_path << "\n";
        return 1;
      }
      service.set_journal(&journal);
    }
    std::unique_ptr<knl::service::SnapshotDaemon> snapshotter;
    if (!snapshot_path.empty()) {
      snapshotter = std::make_unique<knl::service::SnapshotDaemon>(
          snapshot_path, static_cast<double>(snapshot_interval_ms));
    }

    knl::service::HttpServer server(service, http_options);
    server.start();
    // The port line is a contract: CI's service-smoke job and the socket
    // bench scrape it to find an ephemeral listener.
    std::cout << "knl-serve listening on 127.0.0.1:" << server.port() << std::endl;

    // A journal failure (a record that missed the disk, a full journal, a
    // failed compaction) does not stop serving; say so once.
    bool journal_error_logged = false;
    const auto log_journal_error = [&] {
      if (journal_error_logged) return;
      const std::string error = journal.first_error();
      if (error.empty()) return;
      std::cerr << "knl-serve: " << error << "\n";
      journal_error_logged = true;
    };
    while (!g_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      log_journal_error();
    }

    // Graceful drain: a watchdog bounds the whole exit path, so a wedged
    // in-flight request cannot turn SIGTERM into a hang.
    std::cout << "knl-serve: draining (deadline " << drain_deadline_ms << " ms)"
              << std::endl;
    std::thread watchdog([drain_deadline_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(drain_deadline_ms));
      std::cerr << "knl-serve: drain deadline exceeded, exiting\n";
      std::_Exit(1);
    });
    watchdog.detach();

    server.stop();  // closes the listener, joins connections (in-flight finish)
    if (snapshotter != nullptr) snapshotter->stop();
    service.set_journal(nullptr);
    log_journal_error();
    journal.close();
    if (!snapshot_path.empty()) {
      std::string error;
      if (knl::service::save_cache_snapshot(snapshot_path, &error)) {
        std::cout << "knl-serve: final snapshot written to " << snapshot_path
                  << std::endl;
      } else {
        std::cerr << "knl-serve: final snapshot failed: " << error << "\n";
      }
    }

    const knl::service::ServiceCounters c = service.counters();
    std::cout << "knl-serve: served " << (c.placement + c.sweep + c.whatif)
              << " queries (" << c.shed << " shed, " << c.errors << " errors, "
              << c.deadline_exceeded << " deadline-exceeded, " << c.brownout
              << " brownout-rejects)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "knl-serve: " << e.what() << "\n";
    return 1;
  }
}
