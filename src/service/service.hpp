// PlacementService: the advisor, the sweep engine and the what-if runner as
// a long-running concurrent query service (ROADMAP item 1 — the "millions
// of users" direction).
//
// The service is transport-agnostic: handle() takes a (method, target,
// JSON body) triple and returns a (status, JSON body) pair, so the same
// engine serves the blocking-socket HTTP front end (service/http.hpp), the
// in-process bench harness (bench_service) and the unit tests. Queries are
// validated against the machine and workload registries, executed inline on
// the thread that called handle() behind a gate of `workers` slots,
// answered from the process-wide sharded LRU SweepCache (report/sweep.hpp)
// — identical concurrent queries coalesce onto one computation — and
// load-shed with a 429-style reject once the in-flight gauge passes the
// configured bound.
//
// Endpoints and their JSON schemas are documented in docs/SERVICE.md; the
// error-code mapping follows the knl::Error taxonomy (core/fault/error.hpp):
// CorruptInput -> 400, Resource -> 429 (+ retry_after_ms), Transient -> 503,
// Internal -> 500.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <semaphore>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "report/sweep.hpp"
#include "repro/json.hpp"
#include "service/health.hpp"

namespace knl::service {

class RequestJournal;  // service/recovery.hpp

struct ServiceOptions {
  /// Query slots: 0 = one per hardware thread. Each POST query runs on the
  /// thread that called handle() once it holds a slot, so at most
  /// `workers` queries compute at once regardless of socket count.
  int workers = 0;
  /// Load-shedding bound: queries admitted (waiting for a slot or
  /// computing) at once.
  /// At the bound, new work is rejected as knl::Error Resource -> HTTP 429.
  std::size_t max_inflight = 1024;
  /// Retry-After hint attached to 429 rejections, in milliseconds.
  int retry_after_ms = 50;
  /// SweepCache capacity bound (entries); applied at construction.
  std::size_t cache_capacity = report::SweepCache::kDefaultCapacity;
  /// Largest sweep grid (cells = sizes-or-threads x configs) one query may
  /// request; larger grids are rejected as CorruptInput.
  std::size_t max_sweep_cells = 512;
  /// Server-side default request budget (ms), applied when a request
  /// carries neither an X-Deadline-Ms header nor a `deadline_ms` body
  /// field. Checked at admission, once a query slot is acquired and between
  /// sweep cells;
  /// exhaustion answers 504 with partial-progress detail. 0 disables.
  double default_deadline_ms = 30000.0;
  /// Brownout state machine thresholds (service/health.hpp).
  HealthOptions health{};
};

/// One routed reply: HTTP-style status plus the JSON body to serialize.
struct ServiceResponse {
  int status = 200;
  repro::json::Value body;
};

/// Per-endpoint request counters plus the gauges /stats reports.
struct ServiceCounters {
  std::uint64_t placement = 0;
  std::uint64_t sweep = 0;
  std::uint64_t whatif = 0;
  std::uint64_t stats = 0;
  std::uint64_t healthz = 0;
  std::uint64_t shed = 0;        ///< 429 rejections (load shedding)
  std::uint64_t errors = 0;      ///< non-shed error responses (4xx/5xx)
  std::uint64_t inflight = 0;    ///< queries admitted and not yet answered
  std::uint64_t deadline_exceeded = 0;  ///< 504 responses (budget exhausted)
  std::uint64_t brownout = 0;    ///< 429 rejections from the Shedding state
  std::uint64_t degraded = 0;    ///< queries served in Degraded (cache-only) mode
};

class PlacementService {
 public:
  explicit PlacementService(ServiceOptions options = {});

  /// Route one request. `body` is ignored by the GET endpoints. Never
  /// throws: every failure becomes an error-shaped JSON response.
  /// `deadline_ms` is the transport-carried budget (the X-Deadline-Ms
  /// header); <= 0 defers to the body's `deadline_ms` field, then to
  /// options().default_deadline_ms.
  [[nodiscard]] ServiceResponse handle(const std::string& method,
                                       const std::string& target,
                                       const repro::json::Value& body,
                                       double deadline_ms = 0.0);

  /// Same, parsing `body_text` first (empty text = null body). A body that
  /// is not valid JSON is a CorruptInput -> 400.
  [[nodiscard]] ServiceResponse handle_text(const std::string& method,
                                            const std::string& target,
                                            const std::string& body_text,
                                            double deadline_ms = 0.0);

  [[nodiscard]] const ServiceOptions& options() const noexcept { return options_; }
  [[nodiscard]] std::vector<std::string> machine_names() const;
  [[nodiscard]] ServiceCounters counters() const;

  /// The brownout state machine: knl-serve wires its transition log here;
  /// /healthz and /stats report its snapshot; tests may pin its state.
  [[nodiscard]] HealthMonitor& health() noexcept { return health_; }

  /// Arm the in-flight request journal (service/recovery.hpp): every
  /// admitted POST writes a begin record, every completion an end record,
  /// so a crashed daemon can replay what it lost. The journal must outlive
  /// the service; nullptr disarms.
  void set_journal(RequestJournal* journal) noexcept { journal_ = journal; }

 private:
  /// Request-scoped execution context threaded through the POST queries.
  struct QueryContext {
    std::shared_ptr<const Deadline> deadline;
    bool degraded = false;  ///< health was Degraded at admission
  };

  [[nodiscard]] ServiceResponse dispatch(const std::string& method,
                                         const std::string& target,
                                         const repro::json::Value& body,
                                         double deadline_ms);
  [[nodiscard]] repro::json::Value do_placement(const repro::json::Value& body,
                                                const QueryContext& ctx) const;
  [[nodiscard]] repro::json::Value do_whatif(const repro::json::Value& body,
                                             const QueryContext& ctx) const;
  [[nodiscard]] repro::json::Value do_sweep(const repro::json::Value& body,
                                            const QueryContext& ctx) const;
  [[nodiscard]] repro::json::Value do_stats() const;
  [[nodiscard]] repro::json::Value do_healthz() const;

  /// Retry-After hint scaled by queue depth: base at an idle service,
  /// base * 9 at a full admission window — a saturated service asks
  /// clients to back off longer instead of inviting an immediate stampede.
  [[nodiscard]] int adaptive_retry_after_ms() const;

  /// Registry lookup; throws CorruptInput naming the known machines.
  [[nodiscard]] const Machine& find_machine(const repro::json::Value& body) const;

  ServiceOptions options_;
  /// The machine-profile registry: every named MachineConfig preset,
  /// instantiated once (Machine is immutable and its run() is const).
  std::map<std::string, Machine> machines_;
  /// Resolved `workers` (the /stats field) and the slot gate it sizes.
  unsigned workers_;
  std::counting_semaphore<> slots_;

  std::atomic<std::uint64_t> placement_{0};
  std::atomic<std::uint64_t> sweep_{0};
  std::atomic<std::uint64_t> whatif_{0};
  std::atomic<std::uint64_t> stats_{0};
  std::atomic<std::uint64_t> healthz_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> inflight_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> brownout_{0};
  std::atomic<std::uint64_t> degraded_{0};
  HealthMonitor health_;
  std::atomic<RequestJournal*> journal_{nullptr};
};

}  // namespace knl::service
