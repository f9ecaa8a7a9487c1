// Warm-restart recovery: crash-safe SweepCache snapshots and a journaled
// in-flight request log.
//
// A killed daemon loses two things: the memoized results its hit rate was
// built on, and any requests that were admitted but never answered. This
// module recovers both:
//
//  * Snapshots — `save_cache_snapshot` wraps SweepCache::serialize() with a
//    digest header (`knlmem-cache-snapshot 1 fnv1a <hex>`) and writes it
//    via the crash-safe atomic_write_file path, so a reader never observes
//    a torn snapshot. `load_cache_snapshot` verifies the digest before
//    deserializing: a flipped bit or a truncated payload reads as Tampered
//    and the daemon cold-starts instead of trusting corrupt results
//    (the PR-5 journal discipline, applied to the cache).
//
//  * Journal — `RequestJournal` appends one JSONL record per admitted POST
//    (`begin`, carrying method/target/body plus an FNV-1a body digest) and
//    one on completion (`end`). After a crash, `RequestJournal::pending()`
//    returns the begins without a matching end — the requests that were
//    in flight — and the daemon replays them against itself before
//    accepting traffic, re-warming exactly the entries the interrupted
//    requests would have populated. A torn tail line (the crash can land
//    mid-write) parses as garbage and is skipped, never fatal.
//
//  * SnapshotDaemon — a background thread snapshotting every interval; the
//    graceful-drain path takes one final snapshot on top.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace knl::service {

/// First line of every snapshot file, followed by the 16-hex-digit FNV-1a
/// digest of the payload that follows the newline.
inline constexpr const char* kSnapshotHeaderPrefix = "knlmem-cache-snapshot 1 fnv1a ";

enum class SnapshotLoad {
  Recovered,       ///< digest verified, entries merged into the SweepCache
  Missing,         ///< no file (first boot) — benign cold start
  Tampered,        ///< digest mismatch or header damage — rejected, cold start
  SchemaMismatch,  ///< intact digest but another machine-profile schema
};

[[nodiscard]] const char* to_string(SnapshotLoad result);

/// Serialize the process-wide SweepCache and atomically write it (with its
/// digest header) to `path`. Returns false with *error on IO failure.
[[nodiscard]] bool save_cache_snapshot(const std::string& path, std::string* error);

/// Verify and merge a snapshot written by save_cache_snapshot. `detail`
/// (optional) receives a one-line human-readable outcome.
[[nodiscard]] SnapshotLoad load_cache_snapshot(const std::string& path,
                                               std::string* detail = nullptr);

/// One request recovered from the journal: admitted, never completed.
struct PendingRequest {
  std::uint64_t seq = 0;
  std::string method;
  std::string target;
  std::string body;
};

/// Append-only JSONL log of admitted requests. Thread-safe; every line is
/// flushed and fsynced so the journal survives the same kill the snapshot
/// does.
/// A regular file is rewritten to its open (begun, unended) records once it
/// outgrows kCompactSlackBytes plus twice their size; with open records
/// capped at kMaxOpenBytes, the file stays under kMaxBytes, pending()'s cap.
class RequestJournal {
 public:
  static constexpr std::size_t kMaxBytes = std::size_t{256} << 20;
  static constexpr std::size_t kCompactSlackBytes = std::size_t{4} << 20;
  static constexpr std::size_t kMaxOpenBytes = std::size_t{64} << 20;
  static_assert(kCompactSlackBytes + 2 * kMaxOpenBytes + 4096 <= kMaxBytes);

  RequestJournal() = default;
  ~RequestJournal();

  RequestJournal(const RequestJournal&) = delete;
  RequestJournal& operator=(const RequestJournal&) = delete;

  /// Start a fresh journal at `path` (the post-replay reset). Returns false
  /// on IO failure.
  [[nodiscard]] bool open(const std::string& path);
  void close();
  [[nodiscard]] bool is_open() const;

  /// Record an admitted request; returns its sequence number, or 0 when the
  /// journal is closed or the record could not be written, flushed and
  /// fsynced (end(0) is a no-op, so callers need no guard).
  std::uint64_t begin(const std::string& method, const std::string& target,
                      const std::string& body);
  /// Record completion (success or error — either way the request is no
  /// longer in flight).
  void end(std::uint64_t seq);

  /// The first failure since open() (a write, a full journal, a compaction).
  [[nodiscard]] std::string first_error() const;

  /// Parse `path` (up to `max_bytes`) and return every begin without a
  /// matching end, in sequence order. Records with a wrong body digest (torn
  /// writes) and unparsable lines are skipped. An unreadable or over-cap
  /// journal sets *error; a missing one (first boot) does not.
  [[nodiscard]] static std::vector<PendingRequest> pending(const std::string& path,
                                                           std::size_t max_bytes,
                                                           std::string* error);

 private:
  /// Write, flush and fsync one record; false (noting first_error_) on
  /// failure. Requires mutex_.
  bool append(const std::string& line);
  /// Rewrite the file to its open records if over the bound. Requires mutex_.
  void maybe_compact();
  void note_error(std::string error);

  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;
  std::string path_;
  /// Only a regular file is rewritten, never a device or FIFO.
  bool compactable_ = false;
  std::size_t file_bytes_ = 0;
  std::map<std::uint64_t, std::string> open_records_;
  std::size_t open_bytes_ = 0;
  std::uint64_t next_seq_ = 1;
  std::string first_error_;
};

/// Background thread writing a cache snapshot every `interval_ms`.
class SnapshotDaemon {
 public:
  SnapshotDaemon(std::string path, double interval_ms);
  ~SnapshotDaemon();

  SnapshotDaemon(const SnapshotDaemon&) = delete;
  SnapshotDaemon& operator=(const SnapshotDaemon&) = delete;

  void stop();

  [[nodiscard]] std::uint64_t snapshots_taken() const {
    return snapshots_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::string last_error() const;

 private:
  void loop();

  std::string path_;
  double interval_ms_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::string last_error_;
  std::atomic<std::uint64_t> snapshots_{0};
  std::thread thread_;
};

}  // namespace knl::service
