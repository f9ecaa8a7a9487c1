#include "service/recovery.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <sys/stat.h>
#include <unistd.h>

#include "core/fault/atomic_io.hpp"
#include "report/sweep.hpp"
#include "repro/json.hpp"

namespace knl::service {

using repro::json::Value;

const char* to_string(SnapshotLoad result) {
  switch (result) {
    case SnapshotLoad::Recovered:
      return "recovered";
    case SnapshotLoad::Missing:
      return "missing";
    case SnapshotLoad::Tampered:
      return "tampered";
    case SnapshotLoad::SchemaMismatch:
      return "schema-mismatch";
  }
  return "unknown";
}

bool save_cache_snapshot(const std::string& path, std::string* error) {
  const std::string payload = report::SweepCache::instance().serialize();
  const std::string text =
      std::string(kSnapshotHeaderPrefix) + io::fnv1a_hex(payload) + "\n" + payload;
  // The retrying write path: crash-safe (tmp + fsync + rename) and, when a
  // fault plan targets json-write, exercised by the same chaos drills as
  // every other artifact.
  return io::write_file_with_retry(path, text, error);
}

SnapshotLoad load_cache_snapshot(const std::string& path, std::string* detail) {
  // The cap follows the cache capacity: a snapshot written under a larger
  // one reads as Missing, with the reason in *detail.
  const std::size_t max_bytes = std::strlen(kSnapshotHeaderPrefix) + 17 +
                                report::SweepCache::instance().max_serialized_bytes();
  std::string error;
  const auto text = io::read_file_with_retry(path, max_bytes, &error);
  if (!text.has_value()) {
    if (detail != nullptr) *detail = "no snapshot loaded from " + path + " (" + error + ")";
    return SnapshotLoad::Missing;
  }
  const std::size_t prefix_len = std::strlen(kSnapshotHeaderPrefix);
  const std::size_t newline = text->find('\n');
  if (newline == std::string::npos ||
      text->compare(0, prefix_len, kSnapshotHeaderPrefix) != 0) {
    if (detail != nullptr) *detail = "snapshot header damaged";
    return SnapshotLoad::Tampered;
  }
  const std::string recorded = text->substr(prefix_len, newline - prefix_len);
  const std::string payload = text->substr(newline + 1);
  const std::string actual = io::fnv1a_hex(payload);
  if (recorded != actual) {
    if (detail != nullptr) {
      *detail = "snapshot digest mismatch: header " + recorded + ", payload " + actual;
    }
    return SnapshotLoad::Tampered;
  }
  const std::size_t before = report::SweepCache::instance().size();
  if (!report::SweepCache::instance().deserialize(payload)) {
    if (detail != nullptr) {
      *detail = "snapshot intact but written under another machine schema";
    }
    return SnapshotLoad::SchemaMismatch;
  }
  if (detail != nullptr) {
    *detail = "recovered " +
              std::to_string(report::SweepCache::instance().size() - before) +
              " new entries (" +
              std::to_string(report::SweepCache::instance().size()) + " resident)";
  }
  return SnapshotLoad::Recovered;
}

// ---------------------------------------------------------------------------
// RequestJournal
// ---------------------------------------------------------------------------
RequestJournal::~RequestJournal() { close(); }

bool RequestJournal::open(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  file_ = std::fopen(path.c_str(), "w");
  path_ = path;
  struct stat info {};
  compactable_ = file_ != nullptr && ::fstat(::fileno(file_), &info) == 0 &&
                 S_ISREG(info.st_mode);
  file_bytes_ = 0;
  open_records_.clear();
  open_bytes_ = 0;
  first_error_.clear();
  return file_ != nullptr;
}

void RequestJournal::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

bool RequestJournal::is_open() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return file_ != nullptr;
}

std::uint64_t RequestJournal::begin(const std::string& method,
                                    const std::string& target,
                                    const std::string& body) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return 0;
  const std::uint64_t seq = next_seq_++;
  Value record = Value::object();
  record.set("seq", static_cast<double>(seq));
  record.set("op", "begin");
  record.set("method", method);
  record.set("target", target);
  record.set("digest", io::fnv1a_hex(body));
  record.set("body", body);
  std::string line = record.dump(0) + "\n";
  if (open_bytes_ + line.size() > kMaxOpenBytes) {
    note_error("journal full: open records exceed " + std::to_string(kMaxOpenBytes) +
               " bytes");
    return 0;
  }
  if (!append(line)) return 0;
  open_bytes_ += line.size();
  open_records_.emplace(seq, std::move(line));
  return seq;
}

void RequestJournal::end(std::uint64_t seq) {
  if (seq == 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return;
  Value record = Value::object();
  record.set("seq", static_cast<double>(seq));
  record.set("op", "end");
  (void)append(record.dump(0) + "\n");
  const auto open = open_records_.find(seq);
  if (open != open_records_.end()) {
    open_bytes_ -= open->second.size();
    open_records_.erase(open);
  }
  maybe_compact();
}

void RequestJournal::maybe_compact() {
  if (!compactable_ || file_bytes_ <= kCompactSlackBytes + 2 * open_bytes_) return;
  std::string text;
  for (const auto& [seq, line] : open_records_) text += line;
  // tmp + fsync + rename: a crash leaves either the old journal or the
  // compacted one, and both name the same open requests.
  std::string error;
  if (io::atomic_write_file(path_, text, &error)) {
    std::fclose(file_);
    file_ = std::fopen(path_.c_str(), "a");
    if (file_ == nullptr) error = std::string("reopen: ") + std::strerror(errno);
  }
  file_bytes_ = text.size();
  if (error.empty()) return;
  compactable_ = false;  // the journal stays correct, only unbounded
  note_error("journal compaction failed: " + error);
}

void RequestJournal::note_error(std::string error) {
  if (first_error_.empty()) first_error_ = std::move(error);
}

bool RequestJournal::append(const std::string& line) {
  const char* failed = nullptr;
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    failed = "write";
  } else if (std::fflush(file_) != 0) {
    failed = "flush";
  } else if (::fsync(::fileno(file_)) != 0) {
    failed = "fsync";
  }
  if (failed == nullptr) {
    file_bytes_ += line.size();
    return true;
  }
  const int error = errno;
  note_error(std::string("journal ") + failed + " failed: " + std::strerror(error));
  std::clearerr(file_);
  return false;
}

std::string RequestJournal::first_error() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return first_error_;
}

std::vector<PendingRequest> RequestJournal::pending(const std::string& path,
                                                    std::size_t max_bytes,
                                                    std::string* error) {
  std::vector<PendingRequest> out;
  std::string read_error;
  const auto text = io::read_text_file(path, max_bytes, &read_error);
  if (!text.has_value()) {
    std::error_code ec;
    if (error != nullptr && std::filesystem::exists(path, ec)) *error = read_error;
    return out;
  }

  std::map<std::uint64_t, PendingRequest> open_requests;
  std::size_t pos = 0;
  while (pos < text->size()) {
    std::size_t end = text->find('\n', pos);
    if (end == std::string::npos) end = text->size();
    const std::string line = text->substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    // A crash can tear the final line mid-write; an unparsable record is
    // skipped, never fatal — the request it described simply re-runs.
    const auto record = Value::parse(line);
    if (!record.has_value() || !record->is_object()) continue;
    const Value* seq_field = record->find("seq");
    const Value* op = record->find("op");
    if (seq_field == nullptr || op == nullptr) continue;
    const auto seq = static_cast<std::uint64_t>(seq_field->as_number());
    if (seq == 0) continue;
    if (op->as_string() == "end") {
      open_requests.erase(seq);
      continue;
    }
    if (op->as_string() != "begin") continue;
    const Value* method = record->find("method");
    const Value* target = record->find("target");
    const Value* body = record->find("body");
    const Value* digest = record->find("digest");
    if (method == nullptr || target == nullptr || body == nullptr ||
        digest == nullptr) {
      continue;
    }
    // Integrity check mirroring the snapshot digest: a torn body reads as a
    // digest mismatch and the record is dropped.
    if (io::fnv1a_hex(body->as_string()) != digest->as_string()) continue;
    PendingRequest request;
    request.seq = seq;
    request.method = method->as_string();
    request.target = target->as_string();
    request.body = body->as_string();
    open_requests.emplace(seq, std::move(request));
  }
  out.reserve(open_requests.size());
  for (auto& [seq, request] : open_requests) out.push_back(std::move(request));
  return out;
}

// ---------------------------------------------------------------------------
// SnapshotDaemon
// ---------------------------------------------------------------------------
SnapshotDaemon::SnapshotDaemon(std::string path, double interval_ms)
    : path_(std::move(path)),
      interval_ms_(interval_ms),
      thread_([this] { loop(); }) {}

SnapshotDaemon::~SnapshotDaemon() { stop(); }

void SnapshotDaemon::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::string SnapshotDaemon::last_error() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return last_error_;
}

void SnapshotDaemon::loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto interval =
      std::chrono::duration<double, std::milli>(interval_ms_ > 0 ? interval_ms_ : 1.0);
  while (!stopping_) {
    if (cv_.wait_for(lock, interval, [this] { return stopping_; })) break;
    lock.unlock();
    std::string error;
    const bool ok = save_cache_snapshot(path_, &error);
    if (ok) snapshots_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
    last_error_ = ok ? std::string() : error;
  }
}

}  // namespace knl::service
