// Run journal: the crash-safe record that makes `knl-repro run` resumable.
//
// Each run owns a directory `<runs_dir>/<run_id>/` holding
// `journal.jsonl` — a header line followed by one line per *completed*
// experiment. `run` commits once: it writes every new artifact as one
// atomic batch, then appends all their lines with one fsync. A run killed
// mid-flight therefore leaves a journal whose "done" lines are exactly the
// experiments whose artifacts are trustworthy; `knl-repro run --resume
// <id>` replays the journal, verifies each recorded artifact hash, and
// re-executes only the remainder.
//
// The format is deliberately line-oriented JSON (jsonl): appends are a
// single write, a torn final line (crash mid-append) is detected and
// dropped on load, and the file remains greppable.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace knl::repro {

/// One completed experiment, as journaled.
struct JournalEntry {
  std::string id;        ///< experiment id, e.g. "fig2_stream"
  std::string artifact;  ///< artifact filename ("<id>.json")
  std::string sha;       ///< FNV-1a hex of the artifact file's exact bytes

  friend bool operator==(const JournalEntry&, const JournalEntry&) = default;
};

/// A loaded journal: which experiments a previous run finished.
struct RunJournal {
  std::string run_id;
  /// Artifact directory the original run wrote to ("out" header field) —
  /// `--resume` restores it so the printed hint works without re-stating
  /// `--out`. Empty when the header predates the field.
  std::string out_dir;
  /// Machine profile the original run executed ("profile" header field) —
  /// `--resume` restores it so a resumed run can never silently finish the
  /// remainder on a different machine. Empty when the header predates the
  /// field (treated as the default profile).
  std::string profile;
  std::vector<JournalEntry> completed;
  /// True when the file ended in a torn (unparseable) line — the signature
  /// of a crash mid-append. The torn line is dropped; everything before it
  /// is trusted.
  bool truncated_tail = false;

  [[nodiscard]] const JournalEntry* find(const std::string& id) const;
};

/// `<runs_dir>/<run_id>` and `<runs_dir>/<run_id>/journal.jsonl`.
[[nodiscard]] std::string run_dir(const std::string& runs_dir,
                                  const std::string& run_id);
[[nodiscard]] std::string journal_path(const std::string& runs_dir,
                                       const std::string& run_id);

/// Load and validate a journal. Returns nullopt (with *error) when the file
/// is missing, its header is malformed, or it belongs to a different
/// schema. A torn final line is tolerated (see RunJournal::truncated_tail).
[[nodiscard]] std::optional<RunJournal> load_journal(const std::string& runs_dir,
                                                     const std::string& run_id,
                                                     std::string* error);

/// Append-only journal writer. Every record is written, flushed and fsynced
/// before record_done returns; callers record an experiment only once its
/// artifact is durable, so after a crash the journal never claims an
/// experiment the artifact directory cannot back.
class JournalWriter {
 public:
  /// Create `<runs_dir>/<run_id>/journal.jsonl` with a fresh header
  /// recording the run's artifact directory and machine profile (truncating
  /// any previous journal of the same id). The header is flushed, not
  /// fsynced: the first record_done's fsync makes it durable with the
  /// records, so a run pays one journal fsync.
  [[nodiscard]] static std::optional<JournalWriter> create(
      const std::string& runs_dir, const std::string& run_id,
      const std::string& out_dir, std::string* error,
      const std::string& profile = "");

  /// Open an existing journal for appending (resume).
  [[nodiscard]] static std::optional<JournalWriter> append_to(
      const std::string& runs_dir, const std::string& run_id, std::string* error);

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Record one completed experiment; durable on return.
  [[nodiscard]] bool record_done(const JournalEntry& entry, std::string* error);

  /// Record several completed experiments with one write and one fsync;
  /// durable on return (an empty list still fsyncs, making the header
  /// durable).
  [[nodiscard]] bool record_done(const std::vector<JournalEntry>& entries,
                                 std::string* error);

 private:
  explicit JournalWriter(std::FILE* file) : file_(file) {}

  /// Append `lines` (each newline-terminated), flush, and fsync if `sync`.
  [[nodiscard]] bool append(const std::string& lines, bool sync, std::string* error);

  std::FILE* file_ = nullptr;
};

}  // namespace knl::repro
