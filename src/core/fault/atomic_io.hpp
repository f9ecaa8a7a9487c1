// Crash-safe file IO: write-temp-fsync-rename, so a reader (or a crashed
// writer) never observes a half-written artifact or golden baseline.
//
// A set of files written together into one directory (a run's artifacts
// plus its manifest, a bless, a matrix profile) goes through
// atomic_write_files, which pays one durability barrier for the whole set
// instead of one fsync per file:
//   1. write every `name.tmp`;
//   2. one barrier: syncfs(2) on Linux, else each temp file is fsynced
//      (_commit on Windows) as it is written;
//   3. rename each temp file over its destination;
//   4. fsync the directory once, so the renames are durable too.
// A failure before step 3 removes every temp file and changes no
// destination; after a crash each file is either its old or its new self.
// syncfs trades precision for batching: it flushes every dirty page of the
// whole filesystem, not just this set's, so a busy neighbour's writeback
// is paid here; and before Linux 5.8 it does not report writeback errors
// (the data may be lost without a failed return).
//
// The writers and read_text_file double as fault-injection points: every
// file write passes through the "json-write" site and read_text_file
// through "json-read", keyed by the FNV hash of the file's basename — so an
// injected transient IO fault targets the same files on every run,
// whatever the write order. When a plan is armed these helpers may
// therefore throw knl::Error (Transient by default); real IO failures are
// reported via the bool/optional returns, never exceptions.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace knl::io {

/// Atomically replace `path` with `text`: write `path`+".tmp", flush,
/// fsync, then rename over the destination. Returns false (with *error)
/// on IO failure; the temp file is removed on any failure path.
[[nodiscard]] bool atomic_write_file(const std::string& path,
                                     const std::string& text,
                                     std::string* error);

/// One file of an atomic_write_files batch: its name inside the batch's
/// directory, and its full contents.
struct FileWrite {
  std::string name;
  std::string text;
};

/// Durably replace every `dir/files[i].name` with its text as one batch
/// (the protocol above). Each file's write absorbs Transient knl::Errors
/// like write_file_with_retry, keyed by its name; a non-transient error
/// propagates after every temp file is removed. Returns false (with
/// *error) on IO failure; a failure once renaming has begun (a rename, or
/// the final directory fsync) leaves each file old or new.
[[nodiscard]] bool atomic_write_files(const std::string& dir,
                                      const std::vector<FileWrite>& files,
                                      std::string* error);

/// fsync (_commit on Windows) a flushed stdio stream; false on failure.
[[nodiscard]] bool fsync_file(std::FILE* file);

/// Read a whole file of at most `max_bytes` bytes; nullopt (with *error)
/// when missing, unreadable, or longer than the cap — so an endless device
/// such as /dev/full reads as an error instead of growing the heap.
[[nodiscard]] std::optional<std::string> read_text_file(const std::string& path,
                                                        std::size_t max_bytes,
                                                        std::string* error);

/// Retrying variants for production call sites: absorb Transient
/// knl::Errors (injected IO faults, flaky filesystems) with the default
/// bounded backoff, keyed by the file's basename so the schedule is
/// deterministic. Non-transient errors and exhausted budgets propagate;
/// real IO failures still report via the bool/optional returns.
[[nodiscard]] bool write_file_with_retry(const std::string& path,
                                         const std::string& text,
                                         std::string* error);
[[nodiscard]] std::optional<std::string> read_file_with_retry(
    const std::string& path, std::size_t max_bytes, std::string* error);

/// FNV-1a 64 content hash — the artifact digest the run journal records.
[[nodiscard]] std::uint64_t fnv1a(std::string_view text) noexcept;

/// fnv1a as a fixed-width 16-char lowercase hex string.
[[nodiscard]] std::string fnv1a_hex(std::string_view text);

}  // namespace knl::io
