#include "core/fault/atomic_io.hpp"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "core/fault/fault_injection.hpp"
#include "core/fault/retry.hpp"

#ifdef _WIN32
#include <io.h>
#else
#include <fcntl.h>
#include <unistd.h>
#endif

namespace knl::io {

bool fsync_file(std::FILE* file) {
#ifdef _WIN32
  return _commit(_fileno(file)) == 0;
#else
  return ::fsync(fileno(file)) == 0;
#endif
}

namespace {

// Linux batches use one syncfs barrier; elsewhere each temp file is fsynced
// as it is written, before any rename.
#ifdef __linux__
constexpr bool kSyncfsBarrier = true;
#else
constexpr bool kSyncfsBarrier = false;
#endif

std::uint64_t basename_key(const std::string& path) {
  return fault::site_key(std::filesystem::path(path).filename().string());
}

bool fail_with(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

/// Write `text` to `temp`, fsyncing it when `sync`; `temp` is removed on
/// failure.
bool write_temp(const std::string& temp, const std::string& text, bool sync,
                std::string* error) {
  std::FILE* file = std::fopen(temp.c_str(), "wb");
  if (file == nullptr) {
    return fail_with(error, "could not open " + temp + ": " + std::strerror(errno));
  }
  const bool written =
      std::fwrite(text.data(), 1, text.size(), file) == text.size() &&
      std::fflush(file) == 0 && (!sync || fsync_file(file));
  if (std::fclose(file) != 0 || !written) {
    std::remove(temp.c_str());
    return fail_with(error, "could not write " + temp);
  }
  return true;
}

bool rename_temp(const std::string& temp, const std::string& path,
                 std::string* error) {
  if (std::rename(temp.c_str(), path.c_str()) == 0) return true;
  return fail_with(error, "could not rename " + temp + " -> " + path + ": " +
                              std::strerror(errno));
}

/// fsync the directory `dir`, or with `whole_filesystem` syncfs the
/// filesystem holding it (Linux only). Windows cannot flush a directory.
bool sync_directory([[maybe_unused]] const std::string& dir,
                    [[maybe_unused]] bool whole_filesystem,
                    [[maybe_unused]] std::string* error) {
#ifndef _WIN32
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return fail_with(error, "could not open " + dir + ": " + std::strerror(errno));
#ifdef __linux__
  const bool synced = (whole_filesystem ? ::syncfs(fd) : ::fsync(fd)) == 0;
#else
  const bool synced = ::fsync(fd) == 0;
#endif
  const int sync_errno = errno;
  ::close(fd);
  if (!synced) return fail_with(error, "could not sync " + dir + ": " + std::strerror(sync_errno));
#endif
  return true;
}

/// The temp files of one batch; every one not yet renamed is removed when
/// this goes out of scope, exceptions included.
struct PendingTemps {
  std::vector<std::string> paths;
  std::size_t renamed = 0;

  PendingTemps() = default;
  PendingTemps(const PendingTemps&) = delete;
  PendingTemps& operator=(const PendingTemps&) = delete;
  ~PendingTemps() {
    for (std::size_t i = renamed; i < paths.size(); ++i) std::remove(paths[i].c_str());
  }
};

}  // namespace

bool atomic_write_file(const std::string& path, const std::string& text,
                       std::string* error) {
  fault::maybe_inject(fault::kSiteJsonWrite, basename_key(path));

  const std::string temp = path + ".tmp";
  if (!write_temp(temp, text, /*sync=*/true, error)) return false;
  if (!rename_temp(temp, path, error)) {
    std::remove(temp.c_str());
    return false;
  }
  return true;
}

bool atomic_write_files(const std::string& dir, const std::vector<FileWrite>& files,
                        std::string* error) {
  PendingTemps temps;
  temps.paths.reserve(files.size());
  for (const FileWrite& file : files) {
    const std::uint64_t key = basename_key(file.name);
    const std::string& temp =
        temps.paths.emplace_back((std::filesystem::path(dir) / file.name).string() + ".tmp");
    const bool written = fault::with_retry(fault::RetryPolicy{}, key, [&] {
      fault::maybe_inject(fault::kSiteJsonWrite, key);
      return write_temp(temp, file.text, /*sync=*/!kSyncfsBarrier, error);
    });
    if (!written) return false;
  }
  if (kSyncfsBarrier && !sync_directory(dir, /*whole_filesystem=*/true, error)) return false;
  for (; temps.renamed < files.size(); ++temps.renamed) {
    const std::string path = (std::filesystem::path(dir) / files[temps.renamed].name).string();
    if (!rename_temp(temps.paths[temps.renamed], path, error)) return false;
  }
  return sync_directory(dir, /*whole_filesystem=*/false, error);
}

std::optional<std::string> read_text_file(const std::string& path,
                                          std::size_t max_bytes, std::string* error) {
  fault::maybe_inject(fault::kSiteJsonRead, basename_key(path));

  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (error != nullptr) {
      *error = "could not open " + path + ": " + std::strerror(errno);
    }
    return std::nullopt;
  }
  std::string text;
  char buffer[1 << 16];
  std::size_t got = 0;
  bool too_long = false;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    if (got > max_bytes - text.size()) {
      too_long = true;
      break;
    }
    text.append(buffer, got);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (too_long || failed) {
    if (error != nullptr) {
      *error = too_long ? path + " exceeds " + std::to_string(max_bytes) + " bytes"
                        : "could not read " + path;
    }
    return std::nullopt;
  }
  return text;
}

bool write_file_with_retry(const std::string& path, const std::string& text,
                           std::string* error) {
  return fault::with_retry(fault::RetryPolicy{}, basename_key(path),
                           [&] { return atomic_write_file(path, text, error); });
}

std::optional<std::string> read_file_with_retry(const std::string& path,
                                                std::size_t max_bytes,
                                                std::string* error) {
  return fault::with_retry(fault::RetryPolicy{}, basename_key(path),
                           [&] { return read_text_file(path, max_bytes, error); });
}

std::uint64_t fnv1a(std::string_view text) noexcept {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string fnv1a_hex(std::string_view text) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, fnv1a(text));
  return buf;
}

}  // namespace knl::io
