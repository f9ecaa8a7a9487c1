#include "repro/journal.hpp"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <utility>

#include "core/fault/atomic_io.hpp"
#include "core/fault/error.hpp"
#include "repro/experiment.hpp"
#include "repro/json.hpp"

namespace knl::repro {

namespace {

constexpr const char* kJournalFile = "journal.jsonl";

std::string header_line(const std::string& run_id, const std::string& out_dir,
                        const std::string& profile) {
  json::Value header = json::Value::object();
  header.set("schema_version", kSchemaVersion);
  header.set("generator", "knl-repro");
  header.set("run_id", run_id);
  header.set("out", out_dir);
  if (!profile.empty()) header.set("profile", profile);
  return header.dump(0);
}

std::string done_line(const JournalEntry& entry) {
  json::Value done = json::Value::object();
  done.set("event", "done");
  done.set("experiment", entry.id);
  done.set("artifact", entry.artifact);
  done.set("sha", entry.sha);
  return done.dump(0);
}

}  // namespace

const JournalEntry* RunJournal::find(const std::string& id) const {
  for (const JournalEntry& entry : completed) {
    if (entry.id == id) return &entry;
  }
  return nullptr;
}

std::string run_dir(const std::string& runs_dir, const std::string& run_id) {
  return (std::filesystem::path(runs_dir) / run_id).string();
}

std::string journal_path(const std::string& runs_dir, const std::string& run_id) {
  return (std::filesystem::path(runs_dir) / run_id / kJournalFile).string();
}

std::optional<RunJournal> load_journal(const std::string& runs_dir,
                                       const std::string& run_id,
                                       std::string* error) {
  const std::string path = journal_path(runs_dir, run_id);
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (error != nullptr) {
      *error = "no journal at " + path + ": " + std::strerror(errno);
    }
    return std::nullopt;
  }
  std::string text;
  char buffer[1 << 14];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) text.append(buffer, got);
  std::fclose(file);

  std::istringstream lines(text);
  std::string line;
  if (!std::getline(lines, line)) {
    if (error != nullptr) *error = path + ": empty journal";
    return std::nullopt;
  }
  const auto header = json::Value::parse(line);
  if (!header || !header->is_object()) {
    if (error != nullptr) *error = path + ": malformed journal header";
    return std::nullopt;
  }
  const json::Value* schema = header->find("schema_version");
  if (schema == nullptr ||
      static_cast<int>(schema->as_number(-1)) != kSchemaVersion) {
    if (error != nullptr) *error = path + ": journal schema version mismatch";
    return std::nullopt;
  }
  const json::Value* id = header->find("run_id");
  if (id == nullptr || id->as_string() != run_id) {
    if (error != nullptr) {
      *error = path + ": journal belongs to run '" +
               (id != nullptr ? id->as_string() : "") + "', not '" + run_id + "'";
    }
    return std::nullopt;
  }

  RunJournal journal;
  journal.run_id = run_id;
  const json::Value* out = header->find("out");
  journal.out_dir = out != nullptr ? out->as_string() : "";
  const json::Value* profile = header->find("profile");
  journal.profile = profile != nullptr ? profile->as_string() : "";
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const auto record = json::Value::parse(line);
    if (!record || !record->is_object()) {
      // A torn trailing line is the expected crash signature; anything
      // unparseable before EOF gets the same conservative treatment — stop
      // trusting the journal from here on.
      journal.truncated_tail = true;
      break;
    }
    const json::Value* event = record->find("event");
    if (event == nullptr || event->as_string() != "done") continue;
    JournalEntry entry;
    const json::Value* exp = record->find("experiment");
    const json::Value* artifact = record->find("artifact");
    const json::Value* sha = record->find("sha");
    entry.id = exp != nullptr ? exp->as_string() : "";
    entry.artifact = artifact != nullptr ? artifact->as_string() : "";
    entry.sha = sha != nullptr ? sha->as_string() : "";
    if (entry.id.empty() || entry.artifact.empty()) {
      journal.truncated_tail = true;
      break;
    }
    journal.completed.push_back(std::move(entry));
  }
  return journal;
}

std::optional<JournalWriter> JournalWriter::create(const std::string& runs_dir,
                                                   const std::string& run_id,
                                                   const std::string& out_dir,
                                                   std::string* error,
                                                   const std::string& profile) {
  std::error_code ec;
  std::filesystem::create_directories(run_dir(runs_dir, run_id), ec);
  if (ec) {
    if (error != nullptr) {
      *error = "could not create " + run_dir(runs_dir, run_id) + ": " + ec.message();
    }
    return std::nullopt;
  }
  const std::string path = journal_path(runs_dir, run_id);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    if (error != nullptr) {
      *error = "could not create " + path + ": " + std::strerror(errno);
    }
    return std::nullopt;
  }
  JournalWriter writer(file);
  if (!writer.write_line(header_line(run_id, out_dir, profile), error)) {
    return std::nullopt;
  }
  return writer;
}

std::optional<JournalWriter> JournalWriter::append_to(const std::string& runs_dir,
                                                      const std::string& run_id,
                                                      std::string* error) {
  const std::string path = journal_path(runs_dir, run_id);
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    if (error != nullptr) {
      *error = "could not open " + path + " for append: " + std::strerror(errno);
    }
    return std::nullopt;
  }
  return JournalWriter(file);
}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : file_(std::exchange(other.file_, nullptr)) {}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = std::exchange(other.file_, nullptr);
  }
  return *this;
}

JournalWriter::~JournalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

bool JournalWriter::record_done(const JournalEntry& entry, std::string* error) {
  return write_line(done_line(entry), error);
}

bool JournalWriter::write_line(const std::string& line, std::string* error) {
  if (file_ == nullptr) {
    if (error != nullptr) *error = "journal writer is closed";
    return false;
  }
  const std::string text = line + "\n";
  const bool ok = std::fwrite(text.data(), 1, text.size(), file_) == text.size() &&
                  std::fflush(file_) == 0 && io::fsync_file(file_);
  if (!ok && error != nullptr) *error = "could not append to journal";
  return ok;
}

}  // namespace knl::repro
