#include "engine/store.hpp"

#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>

#include <fcntl.h>
#include <unistd.h>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "support/binary_io.hpp"
#include "support/check.hpp"

namespace engine {

namespace {

/// Store traffic + self-healing metrics, registered at static init so a
/// fresh `metrics` scrape lists the family before any job runs.
struct StoreMetrics {
  obs::Counter& read_bytes = obs::counter(
      "selfish_engine_store_read_bytes_total",
      "Bytes of framed entries read back from the result store");
  obs::Counter& written_bytes = obs::counter(
      "selfish_engine_store_written_bytes_total",
      "Bytes of framed entries written to the result store");
  obs::Counter& healed = obs::counter(
      "selfish_engine_store_healed_total",
      "Corrupt or stale store entries deleted for recompute");
};

StoreMetrics& store_metrics() {
  static StoreMetrics metrics;
  return metrics;
}

[[maybe_unused]] const StoreMetrics& g_registered_store_metrics =
    store_metrics();

constexpr std::uint64_t kMagic = 0x53454c5245533033ULL;      // "SELRES03"
constexpr std::uint64_t kMagicBlob = 0x53454c424c423032ULL;  // "SELBLB02"

/// Writes the entry of `key` to `path` atomically (support::write_atomically):
/// the magic, the canonical key, `body`, and the checksum of all of it.
/// Concurrent writers and crashes leave complete entries or nothing.
/// Returns false on any IO failure (best effort; callers swallow it).
bool write_entry(const std::string& path, std::uint64_t magic,
                 const JobKey& key,
                 const std::function<void(support::BinaryWriter&)>& body) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  if (ec) return false;
  std::streamoff frame_bytes = 0;
  const bool written =
      support::write_atomically(path, [&](std::ostream& out) {
        support::BinaryWriter writer(out);
        writer.pod(magic);
        writer.array<char>(key.canonical);
        body(writer);
        writer.checksum();
        frame_bytes = out.tellp();
      });
  if (written) {
    store_metrics().written_bytes.add(static_cast<std::uint64_t>(frame_bytes));
  }
  return written;
}

/// Reads the entry of `key` at `path` through `body`; false on a miss. An
/// entry that fails to decode (bad magic, truncation, an implausible
/// length, another key hashing to the same name, a checksum mismatch) is
/// deleted, so the slot heals on the next store, and reads as a miss.
bool read_entry(const std::string& path, std::uint64_t magic,
                const JobKey& key,
                const std::function<void(support::BinaryReader&)>& body) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  try {
    support::BinaryReader reader(in, "store entry");
    SM_REQUIRE(reader.pod<std::uint64_t>() == magic, "bad store entry magic");
    std::string canonical;
    reader.array(canonical);
    // The canonical key is the collision guard: a different key hashing to
    // the same entry must not be served.
    SM_REQUIRE(canonical == key.canonical, "store entry of another key");
    body(reader);
    reader.checksum();
  } catch (const support::Error& error) {
    in.close();
    std::error_code ec;
    std::filesystem::remove(path, ec);  // heal: recompute overwrites
    store_metrics().healed.add(1);
    obs::log_warn("engine", "healed corrupt store entry",
                  {{"path", serve::Json(path)},
                   {"error", serve::Json(error.what())}});
    return false;
  }
  store_metrics().read_bytes.add(static_cast<std::uint64_t>(in.tellg()));
  return true;
}

/// Journal appends interleave from many worker threads of one process.
std::mutex& journal_mutex() {
  static std::mutex mutex;
  return mutex;
}

/// Appends one journal record as a single O_APPEND write(). O_APPEND
/// makes the seek+write atomic against other appenders, and issuing the
/// whole line in one write() keeps records from *different processes*
/// sharing the cache directory from interleaving mid-line (the in-process
/// journal_mutex covers threads; it cannot cover replicas). Best effort,
/// like the entry write it follows.
void append_journal(const std::string& path, const JobKey& key) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return;
  const std::string line = key.hex() + ' ' + key.canonical + '\n';
  [[maybe_unused]] const ssize_t written =
      ::write(fd, line.data(), line.size());
  ::close(fd);
}

}  // namespace

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {}

std::string ResultStore::entry_path(const JobKey& key) const {
  const std::string hex = key.hex();
  return dir_ + "/objects/" + hex.substr(0, 2) + "/" + hex + ".bin";
}

std::string ResultStore::journal_path() const {
  return dir_ + "/journal.log";
}

std::optional<StoredResult> ResultStore::load(const JobKey& key) const {
  if (!enabled()) return std::nullopt;
  StoredResult result;
  const bool hit = read_entry(
      entry_path(key), kMagic, key, [&](support::BinaryReader& reader) {
        result.beta_lo = reader.pod<double>();
        result.beta_hi = reader.pod<double>();
        result.errev_of_policy = reader.pod<double>();
        result.seconds = reader.pod<double>();
        result.search_iterations = reader.pod<std::int32_t>();
        result.solver_iterations = reader.pod<std::int64_t>();
        result.num_states = reader.pod<std::uint64_t>();
        reader.array(result.policy);
      });
  if (!hit) return std::nullopt;
  return result;
}

void ResultStore::store(const JobKey& key, const StoredResult& result) const {
  if (!enabled()) return;
  const bool written = write_entry(
      entry_path(key), kMagic, key, [&](support::BinaryWriter& writer) {
        writer.pod(result.beta_lo);
        writer.pod(result.beta_hi);
        writer.pod(result.errev_of_policy);
        writer.pod(result.seconds);
        writer.pod(result.search_iterations);
        writer.pod(result.solver_iterations);
        writer.pod(result.num_states);
        writer.array<mdp::ActionId>(result.policy);
      });
  if (!written) return;

  const std::lock_guard<std::mutex> lock(journal_mutex());
  append_journal(journal_path(), key);
}

std::optional<GenericResult> ResultStore::load_generic(
    const JobKey& key) const {
  if (!enabled()) return std::nullopt;
  GenericResult result;
  const bool hit = read_entry(
      entry_path(key), kMagicBlob, key, [&](support::BinaryReader& reader) {
        result.seconds = reader.pod<double>();
        reader.array(result.payload);
      });
  if (!hit) return std::nullopt;
  return result;
}

void ResultStore::store_generic(const JobKey& key,
                                const GenericResult& result) const {
  if (!enabled()) return;
  const bool written = write_entry(
      entry_path(key), kMagicBlob, key, [&](support::BinaryWriter& writer) {
        writer.pod(result.seconds);
        writer.array<char>(result.payload);
      });
  if (!written) return;

  const std::lock_guard<std::mutex> lock(journal_mutex());
  append_journal(journal_path(), key);
}

std::vector<ResultStore::JournalRecord> ResultStore::read_journal() const {
  std::vector<JournalRecord> records;
  if (!enabled()) return records;
  std::ifstream in(journal_path());
  if (!in.good()) return records;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t space = line.find(' ');
    if (space != 16 || line.size() <= 17) continue;  // malformed: skip
    const std::string hex = line.substr(0, 16);
    if (hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
      continue;
    }
    records.push_back(JournalRecord{hex, line.substr(17)});
  }
  return records;
}

}  // namespace engine
