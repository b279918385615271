#include "engine/store.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "support/binary_io.hpp"
#include "support/hash.hpp"

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

constexpr std::uint64_t kMagic = 0x53454c5245533031ULL;     // "SELRES01"
constexpr std::uint64_t kMagicBlob = 0x53454c424c423031ULL;  // "SELBLB01"
constexpr std::uint64_t kMaxPayload = 1ULL << 32;            // sanity bound

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool read_pod(std::istream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return in.good();
}

template <typename T>
void write_vector(std::ostream& out, const std::vector<T>& v) {
  write_pod<std::uint64_t>(out, v.size());
  if (!v.empty()) {
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(T)));
  }
}

template <typename T>
bool read_vector(std::istream& in, std::vector<T>& v) {
  std::uint64_t size = 0;
  if (!read_pod(in, size)) return false;
  // Never allocate more than the stream still holds (guards against a
  // crafted length field; random corruption is caught by the checksum).
  const std::streamsize avail = in.rdbuf()->in_avail();
  if (avail < 0 || size > static_cast<std::uint64_t>(avail) / sizeof(T)) {
    return false;
  }
  v.resize(size);
  if (size > 0) {
    in.read(reinterpret_cast<char*>(v.data()),
            static_cast<std::streamsize>(size * sizeof(T)));
    if (!in.good()) return false;
  }
  return true;
}

std::string encode_payload(const JobKey& key, const StoredResult& result) {
  std::ostringstream out(std::ios::binary);
  write_pod<std::uint64_t>(out, key.canonical.size());
  out.write(key.canonical.data(),
            static_cast<std::streamsize>(key.canonical.size()));
  write_pod(out, result.errev_lower_bound);
  write_pod(out, result.beta_lo);
  write_pod(out, result.beta_hi);
  write_pod(out, result.errev_of_policy);
  write_pod(out, result.seconds);
  write_pod(out, result.search_iterations);
  write_pod(out, result.solver_iterations);
  write_pod(out, result.num_states);
  write_vector(out, result.policy);
  write_vector(out, result.values);
  return out.str();
}

bool decode_payload(const std::string& payload, const JobKey& key,
                    StoredResult& result) {
  std::istringstream in(payload, std::ios::binary);
  std::uint64_t key_size = 0;
  if (!read_pod(in, key_size) || key_size > payload.size()) return false;
  std::string canonical(key_size, '\0');
  in.read(canonical.data(), static_cast<std::streamsize>(key_size));
  // The canonical key is the collision guard: a different key hashing to
  // the same entry must not be served.
  if (!in.good() || canonical != key.canonical) return false;
  return read_pod(in, result.errev_lower_bound) &&
         read_pod(in, result.beta_lo) && read_pod(in, result.beta_hi) &&
         read_pod(in, result.errev_of_policy) &&
         read_pod(in, result.seconds) &&
         read_pod(in, result.search_iterations) &&
         read_pod(in, result.solver_iterations) &&
         read_pod(in, result.num_states) &&
         read_vector(in, result.policy) && read_vector(in, result.values);
}

std::string encode_generic(const JobKey& key, const GenericResult& result) {
  std::ostringstream out(std::ios::binary);
  write_pod<std::uint64_t>(out, key.canonical.size());
  out.write(key.canonical.data(),
            static_cast<std::streamsize>(key.canonical.size()));
  write_pod(out, result.seconds);
  write_pod<std::uint64_t>(out, result.payload.size());
  out.write(result.payload.data(),
            static_cast<std::streamsize>(result.payload.size()));
  return out.str();
}

bool decode_generic(const std::string& payload, const JobKey& key,
                    GenericResult& result) {
  std::istringstream in(payload, std::ios::binary);
  std::uint64_t key_size = 0;
  if (!read_pod(in, key_size) || key_size > payload.size()) return false;
  std::string canonical(key_size, '\0');
  in.read(canonical.data(), static_cast<std::streamsize>(key_size));
  if (!in.good() || canonical != key.canonical) return false;
  if (!read_pod(in, result.seconds)) return false;
  std::uint64_t body_size = 0;
  if (!read_pod(in, body_size) || body_size > payload.size()) return false;
  result.payload.assign(body_size, '\0');
  if (body_size > 0) {
    in.read(result.payload.data(), static_cast<std::streamsize>(body_size));
    if (!in.good()) return false;
  }
  return true;
}

/// Reads one framed entry (magic + size + payload + FNV checksum) from
/// `path`; any validation failure deletes the entry (the slot heals on
/// the next store) and returns nullopt.
std::optional<std::string> read_frame(const std::string& path,
                                      std::uint64_t expected_magic) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;

  const auto reject = [&]() -> std::optional<std::string> {
    in.close();
    std::error_code ec;
    std::filesystem::remove(path, ec);  // heal: recompute overwrites
    store_metrics().healed.add(1);
    obs::log_warn("engine", "healed corrupt store entry (bad frame)",
                  {{"path", serve::Json(path)}});
    return std::nullopt;
  };

  // A corrupted size field must reject cheaply, never allocate: bound the
  // declared payload by what the file can actually hold (header 16 bytes
  // + trailing 8-byte checksum).
  std::error_code size_ec;
  const std::uintmax_t file_size = std::filesystem::file_size(path, size_ec);
  if (size_ec || file_size < 24 || file_size > kMaxPayload) return reject();

  std::uint64_t magic = 0, payload_size = 0;
  if (!read_pod(in, magic) || magic != expected_magic) return reject();
  if (!read_pod(in, payload_size) || payload_size > file_size - 24) {
    return reject();
  }
  std::string payload(payload_size, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(payload_size));
  if (!in.good()) return reject();
  std::uint64_t checksum = 0;
  if (!read_pod(in, checksum) ||
      checksum != support::fnv1a64(payload.data(), payload.size())) {
    return reject();
  }
  // Frame = 16-byte header + payload + 8-byte checksum.
  store_metrics().read_bytes.add(payload.size() + 24);
  return payload;
}

/// Writes one framed entry to `path` atomically (support::write_atomically):
/// concurrent writers and crashes leave complete entries or nothing.
/// Returns false on any IO failure (best effort; callers swallow it).
bool write_frame(const std::string& path, std::uint64_t magic,
                 const std::string& payload) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  if (ec) return false;
  const bool written =
      support::write_atomically(path, [&](std::ostream& out) {
        write_pod(out, magic);
        write_pod<std::uint64_t>(out, payload.size());
        out.write(payload.data(),
                  static_cast<std::streamsize>(payload.size()));
        write_pod<std::uint64_t>(
            out, support::fnv1a64(payload.data(), payload.size()));
      });
  if (written) store_metrics().written_bytes.add(payload.size() + 24);
  return written;
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
  const std::string path = entry_path(key);
  const std::optional<std::string> payload = read_frame(path, kMagic);
  if (!payload.has_value()) return std::nullopt;

  StoredResult result;
  if (!decode_payload(*payload, key, result)) {
    std::error_code ec;
    std::filesystem::remove(path, ec);  // heal: recompute overwrites
    store_metrics().healed.add(1);
    obs::log_warn("engine", "healed corrupt store entry (bad payload)",
                  {{"path", serve::Json(path)}});
    return std::nullopt;
  }
  return result;
}

void ResultStore::store(const JobKey& key, const StoredResult& result) const {
  if (!enabled()) return;
  if (!write_frame(entry_path(key), kMagic, encode_payload(key, result))) {
    return;
  }

  const std::lock_guard<std::mutex> lock(journal_mutex());
  append_journal(journal_path(), key);
}

std::optional<GenericResult> ResultStore::load_generic(
    const JobKey& key) const {
  if (!enabled()) return std::nullopt;
  const std::string path = entry_path(key);
  const std::optional<std::string> payload = read_frame(path, kMagicBlob);
  if (!payload.has_value()) return std::nullopt;

  GenericResult result;
  if (!decode_generic(*payload, key, result)) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    store_metrics().healed.add(1);
    obs::log_warn("engine", "healed corrupt store entry (bad payload)",
                  {{"path", serve::Json(path)}});
    return std::nullopt;
  }
  return result;
}

void ResultStore::store_generic(const JobKey& key,
                                const GenericResult& result) const {
  if (!enabled()) return;
  if (!write_frame(entry_path(key), kMagicBlob,
                   encode_generic(key, result))) {
    return;
  }

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
