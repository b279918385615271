// Content-addressed on-disk result store with a completion journal.
//
// Each finished job is persisted as one binary file named by its key hash
// (objects/<hh>/<hash16>.bin under the cache directory), written to a
// temporary path and renamed into place — so a killed sweep leaves either
// a complete, checksummed entry or nothing, never a half-written file, and
// a restarted sweep resumes exactly from the completed jobs. An entry is
// one support::BinaryWriter section: a magic, the full canonical key
// (hash collisions are detected, not trusted), the result, and a trailing
// FNV-1a checksum of all of it. Anything truncated, corrupted, or foreign
// fails support::BinaryReader, loads as a miss, is deleted, and is
// recomputed. journal.log appends one line per completed
// job in completion order — an audit trail for long sweeps; resumption
// itself needs only the entries.
//
// The store is safe to share across *processes*, not just threads: entry
// writes are atomic renames, and journal appends go through one O_APPEND
// write() per record, which POSIX makes atomic with respect to other
// appenders — N serve replicas on one cache directory never interleave
// partial lines. read_journal() tolerates garbage lines regardless (a
// journal predating this guarantee, or a torn line from a crash).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/job.hpp"
#include "mdp/markov_chain.hpp"

namespace engine {

/// The persisted outcome of one analysis job. `seconds` is the wall-clock
/// of the original computation and is replayed verbatim on a cache hit, so
/// downstream reports don't mix solve times with cache-load times.
struct StoredResult {
  double beta_lo = 0.0;
  double beta_hi = 1.0;
  double errev_of_policy = 0.0;  ///< NaN when exact evaluation was off.
  double seconds = 0.0;
  std::int32_t search_iterations = 0;
  std::int64_t solver_iterations = 0;
  std::uint64_t num_states = 0;
  mdp::Policy policy;
};

/// The persisted artifact of one *generic* (composite) job — see
/// engine/generic.hpp. The payload is an opaque byte string; `seconds` is
/// the wall-clock of the original computation, replayed on cache hits.
struct GenericResult {
  std::string payload;
  double seconds = 0.0;
};

class ResultStore {
 public:
  /// An empty `dir` disables the store (every load misses, stores are
  /// no-ops) — the engine then still parallelizes, it just cannot resume.
  explicit ResultStore(std::string dir);

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  /// The entry path of `key` (exposed so tests can corrupt entries).
  std::string entry_path(const JobKey& key) const;

  /// Loads the entry of `key`. Returns nullopt on a miss *or* on any
  /// validation failure (bad magic, length or checksum, truncation,
  /// canonical key mismatch); invalid entries are deleted, and counted in
  /// selfish_engine_store_healed_total, so the slot heals on the next
  /// store. Never throws on a bad entry.
  std::optional<StoredResult> load(const JobKey& key) const;

  /// Atomically persists `result` under `key` and appends to the journal.
  /// Best effort: IO failures are swallowed (the sweep still completes
  /// from memory; only resumability suffers).
  void store(const JobKey& key, const StoredResult& result) const;

  /// Generic-artifact twins of load/store: same directory layout, framing,
  /// atomic-rename discipline, checksum, and canonical-key collision guard,
  /// but a distinct magic — an analysis entry never decodes as a generic
  /// artifact or vice versa.
  std::optional<GenericResult> load_generic(const JobKey& key) const;
  void store_generic(const JobKey& key, const GenericResult& result) const;

  /// Path of the completion journal.
  std::string journal_path() const;

  /// One journal line: the 16-hex entry name and the full canonical key.
  struct JournalRecord {
    std::string hex;
    std::string canonical;
  };

  /// Reads the journal back, skipping anything that is not a well-formed
  /// record (first token not 16 hex chars, no separating space): the
  /// journal is an audit trail, so a damaged line costs one record, never
  /// the read. Empty when the store is disabled or the journal absent.
  std::vector<JournalRecord> read_journal() const;

 private:
  std::string dir_;
};

}  // namespace engine
