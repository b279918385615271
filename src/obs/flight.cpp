#include "obs/flight.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>

#include "obs/trace.hpp"
#include "serve/json.hpp"

namespace obs {

namespace {

constexpr std::size_t kCapacity = 4096;

struct Slot {
  std::atomic<std::uint64_t> version{0};  ///< Odd = write in progress.
  FlightRecord record;
};

struct Ring {
  std::atomic<std::uint64_t> ticket{0};
  Slot* slots = new Slot[kCapacity];
};

/// Leaked on purpose: spans may still finish during static destruction
/// of other translation units, and the ring must outlive them all.
Ring& ring() {
  static Ring* instance = new Ring;
  return *instance;
}

}  // namespace

std::size_t flight_capacity() { return kCapacity; }

void flight_record(const FlightRecord& record) {
  Ring& r = ring();
  const std::uint64_t ticket =
      r.ticket.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = r.slots[ticket % kCapacity];
  std::uint64_t version = slot.version.load(std::memory_order_relaxed);
  if ((version & 1) != 0) return;  // wrapped onto a mid-write slot; drop
  if (!slot.version.compare_exchange_strong(version, version + 1,
                                            std::memory_order_acq_rel)) {
    return;  // lost the slot to a writer a full wrap ahead; drop
  }
  slot.record = record;
  slot.version.store(version + 2, std::memory_order_release);
}

std::vector<FlightRecord> flight_snapshot() {
  Ring& r = ring();
  const std::uint64_t end = r.ticket.load(std::memory_order_acquire);
  const std::uint64_t begin = end > kCapacity ? end - kCapacity : 0;
  std::vector<FlightRecord> out;
  out.reserve(static_cast<std::size_t>(end - begin));
  for (std::uint64_t ticket = begin; ticket < end; ++ticket) {
    Slot& slot = r.slots[ticket % kCapacity];
    // Seqlock read: copy, then confirm the version did not move. A few
    // retries ride out an in-progress write; persistent churn on one
    // slot just loses that slot from this snapshot.
    for (int attempt = 0; attempt < 4; ++attempt) {
      const std::uint64_t v1 = slot.version.load(std::memory_order_acquire);
      if (v1 == 0) break;            // never written
      if ((v1 & 1) != 0) continue;   // mid-write
      FlightRecord copy = slot.record;
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.version.load(std::memory_order_relaxed) == v1) {
        out.push_back(copy);
        break;
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.span_id < b.span_id;
            });
  return out;
}

std::string render_span_line(const FlightRecord& record) {
  const std::size_t name_len =
      ::strnlen(record.name, FlightRecord::kNameBytes);
  serve::JsonMembers members;
  members.emplace_back("span",
                       serve::Json(std::string(record.name, name_len)));
  members.emplace_back("trace_id",
                       serve::Json(format_trace_id(record.trace_id)));
  members.emplace_back("span_id",
                       serve::Json(format_trace_id(record.span_id)));
  if (record.parent_id != 0) {
    members.emplace_back("parent_id",
                         serve::Json(format_trace_id(record.parent_id)));
  }
  members.emplace_back("start", serve::Json(record.start));
  members.emplace_back("end", serve::Json(record.start + record.dur));
  members.emplace_back("dur", serve::Json(record.dur));
  std::string line = serve::Json::object(std::move(members)).dump();
  const std::size_t attrs_len =
      ::strnlen(record.attrs, FlightRecord::kAttrsBytes);
  if (attrs_len > 0) {
    // The attrs buffer already holds a rendered JSON object — splice it
    // in behind the fixed fields (same technique as render_result).
    line.pop_back();
    line += ",\"attrs\":";
    line.append(record.attrs, attrs_len);
    line += "}";
  }
  return line;
}

std::string flight_dump_ndjson() {
  std::string out;
  for (const FlightRecord& record : flight_snapshot()) {
    out += render_span_line(record);
    out += '\n';
  }
  return out;
}

void flight_reset() {
  Ring& r = ring();
  for (std::size_t i = 0; i < kCapacity; ++i) {
    r.slots[i].version.store(0, std::memory_order_relaxed);
    r.slots[i].record = FlightRecord{};
  }
  r.ticket.store(0, std::memory_order_release);
}

}  // namespace obs
