// Request-scoped trace spans with NDJSON export and an always-on
// flight recorder.
//
// A Span is an RAII marker around a unit of work (a solve, a chain, a
// scenario run, a request). Spans carry Dapper-style identity: a 64-bit
// `trace_id` shared by every span of one logical request, a unique
// `span_id`, and the `parent_id` of the enclosing span. The current
// (trace_id, span_id) pair lives in a thread-local TraceContext;
// constructing a span pushes itself as the current context and the
// destructor pops it, so nesting works without any plumbing. Crossing a
// support::ThreadPool keeps the tree intact: submit() captures the
// enqueuing thread's context and the worker restores it around the job.
//
// Every completed span is recorded in the in-memory flight recorder ring
// (obs/flight.hpp) whenever observability is enabled at runtime — even
// with no trace file open — so the recent past is always dumpable
// (`trace-dump` admin kind, SIGUSR1 on the server). When a sink is open
// (`--trace-out <file>`), each span additionally writes one NDJSON line
// at scope exit:
//
//   {"span":"mdp.value_iteration","trace_id":"00000000000000a1",
//    "span_id":"00000000000000a4","parent_id":"00000000000000a2",
//    "start":0.0123,"end":1.9871,"dur":1.9748,
//    "attrs":{"states":1218000,"iterations":412}}
//
// Times are seconds on the steady clock since the process-wide trace
// clock started (first obs use), so lines sort chronologically. Ids
// render as 16 lowercase hex digits and are process-local. Like metrics,
// spans observe only — they never alter any artifact the system renders.
#pragma once

#include <cstdint>
#include <string>

#include "serve/json.hpp"
#include "support/timer.hpp"

namespace obs {

/// The propagated identity of the work currently executing on a thread:
/// which request tree it belongs to (trace_id) and which span is the
/// innermost open one (span_id — the parent of any span opened next).
/// Zero ids mean "no active trace".
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

/// 16 lowercase hex digits (the wire form of trace ids).
std::string format_trace_id(std::uint64_t id);

/// Parses 1..16 hex digits into an id; returns 0 (never a valid id) on
/// malformed input, including "0" itself.
std::uint64_t parse_trace_id(const std::string& hex);

/// The calling thread's current trace context (zeros when no span is
/// open on this thread).
TraceContext current_context();

/// RAII: installs `context` as the thread's current trace context and
/// restores the previous one on destruction. Used by ThreadPool workers
/// to adopt the submitting thread's context for the duration of a job.
class ContextScope {
 public:
  explicit ContextScope(TraceContext context);
  ~ContextScope();

  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  TraceContext saved_;
};

/// Opens `path` as the process-wide NDJSON trace sink (truncating).
/// Throws std::runtime_error if the file cannot be opened. Reopening
/// switches sinks.
void open_trace(const std::string& path);

/// Flushes and closes the sink; spans keep feeding the flight recorder.
void close_trace();

/// True while a trace sink is open.
bool tracing();

/// One traced scope. Active whenever observability is enabled at runtime
/// (obs::enabled()); inactive spans cost one relaxed atomic load and
/// allocate nothing. attr() values ride along in the span's "attrs"
/// object — keep them to identifiers and counts, not payloads.
class Span {
 public:
  explicit Span(const char* name);
  /// Root-span variant adopting a caller-supplied trace id (serve
  /// requests carrying a client `trace_id`); 0 falls back to inheriting
  /// the current context's trace or minting a fresh one.
  Span(const char* name, std::uint64_t trace_id);
  ~Span() = default;

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void attr(const char* key, serve::Json value);

  /// This span's ids; 0 when the span is inactive.
  std::uint64_t trace_id() const { return context_.trace_id; }
  std::uint64_t span_id() const { return context_.span_id; }

 private:
  void finish(double elapsed_seconds);

  bool active_;
  const char* name_;
  TraceContext context_;          ///< This span's (trace_id, span_id).
  std::uint64_t parent_id_ = 0;   ///< Enclosing span at construction.
  TraceContext saved_;            ///< Thread context restored in finish().
  double start_ = 0.0;
  serve::JsonMembers attrs_;
  // Must be the last member: its sink runs in ~Span before the other
  // members are destroyed, and it reads name_/start_/attrs_.
  support::ScopedTimer timer_;
};

}  // namespace obs
