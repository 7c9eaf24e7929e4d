#pragma once
// Structured event tracing over a fixed-capacity ring buffer.
//
// Protocol and solver code records typed events (announce, reveal,
// auth outcomes, buffer evictions, replicator steps) stamped with sim
// time. Recording is a no-op branch while disabled (the default) and an
// allocation-free ring write while enabled; when the ring is full the
// oldest events are overwritten, so a trace always holds the tail of
// the run. Traces export as JSONL (one event per line) or as Chrome
// `trace_event` JSON loadable in chrome://tracing / Perfetto.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

namespace dap::obs {

enum class TraceKind : std::uint8_t {
  kAnnounce,      // MAC announcement processed (id = interval)
  kReveal,        // message+key reveal processed (id = interval)
  kAuthSuccess,   // strong authentication accepted a message
  kAuthFail,      // no stored record matched the recomputed uMAC
  kWeakAuthFail,  // disclosed key failed the chain walk
  kBufferEvict,   // a stored record was displaced by a later copy
  kEssStep,       // replicator-dynamics step (a = X, b = Y)
  kRetune,        // adaptive controller changed m (a = new m, b = p-hat)
};

[[nodiscard]] std::string_view trace_kind_name(TraceKind kind) noexcept;

struct TraceEvent {
  TraceKind kind = TraceKind::kAnnounce;
  std::uint32_t id = 0;   // interval / step index, event-kind specific
  std::uint64_t t = 0;    // sim-time stamp (us) or step counter
  double a = 0.0;         // payload, event-kind specific
  double b = 0.0;
};

/// Lifecycle stage a span covers on one announce's path through the
/// fleet: sender broadcast, per-hop relay re-framing, receiver verify.
enum class SpanKind : std::uint8_t {
  kAnnounceSend,  // sender broadcast of the MAC announcement
  kRelayHop,      // first arrival + re-broadcast at one relay/receiver
  kRevealSend,    // sender broadcast of the matching reveal
  kVerify,        // receiver-side reveal verification (tag = outcome)
};

/// Outcome tag on a closed span (kVerify carries the reject reason).
enum class SpanTag : std::uint8_t {
  kNone,          // not an outcome-bearing span
  kAuthOk,        // strong authentication accepted the message
  kWeakAuthFail,  // disclosed key failed the chain walk
  kNoRecord,      // no buffered uMAC record matched (forged / lost MAC)
  kKeyPruned,     // per-interval MAC key already discarded
  kDropped,       // packet never arrived / evicted before verification
};

[[nodiscard]] std::string_view span_kind_name(SpanKind kind) noexcept;
[[nodiscard]] std::string_view span_tag_name(SpanTag tag) noexcept;

/// One closed interval on an announce's causal path. `uid` is assigned
/// by the caller (deterministically, e.g. common::subseed of the trace
/// id and a per-trace sequence) so spans survive shard merges with
/// parent links intact; `parent == 0` marks a root span.
struct SpanEvent {
  std::uint64_t uid = 0;     // caller-assigned, nonzero, unique per run
  std::uint64_t trace = 0;   // trace id shared by every span of one announce
  std::uint64_t parent = 0;  // uid of the causal predecessor (0 = root)
  std::uint64_t t_begin = 0; // sim time (us)
  std::uint64_t t_end = 0;   // sim time (us), >= t_begin
  std::uint32_t node = 0;    // node id; becomes the chrome-trace lane (tid)
  std::uint32_t id = 0;      // interval index
  SpanKind kind = SpanKind::kAnnounceSend;
  SpanTag tag = SpanTag::kNone;
};

class Tracer {
 public:
  /// Both rings are allocated up front, so record() never allocates.
  explicit Tracer(std::size_t capacity = 16384);

  /// A tracer whose rings start empty and grow on demand up to
  /// `capacity`: its memory follows the events recorded, and record()
  /// may allocate until a ring is full. parallel_for shards use it, so a
  /// chunk that records ten events does not pay for a full ring.
  [[nodiscard]] static Tracer growable(std::size_t capacity);

  void enable(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Resizes both rings (events and spans). Only legal while the tracer
  /// is empty — nothing recorded since construction or the last clear()
  /// — because a resize would scramble the ring order; throws
  /// std::logic_error otherwise. Benches size the ring to the run ahead
  /// of time so smoke suites can assert zero drops.
  void set_capacity(std::size_t capacity);

  /// Records one event while enabled; overwrites the oldest event once
  /// `capacity` is exceeded. Never allocates, except while a growable
  /// tracer's ring is still filling.
  void record(TraceKind kind, std::uint64_t t, std::uint32_t id = 0,
              double a = 0.0, double b = 0.0) noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Events currently held (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept;
  /// Events recorded since construction/clear, including overwritten ones.
  [[nodiscard]] std::uint64_t total_recorded() const noexcept {
    return total_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return total_ - size();
  }

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Records one complete (already closed) span while enabled. Spans
  /// live in their own ring with the same overwrite-oldest policy.
  void record_span(const SpanEvent& span) noexcept;

  [[nodiscard]] std::size_t span_capacity() const noexcept {
    return capacity_;
  }
  /// Closed spans currently held (<= span_capacity).
  [[nodiscard]] std::size_t span_size() const noexcept;
  [[nodiscard]] std::uint64_t spans_total_recorded() const noexcept {
    return span_total_;
  }
  [[nodiscard]] std::uint64_t spans_dropped() const noexcept {
    return span_total_ - span_size();
  }

  /// Retained closed spans, oldest first.
  [[nodiscard]] std::vector<SpanEvent> span_snapshot() const;

  /// One JSON object per line. Instant events:
  /// {"kind":"auth_success","id":3,"t":1500000,"a":0,"b":0}
  /// Span events carry a "span" key and come after the instants:
  /// {"span":"relay_hop","uid":..,"trace":..,"parent":..,...}
  void export_jsonl(std::ostream& out) const;
  /// Chrome trace_event JSON ({"traceEvents":[...]}) with instants as
  /// "i" events and spans as "X" complete events on per-node lanes,
  /// linked parent->child with flow ("s"/"f") arrows.
  void export_chrome_trace(std::ostream& out) const;

  void clear() noexcept;

  /// Replays `other`'s retained events and spans into this tracer
  /// (oldest first) via record()/record_span(), so capacity/drop
  /// accounting applies as if they had been recorded here. Used by the
  /// parallel shard merge.
  void append_from(const Tracer& other);

  /// Process-wide tracer (disabled until a caller enables it) — unless
  /// the calling thread has a shard override installed (see
  /// set_thread_override), in which case that shard is returned.
  static Tracer& global();

  /// Installs `tracer` as the calling thread's `global()` (nullptr
  /// restores the process-wide tracer). Returns the previous override.
  static Tracer* set_thread_override(Tracer* tracer) noexcept;

 private:
  // Each ring holds at most capacity_ entries. It fills by push_back
  // (without reallocating unless growable), then wraps: the next write
  // goes to ring_[total_ % capacity_]. clear() keeps the filled storage.
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::uint64_t total_ = 0;
  std::vector<SpanEvent> span_ring_;
  std::uint64_t span_total_ = 0;
  bool enabled_ = false;
};

}  // namespace dap::obs
