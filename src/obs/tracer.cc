#include "obs/tracer.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "common/csv.h"

namespace dap::obs {

std::string_view trace_kind_name(TraceKind kind) noexcept {
  switch (kind) {
    case TraceKind::kAnnounce:
      return "announce";
    case TraceKind::kReveal:
      return "reveal";
    case TraceKind::kAuthSuccess:
      return "auth_success";
    case TraceKind::kAuthFail:
      return "auth_fail";
    case TraceKind::kWeakAuthFail:
      return "weak_auth_fail";
    case TraceKind::kBufferEvict:
      return "buffer_evict";
    case TraceKind::kEssStep:
      return "ess_step";
    case TraceKind::kRetune:
      return "retune";
  }
  return "unknown";
}

std::string_view span_kind_name(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kAnnounceSend:
      return "announce_send";
    case SpanKind::kRelayHop:
      return "relay_hop";
    case SpanKind::kRevealSend:
      return "reveal_send";
    case SpanKind::kVerify:
      return "verify";
  }
  return "unknown";
}

std::string_view span_tag_name(SpanTag tag) noexcept {
  switch (tag) {
    case SpanTag::kNone:
      return "none";
    case SpanTag::kAuthOk:
      return "auth_ok";
    case SpanTag::kWeakAuthFail:
      return "weak_auth_fail";
    case SpanTag::kNoRecord:
      return "no_record";
    case SpanTag::kKeyPruned:
      return "key_pruned";
    case SpanTag::kDropped:
      return "dropped";
  }
  return "unknown";
}

namespace {

/// Writes `entry` as the `total`-th record of a ring bounded by
/// `capacity`, appending while the ring is still filling.
template <typename T>
void ring_write(std::vector<T>& ring, std::uint64_t& total,
                std::size_t capacity, const T& entry) {
  const auto slot = static_cast<std::size_t>(total % capacity);
  if (slot < ring.size()) {
    ring[slot] = entry;
  } else {
    ring.push_back(entry);  // slot == ring.size(): writes are sequential
  }
  ++total;
}

}  // namespace

Tracer::Tracer(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
  span_ring_.reserve(capacity_);
}

Tracer Tracer::growable(std::size_t capacity) {
  Tracer tracer(1);
  tracer.capacity_ = capacity == 0 ? 1 : capacity;
  return tracer;
}

void Tracer::set_capacity(std::size_t capacity) {
  if (total_ != 0 || span_total_ != 0) {
    throw std::logic_error(
        "Tracer::set_capacity: tracer must be empty (clear() first)");
  }
  const bool enabled = enabled_;
  *this = Tracer(capacity);
  enabled_ = enabled;
}

void Tracer::record(TraceKind kind, std::uint64_t t, std::uint32_t id,
                    double a, double b) noexcept {
  if (!enabled_) return;
  ring_write(ring_, total_, capacity_, TraceEvent{kind, id, t, a, b});
}

std::size_t Tracer::size() const noexcept {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(total_, capacity_));
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::uint64_t first = total_ - n;
  for (std::uint64_t i = first; i < total_; ++i) {
    out.push_back(ring_[i % capacity_]);
  }
  return out;
}

void Tracer::record_span(const SpanEvent& span) noexcept {
  if (!enabled_) return;
  ring_write(span_ring_, span_total_, capacity_, span);
}

std::size_t Tracer::span_size() const noexcept {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(span_total_, capacity_));
}

std::vector<SpanEvent> Tracer::span_snapshot() const {
  std::vector<SpanEvent> out;
  const std::size_t n = span_size();
  out.reserve(n);
  const std::uint64_t first = span_total_ - n;
  for (std::uint64_t i = first; i < span_total_; ++i) {
    out.push_back(span_ring_[i % capacity_]);
  }
  return out;
}

void Tracer::export_jsonl(std::ostream& out) const {
  for (const TraceEvent& e : snapshot()) {
    out << "{\"kind\":\"" << trace_kind_name(e.kind) << "\",\"id\":" << e.id
        << ",\"t\":" << e.t << ",\"a\":" << common::format_number(e.a)
        << ",\"b\":" << common::format_number(e.b) << "}\n";
  }
  for (const SpanEvent& s : span_snapshot()) {
    out << "{\"span\":\"" << span_kind_name(s.kind) << "\",\"uid\":" << s.uid
        << ",\"trace\":" << s.trace << ",\"parent\":" << s.parent
        << ",\"node\":" << s.node << ",\"id\":" << s.id
        << ",\"t_begin\":" << s.t_begin << ",\"t_end\":" << s.t_end
        << ",\"tag\":\"" << span_tag_name(s.tag) << "\"}\n";
  }
}

void Tracer::export_chrome_trace(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : snapshot()) {
    if (!first) out << ',';
    first = false;
    // Instant events on one process/thread lane; sim time is already in
    // microseconds, which is exactly trace_event's "ts" unit.
    out << "\n{\"name\":\"" << trace_kind_name(e.kind)
        << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":1,\"ts\":" << e.t
        << ",\"args\":{\"id\":" << e.id << ",\"a\":"
        << common::format_number(e.a) << ",\"b\":" << common::format_number(e.b)
        << "}}";
  }
  // Spans render as "X" complete events on per-node lanes, plus a flow
  // arrow from each retained parent's end to the child's begin so
  // chrome://tracing draws one announce's cross-hop path as a chain.
  const std::vector<SpanEvent> spans = span_snapshot();
  // Parent lookup via a uid-sorted index instead of a hash map: exports
  // must be bitwise stable by construction, so nothing in this path may
  // depend on hash-seeded layout. stable_sort + first-match keeps the
  // "first event wins" semantics for a (never expected) duplicate uid.
  std::vector<std::pair<std::uint64_t, const SpanEvent*>> by_uid;
  by_uid.reserve(spans.size());
  for (const SpanEvent& s : spans) by_uid.emplace_back(s.uid, &s);
  std::stable_sort(by_uid.begin(), by_uid.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  const auto find_span = [&by_uid](std::uint64_t uid) -> const SpanEvent* {
    const auto it = std::lower_bound(
        by_uid.begin(), by_uid.end(), uid,
        [](const auto& entry, std::uint64_t key) { return entry.first < key; });
    return it != by_uid.end() && it->first == uid ? it->second : nullptr;
  };
  for (const SpanEvent& s : spans) {
    if (!first) out << ',';
    first = false;
    const std::uint64_t dur = s.t_end > s.t_begin ? s.t_end - s.t_begin : 1;
    out << "\n{\"name\":\"" << span_kind_name(s.kind)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.node
        << ",\"ts\":" << s.t_begin << ",\"dur\":" << dur
        << ",\"args\":{\"trace\":" << s.trace << ",\"uid\":" << s.uid
        << ",\"parent\":" << s.parent << ",\"interval\":" << s.id
        << ",\"tag\":\"" << span_tag_name(s.tag) << "\"}}";
    const SpanEvent* parent = s.parent != 0 ? find_span(s.parent) : nullptr;
    if (parent != nullptr) {
      out << ",\n{\"name\":\"hop\",\"ph\":\"s\",\"id\":" << s.uid
          << ",\"pid\":1,\"tid\":" << parent->node
          << ",\"ts\":" << parent->t_end << "}";
      out << ",\n{\"name\":\"hop\",\"ph\":\"f\",\"bp\":\"e\",\"id\":" << s.uid
          << ",\"pid\":1,\"tid\":" << s.node << ",\"ts\":" << s.t_begin
          << "}";
    }
  }
  out << "\n]}\n";
}

void Tracer::clear() noexcept {
  total_ = 0;
  span_total_ = 0;
}

void Tracer::append_from(const Tracer& other) {
  if (!enabled_) return;
  for (const TraceEvent& e : other.snapshot()) {
    record(e.kind, e.t, e.id, e.a, e.b);
  }
  for (const SpanEvent& s : other.span_snapshot()) {
    record_span(s);
  }
}

namespace {
thread_local Tracer* tls_tracer_override = nullptr;
}  // namespace

Tracer& Tracer::global() {
  if (tls_tracer_override != nullptr) return *tls_tracer_override;
  static Tracer instance;  // dap-lint: allow(global-state)
  return instance;
}

Tracer* Tracer::set_thread_override(Tracer* tracer) noexcept {
  Tracer* prev = tls_tracer_override;
  tls_tracer_override = tracer;
  return prev;
}

}  // namespace dap::obs
