#include "dap/dap.h"

#include <iterator>
#include <optional>
#include <stdexcept>

#include "common/contracts.h"
#include "obs/scoped_timer.h"
#include "obs/tracer.h"

namespace dap::protocol {

DapReceiver::Telemetry DapReceiver::make_telemetry() {
  auto& reg = obs::Registry::global();
  return {
      reg.counter("dap.announces_received"),
      reg.counter("dap.announces_unsafe"),
      reg.counter("dap.records_offered"),
      reg.counter("dap.records_stored"),
      reg.counter("dap.buffer_evictions"),
      reg.counter("dap.reveals_received"),
      reg.counter("dap.weak_auth_failures"),
      reg.counter("dap.strong_auth_success"),
      reg.counter("dap.strong_auth_failures"),
      reg.counter("dap.admissions_shed"),
      reg.counter("dap.crash_restarts"),
      reg.counter("dap.mac_key_derivations"),
      reg.counter("dap.reveal_batches"),
      reg.counter("dap.batched_reveals"),
      reg.histogram("dap.rx_announce_us"),
      reg.histogram("dap.rx_reveal_us"),
      reg.gauge("dap.effective_buffers"),
  };
}

DapSender::DapSender(const DapConfig& config, common::ByteView seed)
    : config_(config),
      chain_(seed, config.chain_length, crypto::PrfDomain::kChainStep,
             config.key_size) {
  if (config_.disclosure_delay == 0) {
    throw std::invalid_argument("DapSender: disclosure_delay must be >= 1");
  }
}

wire::MacAnnounce DapSender::announce(std::uint32_t i,
                                      common::ByteView message) {
  if (i == 0 || i > chain_.length()) {
    throw std::out_of_range("DapSender::announce: interval");
  }
  announced_[i].emplace_back(message.begin(), message.end());
  wire::MacAnnounce p;
  p.sender = config_.sender_id;
  p.interval = i;
  auto key_it = mac_key_cache_.find(i);
  if (key_it == mac_key_cache_.end()) {
    key_it = mac_key_cache_
                 .try_emplace(i, crypto::HmacKey(chain_.mac_key(i)))
                 .first;
  }
  p.mac = crypto::compute_mac(key_it->second, message, config_.mac_size);
  DAP_ENSURE(p.mac.size() == config_.mac_size,
             "announce: MAC must have the configured broadcast size");
  return p;
}

wire::MessageReveal DapSender::reveal(std::uint32_t i, std::size_t k) const {
  const auto it = announced_.find(i);
  if (it == announced_.end() || k >= it->second.size()) {
    throw std::logic_error("DapSender::reveal: message never announced");
  }
  wire::MessageReveal p;
  p.sender = config_.sender_id;
  p.interval = i;
  p.message = it->second[k];
  p.key = common::InlineBytes<32>(chain_.key(i));
  return p;
}

std::size_t DapSender::announced_count(std::uint32_t i) const noexcept {
  const auto it = announced_.find(i);
  return it == announced_.end() ? 0 : it->second.size();
}

DapReceiver::DapReceiver(const DapConfig& config, common::Bytes commitment,
                         common::Bytes local_secret, sim::LooseClock clock,
                         common::Rng rng)
    : config_(config),
      telemetry_(make_telemetry()),
      local_secret_(std::move(local_secret)),
      local_secret_key_(local_secret_),
      clock_(clock),
      rng_(rng),
      auth_(crypto::PrfDomain::kChainStep, config.key_size,
            std::move(commitment)),
      resync_("dap", config.resync),
      effective_buffers_(config.buffers) {
  if (local_secret_.empty()) {
    throw std::invalid_argument("DapReceiver: empty local secret");
  }
  if (config_.buffers == 0) {
    throw std::invalid_argument("DapReceiver: buffers must be >= 1");
  }
  if (config_.micro_mac_size == 0 || config_.micro_mac_size > 4) {
    throw std::invalid_argument(
        "DapReceiver: micro_mac_size must be in [1, 4] bytes");
  }
  obs::Registry::global().set(telemetry_.effective_buffers,
                              static_cast<double>(effective_buffers_));
}

bool DapReceiver::packet_safe(std::uint32_t i,
                              sim::SimTime local_now) const noexcept {
  // The drift allowance widens the check on the conservative side: a
  // larger local reading only makes "key may already be public" MORE
  // likely, so bounded unmodelled drift can never admit a late forgery.
  const sim::SimTime guarded = local_now + resync_.safety_margin(local_now);
  if (calibration_.has_value()) {
    return calibration_->packet_safe(i, config_.disclosure_delay, guarded,
                                     config_.schedule);
  }
  return clock_.packet_safe(i, config_.disclosure_delay, guarded,
                            config_.schedule);
}

void DapReceiver::adopt_calibration(tesla::SyncCalibration calibration) {
  calibration_ = calibration;
}

void DapReceiver::set_resync_handler(tesla::ResyncFn handler) {
  resync_.set_handler(std::move(handler));
}

void DapReceiver::tick(sim::SimTime local_now) {
  if (auto calibration = resync_.maybe_resync(local_now)) {
    adopt_calibration(*calibration);
  }
}

void DapReceiver::crash_restart(sim::SimTime /*local_now*/) {
  buffers_.clear();
  pending_.clear();
  auth_.rebase_to_newest();
  calibration_.reset();
  resync_.invalidate();
  effective_buffers_ = config_.buffers;
  ++stats_.crash_restarts;
  auto& reg = obs::Registry::global();
  reg.add(telemetry_.crash_restarts);
  reg.set(telemetry_.effective_buffers,
          static_cast<double>(effective_buffers_));
}

std::size_t DapReceiver::stored_records() const noexcept {
  std::size_t records = 0;
  for (const auto& [interval, buffer] : buffers_) {
    records += buffer.contents().size();
  }
  return records;
}

bool DapReceiver::degrade_or_admit(sim::SimTime local_now) {
  if (config_.record_pool_limit == 0) return true;
  const std::size_t pool = stored_records();
  auto& reg = obs::Registry::global();
  if (pool >= config_.record_pool_limit) {
    // Saturated: shed this admission and shrink the reservoir for rounds
    // that have not started, instead of silently thrashing the pool.
    ++stats_.admissions_shed;
    reg.add(telemetry_.admissions_shed);
    obs::Tracer::global().record(obs::TraceKind::kBufferEvict, local_now, 0);
    if (effective_buffers_ > 1) {
      effective_buffers_ = effective_buffers_ / 2;
      reg.set(telemetry_.effective_buffers,
              static_cast<double>(effective_buffers_));
    }
    return false;
  }
  if (effective_buffers_ < config_.buffers &&
      pool < config_.record_pool_limit / 2) {
    // Pressure eased: restore capacity gradually (doubling back up).
    effective_buffers_ =
        effective_buffers_ * 2 < config_.buffers ? effective_buffers_ * 2
                                                 : config_.buffers;
    reg.set(telemetry_.effective_buffers,
            static_cast<double>(effective_buffers_));
  }
  return true;
}

std::uint64_t DapReceiver::record_of(common::ByteView mac,
                                     std::uint32_t interval) const {
  const std::uint32_t micro = crypto::micro_mac_word(
      local_secret_key_, mac, config_.micro_mac_size);
  return (std::uint64_t{micro} << 32) | interval;
}

void DapReceiver::prune_stale_rounds(std::uint32_t current_interval) {
  // Keys of intervals <= current - d are public; their records can never
  // authenticate anything anymore.
  if (current_interval <= config_.disclosure_delay) return;
  const std::uint32_t floor = current_interval - config_.disclosure_delay;
  auto it = buffers_.begin();
  while (it != buffers_.end() && it->first < floor) {
    it = buffers_.erase(it);
  }
  DAP_ENSURE(buffers_.empty() || buffers_.begin()->first >= floor,
             "prune_stale_rounds: stale round survived pruning");
}

void DapReceiver::receive(const wire::MacAnnounce& packet,
                          sim::SimTime local_now) {
  // The announce is attacker-controlled and only ever *rejected* below;
  // contracts cover receiver configuration, never wire content.
  DAP_REQUIRE(config_.disclosure_delay > 0 && config_.mac_size > 0,
              "DapReceiver::receive: receiver must be configured");
  auto& reg = obs::Registry::global();
  thread_local obs::SampleSite site;
  const obs::SampledTimer timer(reg, telemetry_.rx_announce_latency, site);
  ++stats_.announces_received;
  reg.add(telemetry_.announces_received);
  obs::Tracer::global().record(obs::TraceKind::kAnnounce, local_now,
                               packet.interval);
  tick(local_now);
  prune_stale_rounds(packet.interval);
  // Algorithm 2 line 2: discard when the key may already be public.
  if (!packet_safe(packet.interval, local_now)) {
    ++stats_.announces_unsafe;
    reg.add(telemetry_.announces_unsafe);
    // A streak of unsafe announces is the desync signature: either our
    // clock bound ran away or the stream really is stale/replayed — the
    // episode threshold plus healthy resets separate the two.
    resync_.note_suspect(local_now);
    tick(local_now);
    return;
  }
  if (!degrade_or_admit(local_now)) return;
  auto& buffer = buffers_
                     .try_emplace(packet.interval, effective_buffers_,
                                  config_.policy)
                     .first->second;
  ++stats_.records_offered;
  reg.add(telemetry_.records_offered);
  const bool was_full = buffer.full();
  // Draw the keep decision first: a discarded copy is never re-MACed.
  tesla::RngDraws draws(rng_);
  const std::size_t slot = buffer.admit(draws);
  if (slot == tesla::kDiscard) return;
  buffer.store(slot, record_of(packet.mac, packet.interval));
  ++stats_.records_stored;
  reg.add(telemetry_.records_stored);
  if (was_full) {
    // A stored record on a full buffer displaced an earlier one.
    reg.add(telemetry_.buffer_evictions);
    obs::Tracer::global().record(obs::TraceKind::kBufferEvict, local_now,
                                 packet.interval);
  }
}

std::optional<tesla::AuthenticatedMessage> DapReceiver::receive(
    const wire::MessageReveal& packet, sim::SimTime local_now) {
  DAP_REQUIRE(config_.disclosure_delay > 0,
              "DapReceiver::receive: receiver must be configured");
  // A one-reveal drain: the same path, with the scalar weak-auth walk in
  // place of the batched one.
  BatchContext batch;
  const bool weak_ok = auth_.accept(packet.interval, packet.key);
  return process_reveal(packet, local_now, batch, weak_ok);
}

void DapReceiver::enqueue(const wire::MessageReveal& packet) {
  pending_.push_back(packet);
}

std::vector<std::optional<tesla::AuthenticatedMessage>>
DapReceiver::drain_pending_batch(sim::SimTime local_now) {
  std::vector<std::optional<tesla::AuthenticatedMessage>> out;
  out.reserve(pending_.size());
  last_drain_verdicts_.clear();
  if (pending_.empty()) return out;
  auto& reg = obs::Registry::global();
  reg.add(telemetry_.reveal_batches);
  reg.add(telemetry_.batched_reveals, pending_.size());
  BatchContext batch;
  last_drain_verdicts_.reserve(pending_.size());
  // Weak authentication for the whole drain runs upfront through
  // ChainAuthenticator::accept_many, which feeds the gap walks to the
  // multi-lane SHA-256 backend. This is safe because nothing on the
  // per-reveal path before accept() (stats, tracer, tick/resync) touches
  // the authenticator, so batched verdicts equal sequential ones.
  std::vector<wire::MessageReveal> packets(
      std::make_move_iterator(pending_.begin()),
      std::make_move_iterator(pending_.end()));
  pending_.clear();
  std::vector<tesla::KeyReveal> reveals;
  reveals.reserve(packets.size());
  for (const wire::MessageReveal& p : packets) {
    reveals.push_back(tesla::KeyReveal{p.interval, p.key});
  }
  const std::vector<bool> verdicts = auth_.accept_many(reveals);
  DAP_INVARIANT(verdicts.size() == packets.size(),
                "drain_pending_batch: one weak-auth verdict per reveal");
  for (std::size_t k = 0; k < packets.size(); ++k) {
    out.push_back(process_reveal(packets[k], local_now, batch, verdicts[k]));
    last_drain_verdicts_.push_back(last_verdict_);
  }
  return out;
}

std::optional<tesla::AuthenticatedMessage> DapReceiver::process_reveal(
    const wire::MessageReveal& packet, sim::SimTime local_now,
    BatchContext& batch, bool weak_ok) {
  auto& reg = obs::Registry::global();
  thread_local obs::SampleSite site;
  const obs::SampledTimer timer(reg, telemetry_.rx_reveal_latency, site);
  ++stats_.reveals_received;
  reg.add(telemetry_.reveals_received);
  obs::Tracer::global().record(obs::TraceKind::kReveal, local_now,
                               packet.interval);
  tick(local_now);
  // Algorithm 2 line 16: weak authentication of the disclosed key, judged
  // by the caller. Never cached across a batch — same-interval reveals
  // can carry different key bytes, and each candidate is judged on its
  // own.
  if (!weak_ok) {
    ++stats_.weak_auth_failures;
    reg.add(telemetry_.weak_auth_failures);
    obs::Tracer::global().record(obs::TraceKind::kWeakAuthFail, local_now,
                                 packet.interval);
    last_verdict_ = tesla::RevealVerdict::kWeakAuthFail;
    resync_.note_suspect(local_now);
    tick(local_now);
    return std::nullopt;
  }
  // Lines 19-24: strong authentication against the stored μMAC records.
  // In a batch the interval's MAC key F'(K_i) is derived once and shared
  // by every reveal of that interval (the key is authentic regardless of
  // which reveal's bytes authenticated it).
  auto cached = batch.mac_keys.find(packet.interval);
  if (cached == batch.mac_keys.end()) {
    auto derived = auth_.mac_key(packet.interval);
    if (!derived.has_value()) {
      // accept() passed, so the key chain reached this interval once,
      // but the retained window has since been pruned/rebased past it.
      ++stats_.strong_auth_failures;
      reg.add(telemetry_.strong_auth_failures);
      obs::Tracer::global().record(obs::TraceKind::kAuthFail, local_now,
                                   packet.interval);
      last_verdict_ = tesla::RevealVerdict::kKeyPruned;
      return std::nullopt;
    }
    ++stats_.mac_key_derivations;
    reg.add(telemetry_.mac_key_derivations);
    cached = batch.mac_keys
                 .try_emplace(packet.interval, crypto::HmacKey(*derived))
                 .first;
  }
  const common::InlineBytes<32> expected_mac =
      crypto::compute_mac(cached->second, packet.message, config_.mac_size);
  const std::uint64_t expected = record_of(expected_mac, packet.interval);

  const auto buf_it = buffers_.find(packet.interval);
  bool matched = false;
  if (buf_it != buffers_.end()) {
    // Only the matched record is consumed: other records of the same
    // interval may still authenticate further reveals (multi-message
    // streams); stale rounds are pruned as later intervals arrive.
    matched = buf_it->second.take_first([expected](std::uint64_t record) {
      return common::constant_time_equal(record, expected);
    });
  }
  if (!matched) {
    ++stats_.strong_auth_failures;
    reg.add(telemetry_.strong_auth_failures);
    obs::Tracer::global().record(obs::TraceKind::kAuthFail, local_now,
                                 packet.interval);
    last_verdict_ = tesla::RevealVerdict::kNoRecord;
    return std::nullopt;
  }
  ++stats_.strong_auth_success;
  reg.add(telemetry_.strong_auth_success);
  obs::Tracer::global().record(obs::TraceKind::kAuthSuccess, local_now,
                               packet.interval);
  last_verdict_ = tesla::RevealVerdict::kAccepted;
  resync_.note_healthy();
  return tesla::AuthenticatedMessage{packet.interval, packet.message,
                                     local_now};
}

void DapReceiver::set_buffers(std::size_t m) {
  if (m == 0) {
    throw std::invalid_argument("DapReceiver::set_buffers: m must be >= 1");
  }
  config_.buffers = m;
  effective_buffers_ = m;
  obs::Registry::global().set(telemetry_.effective_buffers,
                              static_cast<double>(m));
}

std::size_t DapReceiver::stored_record_bits() const noexcept {
  std::size_t records = 0;
  for (const auto& [interval, buffer] : buffers_) {
    records += buffer.contents().size();
  }
  return records * (config_.micro_mac_size * 8 + 32);
}

std::size_t DapReceiver::buffered_records(std::uint32_t i) const noexcept {
  const auto it = buffers_.find(i);
  return it == buffers_.end() ? 0 : it->second.contents().size();
}

}  // namespace dap::protocol
