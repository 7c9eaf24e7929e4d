#include "tesla/teslapp.h"

#include <stdexcept>

#include "common/codec.h"
#include "common/contracts.h"
#include "crypto/mac.h"
#include "obs/scoped_timer.h"

namespace dap::tesla {

namespace {
constexpr unsigned kAnchorMerkleHeight = 4;  // 16 anchors per sender

common::Bytes anchor_signing_seed(common::ByteView seed) {
  return crypto::prf_bytes(
      crypto::PrfDomain::kReceiverLocal,
      common::concat({seed, common::bytes_of("/anchor-sign")}));
}
}  // namespace

common::Bytes anchor_payload(const SignedAnchor& anchor) {
  common::Writer w;
  w.u32(anchor.interval);
  w.blob(anchor.key);
  return std::move(w).take();
}

TeslaPpSender::TeslaPpSender(const TeslaPpConfig& config,
                             common::ByteView seed)
    : config_(config),
      chain_(seed, config.chain_length, crypto::PrfDomain::kChainStep,
             config.key_size),
      signer_(anchor_signing_seed(seed), kAnchorMerkleHeight) {}

SignedAnchor TeslaPpSender::make_anchor(std::uint32_t i) {
  SignedAnchor anchor;
  anchor.interval = i;
  anchor.key = chain_.key(i);  // throws for out-of-range i
  anchor.signature = signer_.sign(anchor_payload(anchor));
  return anchor;
}

bool verify_anchor(const SignedAnchor& anchor, common::ByteView root,
                   unsigned merkle_height) {
  return crypto::merkle_verify(root, anchor_payload(anchor),
                               anchor.signature, merkle_height);
}

wire::MacAnnounce TeslaPpSender::announce(std::uint32_t i,
                                          common::ByteView message) {
  if (i == 0 || i > chain_.length()) {
    throw std::out_of_range("TeslaPpSender::announce: interval");
  }
  announced_[i] = common::Bytes(message.begin(), message.end());
  wire::MacAnnounce p;
  p.sender = config_.sender_id;
  p.interval = i;
  p.mac = crypto::compute_mac(chain_.mac_key(i), message, config_.mac_size);
  return p;
}

wire::MessageReveal TeslaPpSender::reveal(std::uint32_t i) const {
  const auto it = announced_.find(i);
  if (it == announced_.end()) {
    throw std::logic_error("TeslaPpSender::reveal: interval never announced");
  }
  wire::MessageReveal p;
  p.sender = config_.sender_id;
  p.interval = i;
  p.message = it->second;
  p.key = common::InlineBytes<32>(chain_.key(i));
  return p;
}

TeslaPpReceiver::Telemetry TeslaPpReceiver::make_telemetry() {
  auto& reg = obs::Registry::global();
  return {
      reg.counter("teslapp.announces_received"),
      reg.counter("teslapp.announces_unsafe"),
      reg.counter("teslapp.records_stored"),
      reg.counter("teslapp.records_dropped"),
      reg.counter("teslapp.reveals_received"),
      reg.counter("teslapp.keys_rejected"),
      reg.counter("teslapp.authenticated"),
      reg.counter("teslapp.unmatched"),
      reg.counter("teslapp.admissions_shed"),
      reg.counter("teslapp.crash_restarts"),
      reg.histogram("teslapp.rx_announce_us"),
      reg.histogram("teslapp.rx_reveal_us"),
  };
}

TeslaPpReceiver::TeslaPpReceiver(const TeslaPpConfig& config,
                                 common::Bytes commitment,
                                 common::Bytes local_secret,
                                 sim::LooseClock clock,
                                 std::uint32_t anchor_index)
    : config_(config),
      telemetry_(make_telemetry()),
      local_secret_(std::move(local_secret)),
      clock_(clock),
      auth_(crypto::PrfDomain::kChainStep, config.key_size,
            std::move(commitment), anchor_index),
      resync_("teslapp", config.resync) {
  if (local_secret_.empty()) {
    throw std::invalid_argument("TeslaPpReceiver: empty local secret");
  }
}

common::Bytes TeslaPpReceiver::self_mac(std::uint32_t interval,
                                        common::ByteView mac) const {
  common::Writer w;
  w.u32(interval);
  w.raw(mac);
  const common::InlineBytes<32> tag =
      crypto::compute_mac(local_secret_, w.data(), config_.self_mac_size);
  DAP_ENSURE(tag.size() == config_.self_mac_size,
             "self_mac: record must have the configured re-MAC size");
  return common::Bytes(tag.begin(), tag.end());
}

bool TeslaPpReceiver::packet_safe(std::uint32_t i,
                                  sim::SimTime local_now) const noexcept {
  // The drift-allowance margin widens the check toward "the key may
  // already be public", so bounded clock drift can never admit a late
  // forgery — it only costs liveness, which resync restores.
  const sim::SimTime guarded = local_now + resync_.safety_margin(local_now);
  // TESLA++ reveals the key one interval after the announcement (d = 1).
  if (calibration_) {
    return calibration_->packet_safe(i, 1, guarded, config_.schedule);
  }
  return clock_.packet_safe(i, 1, guarded, config_.schedule);
}

void TeslaPpReceiver::set_resync_handler(ResyncFn handler) {
  resync_.set_handler(std::move(handler));
}

void TeslaPpReceiver::tick(sim::SimTime local_now) {
  if (auto calibration = resync_.maybe_resync(local_now)) {
    calibration_ = *calibration;
  }
}

void TeslaPpReceiver::crash_restart(sim::SimTime /*local_now*/) {
  records_.clear();
  auth_.rebase_to_newest();
  calibration_.reset();
  resync_.invalidate();
  ++stats_.crash_restarts;
  obs::Registry::global().add(telemetry_.crash_restarts);
}

std::size_t TeslaPpReceiver::stored_records() const noexcept {
  std::size_t total = 0;
  for (const auto& [interval, bucket] : records_) {
    total += bucket.size();
  }
  return total;
}

void TeslaPpReceiver::receive(const wire::MacAnnounce& packet,
                              sim::SimTime local_now) {
  // Announce content is adversarial input, rejected (never asserted)
  // below; the contract covers configuration only.
  DAP_REQUIRE(config_.mac_size > 0 && config_.self_mac_size > 0,
              "TeslaPpReceiver::receive: receiver must be configured");
  auto& reg = obs::Registry::global();
  thread_local obs::SampleSite site;
  const obs::SampledTimer timer(reg, telemetry_.rx_announce_latency, site);
  tick(local_now);
  ++stats_.announces_received;
  reg.add(telemetry_.announces_received);
  if (!packet_safe(packet.interval, local_now)) {
    ++stats_.announces_unsafe;
    reg.add(telemetry_.announces_unsafe);
    resync_.note_suspect(local_now);
    tick(local_now);
    return;
  }
  // Degradation: TESLA++ has no reservoir to shrink, so at the pool cap
  // it sheds the admission outright (contrast with DAP's adaptive m).
  if (config_.record_pool_limit != 0 &&
      stored_records() >= config_.record_pool_limit) {
    ++stats_.admissions_shed;
    reg.add(telemetry_.admissions_shed);
    return;
  }
  auto& bucket = records_[packet.interval];
  if (config_.max_records_per_interval != 0 &&
      bucket.size() >= config_.max_records_per_interval) {
    ++stats_.records_dropped;
    reg.add(telemetry_.records_dropped);
    return;
  }
  if (bucket.insert(self_mac(packet.interval, packet.mac)).second) {
    ++stats_.records_stored;
    reg.add(telemetry_.records_stored);
  }
  DAP_INVARIANT(config_.max_records_per_interval == 0 ||
                    bucket.size() <= config_.max_records_per_interval,
                "TeslaPpReceiver: per-interval record cap exceeded");
}

std::vector<AuthenticatedMessage> TeslaPpReceiver::receive(
    const wire::MessageReveal& packet, sim::SimTime local_now) {
  DAP_REQUIRE(config_.self_mac_size > 0,
              "TeslaPpReceiver::receive: receiver must be configured");
  auto& reg = obs::Registry::global();
  thread_local obs::SampleSite site;
  const obs::SampledTimer timer(reg, telemetry_.rx_reveal_latency, site);
  tick(local_now);
  ++stats_.reveals_received;
  reg.add(telemetry_.reveals_received);
  if (!auth_.accept(packet.interval, packet.key)) {
    ++stats_.keys_rejected;
    reg.add(telemetry_.keys_rejected);
    resync_.note_suspect(local_now);
    tick(local_now);
    return {};
  }
  const common::Bytes mac_key = *auth_.mac_key(packet.interval);
  const common::InlineBytes<32> expected_mac =
      crypto::compute_mac(mac_key, packet.message, config_.mac_size);
  const common::Bytes expected_record =
      self_mac(packet.interval, expected_mac);

  const auto bucket_it = records_.find(packet.interval);
  if (bucket_it == records_.end() ||
      bucket_it->second.find(expected_record) == bucket_it->second.end()) {
    ++stats_.unmatched;
    reg.add(telemetry_.unmatched);
    return {};
  }
  // One record authenticates one reveal; drop the interval's bucket.
  records_.erase(bucket_it);
  ++stats_.authenticated;
  reg.add(telemetry_.authenticated);
  // Only end-to-end authentication counts as "healthy": forged-but-safe
  // announces must not reset an accumulating suspect streak.
  resync_.note_healthy();
  return {AuthenticatedMessage{packet.interval, packet.message, local_now}};
}

std::size_t TeslaPpReceiver::stored_record_bits() const noexcept {
  std::size_t bits = 0;
  for (const auto& [interval, bucket] : records_) {
    bits += bucket.size() * (config_.self_mac_size * 8 + 32);
  }
  return bits;
}

}  // namespace dap::tesla
