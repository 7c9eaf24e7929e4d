#include "tesla/tesla.h"

#include <stdexcept>

#include "common/codec.h"
#include "common/contracts.h"
#include "crypto/mac.h"
#include "wire/frame.h"

namespace dap::tesla {

namespace {

common::Bytes signing_seed(common::ByteView seed) {
  return crypto::prf_bytes(crypto::PrfDomain::kReceiverLocal,
                           common::concat({seed, common::bytes_of("/sign")}));
}

}  // namespace

TeslaSender::TeslaSender(const TeslaConfig& config, common::ByteView seed)
    : config_(config),
      chain_(seed, config.chain_length, crypto::PrfDomain::kChainStep,
             config.key_size),
      signer_(signing_seed(seed)) {
  if (config.disclosure_delay == 0) {
    throw std::invalid_argument("TeslaSender: disclosure_delay must be >= 1");
  }
}

common::Bytes bootstrap_payload(const wire::BootstrapPacket& packet) {
  common::Writer w;
  w.u32(packet.sender);
  w.u32(packet.start_interval);
  w.u64(packet.interval_duration_us);
  w.blob(packet.commitment);
  return std::move(w).take();
}

wire::BootstrapPacket TeslaSender::bootstrap() {
  wire::BootstrapPacket p;
  p.sender = config_.sender_id;
  p.start_interval = 1;
  p.interval_duration_us = config_.schedule.duration();
  p.commitment = chain_.commitment();
  p.signer_public_key = signer_.public_key();
  const auto sig = signer_.sign(bootstrap_payload(p));
  p.signature = wire::encode_wots_signature(sig.chains);
  return p;
}

wire::TeslaPacket TeslaSender::make_packet(std::uint32_t i,
                                           common::ByteView message) const {
  if (i == 0 || i > chain_.length()) {
    throw std::out_of_range("TeslaSender::make_packet: interval out of range");
  }
  wire::TeslaPacket p;
  p.sender = config_.sender_id;
  p.interval = i;
  p.message = common::Bytes(message.begin(), message.end());
  p.mac = crypto::compute_mac(chain_.mac_key(i), message, config_.mac_size);
  if (i > config_.disclosure_delay) {
    p.disclosed_interval = i - config_.disclosure_delay;
    p.disclosed_key = common::InlineBytes<32>(chain_.key(p.disclosed_interval));
  }
  return p;
}

bool verify_bootstrap(const wire::BootstrapPacket& packet,
                      common::ByteView expected_public_key) {
  if (!common::constant_time_equal(packet.signer_public_key,
                                   expected_public_key)) {
    return false;
  }
  const auto chains = wire::decode_wots_signature(packet.signature);
  if (!chains) return false;
  crypto::WotsSignature sig;
  sig.chains = *chains;
  return crypto::wots_verify(expected_public_key, bootstrap_payload(packet),
                             sig);
}

TeslaReceiver::TeslaReceiver(const TeslaConfig& config,
                             common::Bytes commitment, sim::LooseClock clock)
    : config_(config),
      clock_(clock),
      auth_(crypto::PrfDomain::kChainStep, config.key_size,
            std::move(commitment)) {}

std::vector<AuthenticatedMessage> TeslaReceiver::drain_ready(
    sim::SimTime local_now) {
  std::vector<AuthenticatedMessage> out;
  auto it = pending_.begin();
  while (it != pending_.end() && it->first <= auth_.anchor_index()) {
    const std::uint32_t interval = it->first;
    const Pending& entry = it->second;
    const auto mac_key = auth_.mac_key(interval);
    if (mac_key && crypto::verify_mac(*mac_key, entry.message, entry.mac)) {
      ++stats_.macs_verified;
      out.push_back(AuthenticatedMessage{interval, entry.message, local_now});
    } else {
      ++stats_.macs_rejected;
    }
    it = pending_.erase(it);
  }
  stats_.buffered_now = pending_.size();
  return out;
}

std::vector<AuthenticatedMessage> TeslaReceiver::receive(
    const wire::TeslaPacket& packet, sim::SimTime local_now) {
  // Packet fields are attacker-controlled and handled by rejection
  // below; the contract covers receiver configuration only.
  DAP_REQUIRE(config_.disclosure_delay > 0,
              "TeslaReceiver::receive: disclosure delay must be positive");
  ++stats_.packets_received;

  // 1. Key disclosure first: it may release older buffered packets and is
  //    useful even if this packet's own MAC interval is unsafe.
  if (!packet.disclosed_key.empty() && packet.disclosed_interval > 0) {
    const std::uint64_t before = auth_.accepted();
    if (auth_.accept(packet.disclosed_interval, packet.disclosed_key)) {
      if (auth_.accepted() > before) ++stats_.keys_accepted;
    } else {
      ++stats_.keys_rejected;
    }
  }

  // 2. Safety check for the new MAC'd payload.
  if (!clock_.packet_safe(packet.interval, config_.disclosure_delay, local_now,
                          config_.schedule)) {
    ++stats_.packets_unsafe;
    return drain_ready(local_now);
  }

  // 3. Buffer until K_interval is disclosed.
  pending_.emplace(packet.interval, Pending{packet.message, packet.mac});
  ++stats_.packets_buffered;
  return drain_ready(local_now);
}

}  // namespace dap::tesla
