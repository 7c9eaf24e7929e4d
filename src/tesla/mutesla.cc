#include "tesla/mutesla.h"

#include <stdexcept>

#include "common/codec.h"
#include "common/contracts.h"
#include "crypto/mac.h"

namespace dap::tesla {

namespace {

common::Bytes bootstrap_mac_payload(const MuTeslaBootstrap& b) {
  common::Writer w;
  w.u32(b.sender);
  w.u32(b.start_interval);
  w.u64(b.interval_duration_us);
  w.blob(b.commitment);
  return std::move(w).take();
}

}  // namespace

MuTeslaSender::MuTeslaSender(const MuTeslaConfig& config,
                             common::ByteView seed)
    : config_(config),
      chain_(seed, config.chain_length, crypto::PrfDomain::kChainStep,
             config.key_size) {
  if (config.disclosure_delay == 0) {
    throw std::invalid_argument(
        "MuTeslaSender: disclosure_delay must be >= 1");
  }
}

MuTeslaBootstrap MuTeslaSender::bootstrap_for(
    common::ByteView master_key) const {
  MuTeslaBootstrap b;
  b.sender = config_.sender_id;
  b.start_interval = 1;
  b.interval_duration_us = config_.schedule.duration();
  b.commitment = chain_.commitment();
  b.mac = crypto::compute_mac(master_key, bootstrap_mac_payload(b),
                              config_.mac_size);
  return b;
}

wire::TeslaPacket MuTeslaSender::make_packet(std::uint32_t i,
                                             common::ByteView message) const {
  if (i == 0 || i > chain_.length()) {
    throw std::out_of_range("MuTeslaSender::make_packet: interval");
  }
  wire::TeslaPacket p;
  p.sender = config_.sender_id;
  p.interval = i;
  p.message = common::Bytes(message.begin(), message.end());
  p.mac = crypto::compute_mac(chain_.mac_key(i), message, config_.mac_size);
  return p;
}

std::optional<wire::KeyDisclosure> MuTeslaSender::disclosure(
    std::uint32_t i) const {
  if (i <= config_.disclosure_delay) return std::nullopt;
  const std::uint32_t disclosed = i - config_.disclosure_delay;
  DAP_INVARIANT(disclosed < i,
                "disclosure: disclosed interval must lie strictly in the past");
  wire::KeyDisclosure d;
  d.sender = config_.sender_id;
  d.interval = disclosed;
  d.key = common::InlineBytes<32>(chain_.key(disclosed));
  return d;
}

bool verify_mutesla_bootstrap(const MuTeslaBootstrap& bootstrap,
                              common::ByteView master_key) {
  return crypto::verify_mac(master_key, bootstrap_mac_payload(bootstrap),
                            bootstrap.mac);
}

MuTeslaReceiver::MuTeslaReceiver(const MuTeslaConfig& config,
                                 common::Bytes commitment,
                                 sim::LooseClock clock)
    : config_(config),
      clock_(clock),
      auth_(crypto::PrfDomain::kChainStep, config.key_size,
            std::move(commitment)) {}

std::vector<AuthenticatedMessage> MuTeslaReceiver::drain_ready(
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

std::vector<AuthenticatedMessage> MuTeslaReceiver::receive(
    const wire::TeslaPacket& packet, sim::SimTime local_now) {
  DAP_REQUIRE(config_.disclosure_delay > 0,
              "MuTeslaReceiver::receive: disclosure delay must be positive");
  ++stats_.packets_received;
  if (!clock_.packet_safe(packet.interval, config_.disclosure_delay, local_now,
                          config_.schedule)) {
    ++stats_.packets_unsafe;
    return {};
  }
  pending_.emplace(packet.interval, Pending{packet.message, packet.mac});
  ++stats_.packets_buffered;
  stats_.buffered_now = pending_.size();
  return {};
}

std::vector<AuthenticatedMessage> MuTeslaReceiver::receive(
    const wire::KeyDisclosure& packet, sim::SimTime local_now) {
  DAP_REQUIRE(config_.disclosure_delay > 0,
              "MuTeslaReceiver::receive: disclosure delay must be positive");
  ++stats_.packets_received;
  if (auth_.accept(packet.interval, packet.key)) {
    ++stats_.keys_accepted;
  } else {
    ++stats_.keys_rejected;
  }
  return drain_ready(local_now);
}

}  // namespace dap::tesla
