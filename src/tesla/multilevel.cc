#include "tesla/multilevel.h"

#include <stdexcept>

#include "common/contracts.h"
#include "crypto/mac.h"
#include "crypto/sha256.h"

namespace dap::tesla {

void MultiLevelEvents::merge(MultiLevelEvents&& other) {
  messages.insert(messages.end(),
                  std::make_move_iterator(other.messages.begin()),
                  std::make_move_iterator(other.messages.end()));
  cdms.insert(cdms.end(), other.cdms.begin(), other.cdms.end());
  recoveries.insert(recoveries.end(), other.recoveries.begin(),
                    other.recoveries.end());
}

common::Bytes cdm_image_payload(const wire::CdmPacket& cdm) {
  common::Bytes payload = cdm.mac_payload();
  payload.insert(payload.end(), cdm.mac.begin(), cdm.mac.end());
  return payload;
}

MultiLevelSender::MultiLevelSender(const MultiLevelConfig& config,
                                   common::ByteView seed)
    : config_(config),
      chain_(seed, config.high_length, config.low_length, config.link,
             config.key_size) {
  if (config_.low_disclosure_delay == 0) {
    throw std::invalid_argument(
        "MultiLevelSender: low_disclosure_delay must be >= 1");
  }
  if (config_.cdm_buffers == 0) {
    throw std::invalid_argument("MultiLevelSender: cdm_buffers must be >= 1");
  }
  // CDMs are built last-to-first so EDRP's H(CDM_{i+1}) is available.
  cdms_.resize(config_.high_length);
  for (std::size_t i = config_.high_length; i >= 1; --i) {
    wire::CdmPacket& cdm = cdms_[i - 1];
    cdm.sender = config_.sender_id;
    cdm.high_interval = static_cast<std::uint32_t>(i);
    if (i + 2 <= config_.high_length) {
      cdm.low_commitment = chain_.low_key(i + 2, 0);
    }
    if (config_.edrp && i < config_.high_length) {
      cdm.next_cdm_image = crypto::sha256_bytes(cdm_image_payload(cdms_[i]));
    }
    cdm.mac = crypto::compute_mac(chain_.high_mac_key(i), cdm.mac_payload(),
                                  config_.mac_size);
    cdm.disclosed_high_key = common::InlineBytes<32>(chain_.high_key(i - 1));
  }
}

const wire::CdmPacket& MultiLevelSender::cdm(std::uint32_t i) const {
  if (i == 0 || i > cdms_.size()) {
    throw std::out_of_range("MultiLevelSender::cdm: interval");
  }
  return cdms_[i - 1];
}

wire::TeslaPacket MultiLevelSender::make_data_packet(
    std::uint32_t i, std::uint32_t j, common::ByteView message) const {
  if (i == 0 || i > config_.high_length || j == 0 ||
      j > config_.low_length) {
    throw std::out_of_range("MultiLevelSender::make_data_packet: interval");
  }
  wire::TeslaPacket p;
  p.sender = config_.sender_id;
  p.interval = config_.global_index(i, j);
  p.message = common::Bytes(message.begin(), message.end());
  p.mac = crypto::compute_mac(chain_.low_mac_key(i, j), message,
                              config_.mac_size);
  if (j > config_.low_disclosure_delay) {
    const std::uint32_t dj = j - config_.low_disclosure_delay;
    p.disclosed_interval = config_.global_index(i, dj);
    p.disclosed_key = common::InlineBytes<32>(chain_.low_key(i, dj));
  }
  return p;
}

MultiLevelSender::BootstrapInfo MultiLevelSender::bootstrap() const {
  BootstrapInfo info;
  info.high_commitment = chain_.high_commitment();
  info.low_commitment_1 = chain_.low_key(1, 0);
  if (config_.high_length >= 2) {
    info.low_commitment_2 = chain_.low_key(2, 0);
  }
  return info;
}

MultiLevelReceiver::MultiLevelReceiver(
    const MultiLevelConfig& config,
    const MultiLevelSender::BootstrapInfo& bootstrap, sim::LooseClock clock,
    common::Rng rng)
    : config_(config),
      clock_(clock),
      rng_(rng),
      high_auth_(crypto::PrfDomain::kHighChainStep, config.key_size,
                 bootstrap.high_commitment) {
  ensure_low_chain(1, bootstrap.low_commitment_1, 0, false);
  if (!bootstrap.low_commitment_2.empty()) {
    ensure_low_chain(2, bootstrap.low_commitment_2, 0, false);
  }
}

bool MultiLevelReceiver::cdm_authentic(std::uint32_t i) const noexcept {
  const auto it = cdm_done_.find(i);
  return it != cdm_done_.end() && it->second;
}

bool MultiLevelReceiver::low_chain_known(std::uint32_t i) const noexcept {
  return low_auth_.find(i) != low_auth_.end();
}

MultiLevelEvents MultiLevelReceiver::ensure_low_chain(
    std::uint32_t i, common::Bytes commitment, sim::SimTime now,
    bool via_recovery) {
  MultiLevelEvents events;
  if (commitment.empty() || low_chain_known(i) || i == 0 ||
      i > config_.high_length) {
    return events;
  }
  low_auth_.emplace(
      i, ChainAuthenticator(crypto::PrfDomain::kLowChainStep,
                            config_.key_size, std::move(commitment)));
  if (via_recovery) {
    events.recoveries.push_back({i, now});
    ++stats_.low_chains_recovered_via_high;
  }
  events.messages = drain_data(now);
  return events;
}

MultiLevelEvents MultiLevelReceiver::recover_from_high_key(
    std::uint32_t accepted_index, sim::SimTime now) {
  MultiLevelEvents events;
  // Knowing high key K_a makes the low chain of interval a-1 (kOriginal:
  // anchored to K_{i+1}) or a (kEftp: anchored to K_i) fully derivable;
  // all earlier high keys are cached by the authenticator, so every
  // linked chain up to the limit can be recovered — both chains whose
  // commitment was never received (lost CDM) and chains whose trailing
  // key disclosures were lost (lossy end of interval).
  const bool original = config_.link == crypto::LevelLink::kOriginal;
  if (original && accepted_index < 2) return events;
  const std::uint32_t limit = original ? accepted_index - 1 : accepted_index;
  const auto top_index = static_cast<std::uint32_t>(config_.low_length);
  bool advanced = false;
  for (std::uint32_t i = 1;
       i <= limit && i <= static_cast<std::uint32_t>(config_.high_length);
       ++i) {
    const std::uint32_t anchor_index = original ? i + 1 : i;
    const auto anchor = high_auth_.key(anchor_index);
    if (!anchor) continue;
    if (!low_chain_known(i)) {
      common::Bytes commitment = crypto::derive_low_key(
          *anchor, i, 0, config_.low_length, config_.key_size);
      events.merge(ensure_low_chain(i, std::move(commitment), now, true));
      advanced = true;
    }
    // The whole chain is derivable, not just the commitment: inject the
    // top key so buffered data of this interval authenticates right away
    // (this recovers trailing keys whose disclosures were lost).
    const auto it = low_auth_.find(i);
    if (it != low_auth_.end() && it->second.anchor_index() < top_index) {
      const common::Bytes top = crypto::derive_low_key(
          *anchor, i, config_.low_length, config_.low_length,
          config_.key_size);
      if (it->second.accept(top_index, top)) {
        advanced = true;
        events.recoveries.push_back({i, now});
        ++stats_.low_chains_recovered_via_high;
      }
    }
  }
  if (advanced) {
    auto released = drain_data(now);
    events.messages.insert(events.messages.end(),
                           std::make_move_iterator(released.begin()),
                           std::make_move_iterator(released.end()));
  }
  return events;
}

MultiLevelEvents MultiLevelReceiver::try_authenticate_buffered(
    sim::SimTime now) {
  MultiLevelEvents events;
  auto it = cdm_buffers_.begin();
  while (it != cdm_buffers_.end()) {
    const std::uint32_t i = it->first;
    const auto mac_key = high_auth_.mac_key(i);
    if (!mac_key || cdm_authentic(i)) {
      if (cdm_authentic(i)) {
        it = cdm_buffers_.erase(it);
      } else {
        ++it;
      }
      continue;
    }
    // The round is dropped whatever its copies hold: all forged (the
    // attack succeeded for this interval), or the authentic one adopted.
    const std::vector<wire::CdmPacket> copies = it->second.contents();
    it = cdm_buffers_.erase(it);
    const wire::CdmPacket* winner = nullptr;
    std::size_t forged = 0;
    for (const auto& copy : copies) {
      if (crypto::verify_mac(*mac_key, copy.mac_payload(), copy.mac)) {
        if (winner == nullptr) winner = &copy;
      } else {
        ++forged;
      }
    }
    stats_.cdm_forged_dropped += forged;
    if (winner != nullptr) {
      events.merge(
          adopt_cdm(*winner, now, CdmAuthPath::kMacAfterKeyDisclosure));
    }
  }
  return events;
}

MultiLevelEvents MultiLevelReceiver::adopt_cdm(const wire::CdmPacket& cdm,
                                               sim::SimTime now,
                                               CdmAuthPath path) {
  MultiLevelEvents events;
  const std::uint32_t i = cdm.high_interval;
  if (cdm_authentic(i)) return events;
  cdm_done_[i] = true;
  ++stats_.cdm_authenticated;
  events.cdms.push_back({i, now, path});
  if (config_.edrp && !cdm.next_cdm_image.empty()) {
    expected_cdm_image_[i + 1] = cdm.next_cdm_image;
  }
  if (!cdm.low_commitment.empty()) {
    events.merge(ensure_low_chain(i + 2, cdm.low_commitment, now, false));
  }
  cdm_buffers_.erase(i);
  return events;
}

MultiLevelEvents MultiLevelReceiver::receive(const wire::CdmPacket& packet,
                                             sim::SimTime local_now) {
  // CDM content is adversarial; out-of-range fields are rejected below.
  DAP_REQUIRE(config_.high_length > 0 && config_.low_length > 0,
              "MultiLevelReceiver::receive: chain lengths must be positive");
  ++stats_.cdm_received;
  MultiLevelEvents events;
  const std::uint32_t i = packet.high_interval;
  if (i == 0 || i > config_.high_length) {
    return events;
  }

  // 1. The disclosed high-level key is useful regardless of the CDM's own
  //    authenticity (it is chain-verified on its own).
  if (!packet.disclosed_high_key.empty() && i >= 1) {
    const std::uint32_t before = high_auth_.anchor_index();
    if (high_auth_.accept(i - 1, packet.disclosed_high_key) &&
        high_auth_.anchor_index() > before) {
      events.merge(recover_from_high_key(high_auth_.anchor_index(),
                                         local_now));
      events.merge(try_authenticate_buffered(local_now));
    }
  }

  if (cdm_authentic(i)) return events;

  // 2. EDRP's instant path: an authentic CDM_{i-1} committed to this
  //    CDM's image, so forged copies are filtered immediately.
  const auto image_it = expected_cdm_image_.find(i);
  if (image_it != expected_cdm_image_.end()) {
    if (common::constant_time_equal(
            crypto::sha256_bytes(cdm_image_payload(packet)),
            image_it->second)) {
      events.merge(adopt_cdm(packet, local_now, CdmAuthPath::kHashChain));
    } else {
      ++stats_.cdm_forged_dropped;
    }
    return events;
  }

  // 3. Classic path: buffer only while K_i is provably undisclosed.
  if (!clock_.packet_safe(i, 1, local_now, config_.high_schedule)) {
    ++stats_.cdm_unsafe;
    return events;
  }
  auto [buf_it, created] = cdm_buffers_.try_emplace(i, config_.cdm_buffers);
  buf_it->second.offer(packet, rng_);
  ++stats_.cdm_buffered;
  return events;
}

std::vector<AuthenticatedMessage> MultiLevelReceiver::drain_data(
    sim::SimTime now) {
  std::vector<AuthenticatedMessage> out;
  auto it = pending_data_.begin();
  while (it != pending_data_.end()) {
    const auto [i, j] = config_.split_index(it->first);
    const auto auth_it = low_auth_.find(i);
    if (auth_it == low_auth_.end()) {
      ++it;
      continue;
    }
    const auto mac_key = auth_it->second.mac_key(j);
    if (!mac_key) {
      ++it;
      continue;
    }
    for (const auto& pending : it->second.contents()) {
      if (crypto::verify_mac(*mac_key, pending.message, pending.mac)) {
        ++stats_.data_authenticated;
        out.push_back(AuthenticatedMessage{it->first, pending.message, now});
      } else {
        ++stats_.data_rejected;
      }
    }
    it = pending_data_.erase(it);
  }
  return out;
}

MultiLevelEvents MultiLevelReceiver::receive(const wire::TeslaPacket& packet,
                                             sim::SimTime local_now) {
  DAP_REQUIRE(config_.high_length > 0 && config_.low_length > 0,
              "MultiLevelReceiver::receive: chain lengths must be positive");
  ++stats_.data_received;
  MultiLevelEvents events;
  const auto [i, j] = config_.split_index(packet.interval);
  if (i == 0 || i > config_.high_length || j == 0 ||
      j > config_.low_length) {
    return events;
  }

  // 1. Within-chain low-level key disclosure.
  if (!packet.disclosed_key.empty() && packet.disclosed_interval > 0) {
    const auto [di, dj] = config_.split_index(packet.disclosed_interval);
    const auto auth_it = low_auth_.find(di);
    if (auth_it != low_auth_.end()) {
      auth_it->second.accept(dj, packet.disclosed_key);
    }
  }

  // 2. Safety check at the low level; buffered copies go through the
  //    same bounded reservoir selection as CDMs so a data flood cannot
  //    exhaust memory.
  if (!clock_.packet_safe(packet.interval, config_.low_disclosure_delay,
                          local_now, config_.low_schedule())) {
    ++stats_.data_unsafe;
  } else {
    auto [slot, created] =
        pending_data_.try_emplace(packet.interval, config_.data_buffers);
    slot->second.offer(PendingData{packet.message, packet.mac}, rng_);
  }

  events.messages = drain_data(local_now);
  return events;
}

}  // namespace dap::tesla
