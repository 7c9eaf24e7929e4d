#include "strategy/sybil.h"

#include <stdexcept>
#include <string>

#include "common/parallel.h"
#include "common/rng.h"
#include "crypto/mac.h"
#include "sim/time.h"
#include "wire/packet.h"

namespace dap::strategy {

SybilCoordinator::SybilCoordinator(const fleet::ScenarioSpec& spec,
                                   fleet::FleetSim& sim)
    : sim_(&sim),
      chain_(common::Rng(common::subseed(spec.seed, 0x5b11)).bytes(16),
             spec.intervals + 8, crypto::PrfDomain::kChainStep,
             crypto::kChainKeySize) {
  if (!spec.strategy.sybil.enabled) {
    throw std::invalid_argument(
        "SybilCoordinator: spec.strategy.sybil must be enabled");
  }
  std::vector<std::uint32_t> attacker_nodes = spec.attackers;
  if (attacker_nodes.empty()) attacker_nodes.push_back(0);

  const sim::IntervalSchedule sched(0, spec.interval_us);
  const std::uint32_t cohort = spec.strategy.sybil.cohort;
  for (std::uint32_t i = 1; i <= spec.intervals; ++i) {
    const sim::SimTime t_announce =
        sched.interval_start(i) + spec.interval_us / 2 + sim::kMillisecond;
    const sim::SimTime t_reveal = sched.interval_start(i + 1) +
                                  spec.interval_us / 8 + sim::kMillisecond;
    for (std::uint32_t s = 0; s < cohort; ++s) {
      // Every identity injects at its own relay hop (round-robin over
      // the attacker set) with distinct payload bytes, so dedup at any
      // single relay cannot collapse the cohort.
      const std::uint32_t node = attacker_nodes[s % attacker_nodes.size()];
      const std::string payload =
          "FORGED-s" + std::to_string(s) + "-i" + std::to_string(i);
      // Announce: MACed under the forged chain's real per-interval MAC
      // key, impersonating the victim sender — internally consistent
      // with the reveal below, so only weak auth stands in the way.
      sim.queue().schedule_at(t_announce + s, [this, node, i, payload] {
        wire::MacAnnounce announce;
        announce.sender = 1;
        announce.interval = i;
        announce.mac =
            crypto::compute_mac(crypto::HmacKey(chain_.mac_key(i)),
                                common::bytes_of(payload), crypto::kMacSize);
        sim_->inject(node, announce);
        ++announces_;
      });
      // Reveal: the shared forged chain key, staggered per identity.
      const sim::SimTime stagger =
          static_cast<sim::SimTime>(s) * spec.strategy.sybil.reveal_stagger_us;
      sim.queue().schedule_at(t_reveal + stagger, [this, node, i, payload] {
        wire::MessageReveal reveal;
        reveal.sender = 1;
        reveal.interval = i;
        reveal.message = common::bytes_of(payload);
        reveal.key = common::InlineBytes<32>(chain_.key(i));
        sim_->inject(node, reveal);
        ++reveals_;
      });
    }
  }
}

}  // namespace dap::strategy
