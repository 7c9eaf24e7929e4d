#include "fleet/cohort.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/contracts.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "crypto/mac.h"
#include "tesla/buffer.h"

namespace dap::fleet {

namespace {

common::Rng sentinel_rng(std::uint64_t cohort_seed) {
  return common::Rng(common::subseed(cohort_seed, 0));
}

}  // namespace

ReceiverCohort::ReceiverCohort(const CohortConfig& config,
                               common::Bytes commitment)
    : config_(config),
      stat_members_(config.members == 0 ? 0 : config.members - 1),
      auth_(crypto::PrfDomain::kChainStep, config.dap.key_size, commitment),
      sentinel_(config.dap, commitment,
                sentinel_rng(config.seed).bytes(16), config.clock,
                sentinel_rng(config.seed).fork(1)) {
  if (config_.members == 0) {
    throw std::invalid_argument("ReceiverCohort: members must be >= 1");
  }
  if (config_.dap.buffers == 0) {
    throw std::invalid_argument("ReceiverCohort: buffers must be >= 1");
  }
}

ReceiverCohort::Round& ReceiverCohort::round_for(std::uint32_t interval) {
  auto it = rounds_.find(interval);
  if (it == rounds_.end()) {
    Round round;
    round.slots.assign(stat_members_ * config_.dap.buffers, 0);
    round.counts.assign(stat_members_, 0);
    it = rounds_.emplace(interval, std::move(round)).first;
  }
  return it->second;
}

void ReceiverCohort::receive_announce(const wire::MacAnnounce& packet,
                                      sim::SimTime true_now) {
  DAP_REQUIRE(config_.dap.disclosure_delay > 0 && config_.dap.buffers > 0,
              "ReceiverCohort::receive_announce: cohort must be configured");
  const sim::SimTime local_now = local_time(true_now);
  ++stats_.announces_received;
  sentinel_.receive(packet, local_now);
  // Algorithm 2 line 3 for the statistical members: the loose-time
  // safety check, evaluated once for the whole cohort (shared clock).
  if (!cohort_packet_safe(packet.interval, local_now)) {
    ++stats_.announces_unsafe;
    return;
  }
  round_for(packet.interval).macs.push_back(packet.mac);
}

sim::SimTime ReceiverCohort::local_time(sim::SimTime true_now) const noexcept {
  return config_.clock.local_time(true_now) + skew_;
}

sim::SimTime ReceiverCohort::true_time_of(
    sim::SimTime local_now) const noexcept {
  const std::int64_t true_now = static_cast<std::int64_t>(local_now) -
                                static_cast<std::int64_t>(skew_) -
                                config_.clock.offset();
  return true_now > 0 ? static_cast<sim::SimTime>(true_now) : 0;
}

bool ReceiverCohort::cohort_packet_safe(std::uint32_t interval,
                                        sim::SimTime local_now) const {
  if (calibration_.has_value()) {
    return calibration_->packet_safe(interval, config_.dap.disclosure_delay,
                                     local_now, config_.dap.schedule);
  }
  return config_.clock.packet_safe(interval, config_.dap.disclosure_delay,
                                   local_now, config_.dap.schedule);
}

void ReceiverCohort::crash_restart(sim::SimTime true_now,
                                   sim::SimTime reboot_skew_us) {
  // Forward-only: the skew accumulates and is never snapped back — a
  // backward correction would void the loose-sync bound (faults.h).
  skew_ += reboot_skew_us;
  calibration_.reset();  // volatile, like the sentinel's
  rounds_.clear();
  pending_.clear();
  hints_.clear();
  last_walks_.clear();
  sentinel_.crash_restart(local_time(true_now));
  ++stats_.crash_restarts;
}

void ReceiverCohort::enable_resync(
    sim::SimTime handshake_latency_us,
    std::function<bool(sim::SimTime true_now)> transport_up) {
  common::Rng sync_rng(common::subseed(config_.seed, 0x7e55));
  const common::Bytes pairwise = sync_rng.bytes(16);
  sync_client_.emplace(pairwise, sync_rng.next_u64());
  sync_responder_.emplace(pairwise);
  sentinel_.set_resync_handler(
      [this, handshake_latency_us, up = std::move(transport_up)](
          sim::SimTime local_now) -> std::optional<tesla::SyncCalibration> {
        const sim::SimTime true_now = true_time_of(local_now);
        if (up && !up(true_now)) return std::nullopt;
        // A real handshake over a fixed-latency control path: the bound
        // it yields covers the accumulated reboot skew because the
        // responder answers with TRUE sender time while the client
        // anchors on its own (skewed) readings.
        const tesla::SyncRequest request = sync_client_->begin(local_now);
        const tesla::SyncResponse response = sync_responder_->respond(
            request, true_now + handshake_latency_us);
        const sim::SimTime arrival =
            local_time(true_now + 2 * handshake_latency_us);
        auto calibration = sync_client_->complete(
            response, std::max(arrival, local_now));
        if (calibration.has_value()) {
          // The statistical members adopt the sentinel's calibration —
          // without it their shared safety check would reject authentic
          // announces forever after a skewed reboot.
          calibration_ = *calibration;
        }
        return calibration;
      });
}

void ReceiverCohort::enqueue_reveal(const wire::MessageReveal& packet) {
  sentinel_.enqueue(packet);
  pending_.push_back(packet);
}

void ReceiverCohort::install_hints(std::vector<RevealHint> hints,
                                   double audit_fraction,
                                   std::uint64_t audit_seed) {
  if (audit_fraction < 0.0 || audit_fraction > 1.0) {
    throw std::invalid_argument(
        "ReceiverCohort::install_hints: audit_fraction must be in [0, 1]");
  }
  hints_ = std::move(hints);
  audit_fraction_ = audit_fraction;
  audit_seed_ = audit_seed;
}

void ReceiverCohort::replay_member(Round& round, std::uint32_t interval,
                                   std::size_t mi) const {
  const std::size_t m = config_.dap.buffers;
  std::uint32_t* slots = round.slots.data() + mi * m;
  std::uint16_t& count = round.counts[mi];
  // Stateless draw chain: (cohort seed, member, interval, offer) fully
  // determines every reservoir decision, independent of when — and on
  // which thread — the replay runs.
  const std::uint64_t member_seed =
      common::subseed(config_.seed, 1 + static_cast<std::uint64_t>(mi));
  tesla::SeededDraws draws(common::subseed(member_seed, interval));
  for (std::uint32_t k = round.replayed;
       k < static_cast<std::uint32_t>(round.macs.size()); ++k) {
    // Offer k + 1 ("the k-th copy", 1-based) is announce arrival k.
    const std::size_t slot =
        tesla::decide(count, k + 1, m, config_.dap.policy, draws);
    if (slot == tesla::kDiscard) continue;
    slots[slot] = k;
    if (slot == count) ++count;
  }
}

std::vector<RevealOutcome> ReceiverCohort::drain(sim::SimTime true_now) {
  const sim::SimTime local_now = local_time(true_now);
  const auto sentinel_outcomes = sentinel_.drain_pending_batch(local_now);
  DAP_INVARIANT(sentinel_outcomes.size() == pending_.size(),
                "sentinel queue diverged from cohort queue");

  // Cooperative verification: a pending reveal matching an installed
  // *invalid* hint skips its chain walk (treated as a weak-auth
  // failure) unless the deterministic audit draw selects it for a local
  // re-walk. Skipping a genuinely-invalid reveal leaves authenticator
  // state identical (failed weak auth installs nothing); a poisoned
  // hint can only suppress a genuine reveal — never admit a forged one.
  std::vector<std::uint8_t> skip_walk(pending_.size(), 0);
  std::vector<const RevealHint*> hint_of(pending_.size(), nullptr);
  if (!hints_.empty()) {
    for (std::size_t p = 0; p < pending_.size(); ++p) {
      for (const RevealHint& hint : hints_) {
        if (hint.interval == pending_[p].interval &&
            common::constant_time_equal(hint.key, pending_[p].key)) {
          hint_of[p] = &hint;
          break;
        }
      }
      if (hint_of[p] == nullptr) continue;
      if (common::unit_double(common::subseed(audit_seed_, p)) <
          audit_fraction_) {
        ++stats_.hint_audits;  // audit: walk it anyway, compare verdicts
      } else {
        skip_walk[p] = 1;
        ++stats_.walks_skipped;
      }
    }
  }

  // Weak auth for the walked subset runs upfront through accept_many
  // (multi-lane gap walks); verdicts and authenticator state are exactly
  // the sequential ones. Same-interval reveals still carry independent
  // key bytes — accept_many judges each candidate on its own.
  std::vector<tesla::KeyReveal> reveals;
  std::vector<std::size_t> walk_index;
  reveals.reserve(pending_.size());
  walk_index.reserve(pending_.size());
  for (std::size_t p = 0; p < pending_.size(); ++p) {
    if (skip_walk[p] != 0) continue;
    reveals.push_back(tesla::KeyReveal{pending_[p].interval, pending_[p].key});
    walk_index.push_back(p);
  }
  const std::vector<bool> walk_verdicts = auth_.accept_many(reveals);
  std::vector<bool> weak_verdicts(pending_.size(), false);
  last_walks_.clear();
  for (std::size_t w = 0; w < walk_index.size(); ++w) {
    const std::size_t p = walk_index[w];
    weak_verdicts[p] = walk_verdicts[w];
    const common::InlineBytes<32>& key = pending_[p].key;
    last_walks_.push_back(WalkResult{pending_[p].interval,
                                     common::Bytes(key.begin(), key.end()),
                                     walk_verdicts[w]});
    if (hint_of[p] != nullptr && walk_verdicts[w]) {
      // The hint claimed invalid; the audit walk says valid: poisoned.
      ++stats_.poisoned_hints;
      poisoned_sources_.push_back(hint_of[p]->source);
    }
  }
  hints_.clear();

  // Serial pre-pass: one MAC-key derivation per interval per drain (held
  // as precomputed HMAC state, so every per-reveal MAC costs two
  // compressions), and the per-reveal match table over the round's
  // announce arrivals.
  struct Plan {
    std::uint32_t interval = 0;
    bool valid = false;
    Round* round = nullptr;
    std::vector<std::uint8_t> is_match;
  };
  std::map<std::uint32_t, crypto::HmacKey> drain_mac_keys;
  std::vector<Plan> plans(pending_.size());
  for (std::size_t p = 0; p < pending_.size(); ++p) {
    const wire::MessageReveal& packet = pending_[p];
    Plan& plan = plans[p];
    plan.interval = packet.interval;
    ++stats_.reveals_received;
    if (!weak_verdicts[p]) {
      ++stats_.weak_auth_failures;
      continue;
    }
    auto key_it = drain_mac_keys.find(packet.interval);
    if (key_it == drain_mac_keys.end()) {
      auto mac_key = auth_.mac_key(packet.interval);
      if (!mac_key) continue;  // pruned below the chain floor
      ++stats_.mac_key_derivations;
      key_it = drain_mac_keys
                   .try_emplace(packet.interval, crypto::HmacKey(*mac_key))
                   .first;
    }
    plan.valid = true;
    const common::InlineBytes<32> expected_mac = crypto::compute_mac(
        key_it->second, packet.message, config_.dap.mac_size);
    const auto round_it = rounds_.find(packet.interval);
    if (round_it == rounds_.end()) continue;
    plan.round = &round_it->second;
    plan.is_match.resize(plan.round->macs.size(), 0);
    for (std::size_t a = 0; a < plan.round->macs.size(); ++a) {
      plan.is_match[a] =
          common::constant_time_equal(plan.round->macs[a], expected_mac) ? 1
                                                                         : 0;
    }
  }

  // Parallel phase over statistical members: lazy reservoir replay for
  // every live round, then matching each valid plan in queue order. All
  // writes are index-addressed per member (slots, counts, flags), and
  // every random decision comes from the stateless draw chain, so the
  // result is bitwise identical at any thread count.
  std::vector<std::pair<std::uint32_t, Round*>> live_rounds;
  live_rounds.reserve(rounds_.size());
  for (auto& [interval, round] : rounds_) {
    live_rounds.emplace_back(interval, &round);
  }
  std::vector<std::uint8_t> flags(plans.size() * stat_members_, 0);
  // Records each member still stores once its matches are consumed,
  // summed after the join into the stored-records gauge.
  std::vector<std::uint32_t> member_stored(stat_members_, 0);
  const std::size_t m = config_.dap.buffers;
  common::parallel_for(stat_members_, [&](std::size_t mi) {
    for (auto& [interval, round] : live_rounds) {
      replay_member(*round, interval, mi);
    }
    for (std::size_t p = 0; p < plans.size(); ++p) {
      const Plan& plan = plans[p];
      if (!plan.valid || plan.round == nullptr) continue;
      std::uint32_t* slots = plan.round->slots.data() + mi * m;
      std::uint16_t& count = plan.round->counts[mi];
      for (std::size_t j = 0; j < count; ++j) {
        if (plan.is_match[slots[j]] != 0) {
          // Strong auth: consume only the matched record and close the
          // gap, the kernel's slot layout (tesla/buffer.h).
          std::copy(slots + j + 1, slots + count, slots + j);
          --count;
          flags[p * stat_members_ + mi] = 1;
          break;
        }
      }
    }
    std::uint32_t stored = 0;
    for (const auto& [interval, round] : live_rounds) {
      stored += round->counts[mi];
    }
    member_stored[mi] = stored;
  });
  for (auto& [interval, round] : live_rounds) {
    (void)interval;
    round->replayed = static_cast<std::uint32_t>(round->macs.size());
  }

  // Serial aggregation in queue order.
  const auto& sentinel_verdicts = sentinel_.last_drain_verdicts();
  DAP_INVARIANT(sentinel_verdicts.size() == pending_.size(),
                "sentinel verdicts diverged from cohort queue");
  std::vector<RevealOutcome> outcomes(plans.size());
  for (std::size_t p = 0; p < plans.size(); ++p) {
    RevealOutcome& outcome = outcomes[p];
    outcome.interval = plans[p].interval;
    outcome.message = pending_[p].message;
    outcome.sentinel_authenticated = sentinel_outcomes[p].has_value();
    outcome.verdict = sentinel_verdicts[p];
    if (outcome.sentinel_authenticated) ++stats_.sentinel_auths;
    if (!plans[p].valid) continue;
    std::uint64_t matched = 0;
    for (std::size_t mi = 0; mi < stat_members_; ++mi) {
      matched += flags[p * stat_members_ + mi];
    }
    outcome.members_authenticated = matched;
    stats_.member_auths += matched;
    stats_.member_auth_misses += stat_members_ - matched;
  }
  pending_.clear();

  std::uint64_t stored = 0;
  for (const std::uint32_t s : member_stored) stored += s;
  stats_.stored_records = stored;
  stats_.stored_records_peak = std::max(stats_.stored_records_peak, stored);

  prune_rounds(config_.dap.schedule.interval_at(local_now));
  return outcomes;
}

void ReceiverCohort::prune_rounds(std::uint32_t current_interval) {
  while (!rounds_.empty() &&
         rounds_.begin()->first + config_.dap.disclosure_delay <
             current_interval) {
    rounds_.erase(rounds_.begin());
  }
}

std::uint64_t ReceiverCohort::stored_for_interval(std::uint32_t i) const {
  const auto it = rounds_.find(i);
  if (it == rounds_.end()) return 0;
  std::uint64_t stored = 0;
  for (const std::uint16_t c : it->second.counts) stored += c;
  return stored;
}

}  // namespace dap::fleet
