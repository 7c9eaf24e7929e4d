// Golden vectors for the reservoir kernel (tesla/buffer.h), the DAP
// receiver built on it, the fleet's cohort member replay, the
// finite-population game sims and the adaptive defender. Each table row fixes an input sequence and the exact outcome
// it must produce; a failing row prints the row the code produced, in
// table syntax.
//
// The kernel values were recorded from the implementations the kernel
// replaced (the DAP receiver's private record buffer for the Rng source,
// the fleet cohort's member replay for the stateless SplitMix64 source),
// so the tables prove the kernel makes exactly the same decisions. The
// population and defender values were recorded before those classes
// moved into game/ and strategy/, with the window average hand-rolled
// the way bench/population_dynamics did it. The fleet values were
// recorded before the member replay's keep draw moved to integer
// thresholds (an identity that must not change a single decision).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "dap/dap.h"
#include "fleet/fleet.h"
#include "fleet/scenario.h"
#include "game/population.h"
#include "sim/adversary.h"
#include "strategy/defender.h"
#include "tesla/buffer.h"

namespace dap {
namespace {

using common::bytes_of;
using common::Rng;

std::string join(const std::vector<std::uint32_t>& values) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << (i == 0 ? "" : ", ") << values[i];
  }
  out << "}";
  return out.str();
}

// ------------------------------------------------------------- kernel

/// Offer values 1..kOffers into one buffer, then take kTakes in order.
constexpr std::uint32_t kOffers = 16;
constexpr std::uint32_t kTakes[] = {2, 9, 16, 5, 13, 1};

struct KernelVector {
  tesla::BufferPolicy policy;
  bool seeded;  // draw source: false = Rng, true = stateless SplitMix64
  std::size_t m;
  std::uint32_t kept;   // bit k-1 set when offer k was stored
  std::vector<std::uint32_t> after_offers;  // slot contents, slot order
  std::uint32_t taken;  // bit t set when take t found its value
  std::vector<std::uint32_t> after_takes;
};

std::uint64_t kernel_seed(tesla::BufferPolicy policy, std::size_t m) {
  return 7000 + 10 * static_cast<std::uint64_t>(policy) + m;
}

KernelVector run_kernel(tesla::BufferPolicy policy, bool seeded,
                        std::size_t m) {
  KernelVector out{policy, seeded, m, 0, {}, 0, {}};
  tesla::ReservoirBuffer<std::uint32_t> buffer(m, policy);
  Rng rng(kernel_seed(policy, m));
  tesla::RngDraws rng_draws(rng);
  tesla::SeededDraws seeded_draws(kernel_seed(policy, m));
  for (std::uint32_t v = 1; v <= kOffers; ++v) {
    const std::size_t slot =
        seeded ? buffer.admit(seeded_draws) : buffer.admit(rng_draws);
    if (slot == tesla::kDiscard) continue;
    buffer.store(slot, v);
    out.kept |= 1U << (v - 1);
  }
  out.after_offers = buffer.contents();
  for (std::size_t t = 0; t < std::size(kTakes); ++t) {
    const std::uint32_t want = kTakes[t];
    if (buffer.take_first([want](std::uint32_t v) { return v == want; })) {
      out.taken |= 1U << t;
    }
  }
  out.after_takes = buffer.contents();
  return out;
}

const char* policy_name(tesla::BufferPolicy policy) {
  static const char* const kNames[] = {"kReservoir", "kNaiveDrop",
                                       "kAlwaysReplace"};
  return kNames[static_cast<int>(policy)];
}

std::string row(const KernelVector& v) {
  std::ostringstream out;
  out << "{P::" << policy_name(v.policy) << ", "
      << (v.seeded ? "true" : "false") << ", " << v.m << ", 0x" << std::hex
      << v.kept << std::dec << ", " << join(v.after_offers) << ", 0x"
      << std::hex << v.taken << std::dec << ", " << join(v.after_takes)
      << "}";
  return out.str();
}

using P = tesla::BufferPolicy;

const KernelVector kKernelVectors[] = {
    {P::kReservoir, false, 1, 0x201, {10}, 0x0, {10}},
    {P::kReservoir, false, 4, 0x881f, {1, 2, 16, 12}, 0x25, {12}},
    {P::kReservoir, true, 1, 0x801b, {16}, 0x4, {}},
    {P::kReservoir, true, 4, 0xf08f, {16, 2, 15, 13}, 0x15, {15}},
    {P::kNaiveDrop, false, 1, 0x1, {1}, 0x20, {}},
    {P::kNaiveDrop, false, 4, 0xf, {1, 2, 3, 4}, 0x21, {3, 4}},
    {P::kNaiveDrop, true, 1, 0x1, {1}, 0x20, {}},
    {P::kNaiveDrop, true, 4, 0xf, {1, 2, 3, 4}, 0x21, {3, 4}},
    {P::kAlwaysReplace, false, 1, 0xffff, {16}, 0x4, {}},
    {P::kAlwaysReplace, false, 4, 0xffff, {16, 14, 3, 15}, 0x4, {14, 3, 15}},
    {P::kAlwaysReplace, true, 1, 0xffff, {16}, 0x4, {}},
    {P::kAlwaysReplace, true, 4, 0xffff, {16, 14, 10, 15}, 0x4, {14, 10, 15}},
};

TEST(GoldenVectors, KernelDecisionsMatchTable) {
  for (const KernelVector& want : kKernelVectors) {
    const KernelVector got = run_kernel(want.policy, want.seeded, want.m);
    EXPECT_EQ(row(got), row(want));
  }
  EXPECT_EQ(std::size(kKernelVectors), 12U);  // 3 policies x 2 sources x 2 m
}

// -------------------------------------------------------------- fleet

/// A FleetSim run's member-replay outcome: every statistical member's
/// reservoir decisions feed member_auths and stored_records_peak.
struct FleetVector {
  const char* name;
  std::uint64_t member_auths;
  std::uint64_t sentinel_auths;
  std::uint64_t weak_auth_failures;
  std::uint64_t stored_records_peak;
  std::uint64_t total_bits;
};

fleet::ScenarioSpec fleet_vector_spec(const std::string& name) {
  fleet::ScenarioSpec spec;
  spec.name = name;
  spec.interval_us = 200 * sim::kMillisecond;
  if (name == "tree_flooded") {
    // FleetSim.ReportIsIdenticalAcrossThreadCounts's run.
    spec.seed = 21;
    spec.kind = fleet::TopologyKind::kTree;
    spec.depth = 2;
    spec.fanout = 2;
    spec.members_per_cohort = 50;
    spec.intervals = 3;
    spec.forged_fraction = 0.8;
  } else {
    // A small twin of the e2e fleet_gossip workload, at an m that is
    // not a power of two.
    spec.seed = 33;
    spec.buffers = 5;
    spec.kind = fleet::TopologyKind::kGossip;
    spec.relays = 8;
    spec.fanin = 2;
    spec.members_per_cohort = 40;
    spec.intervals = 6;
    spec.forged_fraction = 0.9;
    spec.hop.latency_us = sim::kMillisecond;
  }
  return spec;
}

FleetVector run_fleet(const char* name) {
  fleet::FleetSim sim(fleet_vector_spec(name));
  const fleet::FleetReport r = sim.run();
  return {name,         r.member_auths,        r.sentinel_auths,
          r.weak_auth_failures, r.stored_records_peak, r.total_bits};
}

std::string row(const FleetVector& v) {
  std::ostringstream out;
  out << "{\"" << v.name << "\", " << v.member_auths << ", "
      << v.sentinel_auths << ", " << v.weak_auth_failures << ", "
      << v.stored_records_peak << ", " << v.total_bits << "}";
  return out.str();
}

const FleetVector kFleetVectors[] = {
    {"tree_flooded", 713, 17, 18, 3053, 11448},
    {"gossip_flooded", 947, 27, 48, 4397, 63360},
};

TEST(GoldenVectors, FleetReportsMatchTable) {
  for (const FleetVector& want : kFleetVectors) {
    EXPECT_EQ(row(run_fleet(want.name)), row(want));
  }
}

// ----------------------------------------------------------- receiver

struct ReceiverVector {
  protocol::BufferPolicy policy;
  std::uint32_t d;
  std::size_t pool_limit;
  std::uint64_t verdict_digest;  // FNV-1a over (verdict, authenticated)
  std::vector<std::uint64_t> stats;  // DapStats in declaration order
};

std::vector<std::uint64_t> stats_of(const protocol::DapStats& s) {
  return {s.announces_received,  s.announces_unsafe,
          s.records_offered,     s.records_stored,
          s.reveals_received,    s.weak_auth_failures,
          s.strong_auth_success, s.strong_auth_failures,
          s.admissions_shed,     s.crash_restarts,
          s.mac_key_derivations};
}

/// A seeded flood: per interval s, one copy of each of three messages
/// plus eight forged announces, shuffled; four of them are held back to
/// interval s+1 and delivered in pairs between the reveals of s (still
/// safe at d = 2, so they land after one match and before the next).
/// Reveals go one at a time on even steps and through batched drains on
/// odd steps.
ReceiverVector run_receiver(protocol::BufferPolicy policy, std::uint32_t d,
                            std::size_t pool_limit) {
  protocol::DapConfig config;
  config.chain_length = 20;
  config.disclosure_delay = d;
  config.buffers = 4;
  config.policy = policy;
  config.record_pool_limit = pool_limit;
  Rng rng(9000 + d);
  protocol::DapSender sender(config, rng.bytes(16));
  protocol::DapReceiver receiver(config, sender.chain().commitment(),
                                 rng.bytes(16), sim::LooseClock(0, 0),
                                 rng.fork(1));
  sim::FloodingForger forger(config.sender_id, config.mac_size, rng.fork(2));
  sim::KeyGuessForger key_forger(config.sender_id, config.key_size,
                                 rng.fork(3));
  Rng shuffle = rng.fork(4);

  std::uint64_t digest = 0xcbf29ce484222325ULL;
  const auto fold = [&digest](tesla::RevealVerdict verdict, bool ok) {
    for (const std::uint64_t byte :
         {static_cast<std::uint64_t>(verdict), std::uint64_t{ok}}) {
      digest = (digest ^ byte) * 0x100000001b3ULL;
    }
  };
  const auto at = [&config](std::uint32_t s, std::uint64_t quarter) {
    return config.schedule.interval_start(s) + quarter * sim::kSecond / 4;
  };
  std::vector<wire::MacAnnounce> held;
  for (std::uint32_t s = 1; s <= 16; ++s) {
    std::vector<wire::MacAnnounce> announces;
    for (int k = 0; k < 3; ++k) {
      announces.push_back(sender.announce(
          s, bytes_of("v" + std::to_string(s) + "." + std::to_string(k))));
    }
    for (int f = 0; f < 8; ++f) announces.push_back(forger.forge(s));
    for (std::size_t i = announces.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(shuffle.uniform(0, i - 1));
      std::swap(announces[i - 1], announces[j]);
    }
    for (std::size_t i = 0; i + 4 < announces.size(); ++i) {
      receiver.receive(announces[i], at(s, 1));
    }
    if (s >= 2) {
      // Per message of s - 1: its genuine reveal and a forged one, then
      // two held-back copies, so late copies evict between matches.
      for (std::size_t k = 0; k < 3; ++k) {
        const wire::MessageReveal pair[] = {
            sender.reveal(s - 1, k),
            key_forger.forge_reveal(s - 1, bytes_of("forged"))};
        if (s % 2 == 0) {
          for (const auto& reveal : pair) {
            const bool ok = receiver.receive(reveal, at(s, 2)).has_value();
            fold(receiver.last_verdict(), ok);
          }
        } else {
          for (const auto& reveal : pair) receiver.enqueue(reveal);
          const auto results = receiver.drain_pending_batch(at(s, 2));
          for (std::size_t r = 0; r < results.size(); ++r) {
            fold(receiver.last_drain_verdicts()[r], results[r].has_value());
          }
        }
        for (std::size_t h = 2 * k; h < held.size() && h < 2 * k + 2; ++h) {
          receiver.receive(held[h], at(s, 2));
        }
      }
    }
    held.assign(announces.end() - 4, announces.end());
  }
  return {policy, d, pool_limit, digest, stats_of(receiver.stats())};
}

std::string row(const ReceiverVector& v) {
  std::ostringstream out;
  out << "{P::" << policy_name(v.policy) << ", " << v.d << ", "
      << v.pool_limit << ", 0x" << std::hex << v.verdict_digest << std::dec
      << "ULL, {";
  for (std::size_t i = 0; i < v.stats.size(); ++i) {
    out << (i == 0 ? "" : ", ") << v.stats[i];
  }
  out << "}}";
  return out.str();
}

const ReceiverVector kReceiverVectors[] = {
    {P::kReservoir, 1, 0, 0x375aca54f5c0a58bULL,
     {172, 60, 112, 92, 90, 45, 9, 36, 0, 0, 45}},
    {P::kReservoir, 2, 0, 0x800d5f2d8916530eULL,
     {172, 0, 172, 126, 90, 45, 20, 25, 0, 0, 45}},
    {P::kNaiveDrop, 1, 0, 0x7d9ecb81428ea36fULL,
     {172, 60, 112, 64, 90, 45, 11, 34, 0, 0, 45}},
    {P::kNaiveDrop, 2, 0, 0xbc99542bb385ad2bULL,
     {172, 0, 172, 78, 90, 45, 17, 28, 0, 0, 45}},
    {P::kAlwaysReplace, 1, 0, 0xddfacb8ca2dc5a32ULL,
     {172, 60, 112, 112, 90, 45, 10, 35, 0, 0, 45}},
    {P::kAlwaysReplace, 2, 0, 0xa1bb73d5aec45522ULL,
     {172, 0, 172, 172, 90, 45, 18, 27, 0, 0, 45}},
    {P::kReservoir, 2, 10, 0xc34f0cc71adb1d1aULL,
     {172, 0, 151, 82, 90, 45, 10, 35, 21, 0, 45}},
};

TEST(GoldenVectors, ReceiverStreamsMatchTable) {
  for (const ReceiverVector& want : kReceiverVectors) {
    const ReceiverVector got =
        run_receiver(want.policy, want.d, want.pool_limit);
    EXPECT_EQ(row(got), row(want));
  }
  EXPECT_EQ(std::size(kReceiverVectors), 7U);  // 3 policies x d, + pool cap
}

// ------------------------------------------------- population dynamics

std::string hex(double value) {
  std::ostringstream out;
  out << std::hexfloat << value;
  return out.str();
}

/// Both finite-population sims (game/population.h) at 300 + 300 agents:
/// the shares after kDynamicsSteps steps, and run_and_average on a fresh
/// sim of the same seed.
constexpr std::size_t kDynamicsSteps = 300;
constexpr std::size_t kWarmup = 200;
constexpr std::size_t kWindow = 100;

struct DynamicsVector {
  bool coevolution;  // false = PopulationSim, true = CoevolutionSim
  std::size_t m;
  double x, y;            // shares after kDynamicsSteps steps
  double mean_x, mean_y;  // run_and_average(kWarmup, kWindow)
};

template <typename Sim, typename Config>
DynamicsVector run_dynamics(bool coevolution, std::size_t m,
                            std::uint64_t seed) {
  const auto g = game::GameParams::paper_defaults(0.8, m);
  Config config;
  config.defenders = 300;
  config.attackers = 300;
  Sim sim(config, g, Rng(seed));
  const game::State after = sim.run(kDynamicsSteps).back();
  Sim fresh(config, g, Rng(seed));
  const game::State mean = fresh.run_and_average(kWarmup, kWindow).mean;
  return {coevolution, m, after.x, after.y, mean.x, mean.y};
}

DynamicsVector run_dynamics(bool coevolution, std::size_t m) {
  return coevolution
             ? run_dynamics<game::CoevolutionSim, game::CoevolutionConfig>(
                   true, m, 99 + m)
             : run_dynamics<game::PopulationSim, game::PopulationConfig>(
                   false, m, 42 + m);
}

std::string row(const DynamicsVector& v) {
  std::ostringstream out;
  out << "{" << (v.coevolution ? "true" : "false") << ", " << v.m << ", "
      << hex(v.x) << ", " << hex(v.y) << ", " << hex(v.mean_x) << ", "
      << hex(v.mean_y) << "}";
  return out.str();
}

const DynamicsVector kDynamicsVectors[] = {
    {false, 6, 0x1p+0, 0x1.fe4b17e4b17e5p-1, 0x1.ff8e677e05308p-1,
     0x1.fdeaf94f536ccp-1},
    {false, 30, 0x1.f0a3d70a3d70ap-1, 0x1.199999999999ap-1,
     0x1.e85cd7b900aecp-1, 0x1.2e0bbdeaf94f3p-1},
    {true, 6, 0x1.fe4b17e4b17e5p-1, 0x1.fc962fc962fc9p-1,
     0x1.fdc3a6faf2c28p-1, 0x1.f814c0c8fa21fp-1},
    {true, 30, 0x1.f5c28f5c28f5cp-1, 0x1.999999999999ap-1,
     0x1.edbd194237fadp-1, 0x1.a16aa1edb45bdp-1},
};

TEST(GoldenVectors, PopulationDynamicsMatchTable) {
  for (const DynamicsVector& want : kDynamicsVectors) {
    const DynamicsVector got = run_dynamics(want.coevolution, want.m);
    EXPECT_EQ(row(got), row(want));
  }
  EXPECT_EQ(std::size(kDynamicsVectors), 4U);  // 2 sims x 2 m
}

// --------------------------------------------------- adaptive defender

/// strategy::AdaptiveDefender over the examples/adaptive_defense
/// schedule: calm, moderate (p = 0.8), severe (p = 0.95), calm again,
/// retuning every 5 intervals.
struct DefenderSample {
  std::uint32_t interval;
  double p_hat;
  std::size_t m;
  double x;
};

struct DefenderRun {
  std::vector<DefenderSample> samples;  // every 10th interval
  std::uint64_t digest;  // FNV-1a over every interval's (p̂, m, X) bits
  std::vector<std::uint64_t> counts;  // retunes, closed, succeeded, defeated
  double realized_cost;
  double defense_share_x;
};

DefenderRun run_adaptive_defense() {
  protocol::DapConfig dap_config;
  dap_config.chain_length = 140;
  dap_config.buffers = 1;
  dap_config.schedule = sim::IntervalSchedule(0, sim::kSecond);
  strategy::AdaptiveConfig config;
  config.retune_period = 5;
  config.estimator_smoothing = 0.5;
  protocol::DapSender sender(dap_config, bytes_of("seed"));
  protocol::DapReceiver receiver(dap_config, sender.chain().commitment(),
                                 bytes_of("local-a"), sim::LooseClock(0, 0),
                                 Rng(1));
  strategy::AdaptiveDefender defender(config);
  sim::FloodingForger forger(dap_config.sender_id, dap_config.mac_size,
                             Rng(3));
  const auto mid = [](std::uint32_t i) {
    return (i - 1) * sim::kSecond + sim::kSecond / 2;
  };

  DefenderRun out{{}, 0xcbf29ce484222325ULL, {}, 0, 0};
  const auto fold = [&out](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      out.digest = (out.digest ^ ((word >> (8 * b)) & 0xff)) * 0x100000001b3ULL;
    }
  };
  const auto bits = [](double value) {
    std::uint64_t word = 0;
    std::memcpy(&word, &value, sizeof word);
    return word;
  };
  const std::pair<std::uint32_t, std::size_t> phases[] = {
      {30, 0}, {30, 4}, {40, 19}, {30, 0}};
  std::uint32_t interval = 0;
  for (const auto& [intervals, forged] : phases) {
    for (std::uint32_t k = 0; k < intervals; ++k) {
      ++interval;
      receiver.receive(sender.announce(interval, bytes_of("telemetry")),
                       mid(interval));
      for (std::size_t f = 0; f < forged; ++f) {
        receiver.receive(forger.forge(interval), mid(interval));
      }
      (void)receiver.receive(sender.reveal(interval), mid(interval + 1));
      defender.close_interval(receiver, 1 + forged);
      const DefenderSample sample{interval, defender.estimated_p(),
                                  receiver.buffers(),
                                  defender.stats().defense_share_x};
      fold(bits(sample.p_hat));
      fold(sample.m);
      fold(bits(sample.x));
      if (interval % 10 == 0) out.samples.push_back(sample);
    }
  }
  const auto& stats = defender.stats();
  out.counts = {stats.retunes, stats.intervals_closed,
                stats.attacks_succeeded, stats.attacks_defeated};
  out.realized_cost = stats.realized_cost;
  out.defense_share_x = stats.defense_share_x;
  return out;
}

std::string row(const DefenderSample& s) {
  std::ostringstream out;
  out << "{" << s.interval << ", " << hex(s.p_hat) << ", " << s.m << ", "
      << hex(s.x) << "}";
  return out.str();
}

const DefenderSample kDefenderSamples[] = {
    {10, 0x0p+0, 1, 0x0p+0},
    {20, 0x0p+0, 1, 0x0p+0},
    {30, 0x0p+0, 1, 0x0p+0},
    {40, 0x1.9933333333334p-1, 17, 0x1.fd20aa57847bep-1},
    {50, 0x1.99998p-1, 17, 0x1.fd4bd29ee69ap-1},
    {60, 0x1.9999999333334p-1, 17, 0x1.fd4bdd812e5b5p-1},
    {70, 0x1.e653333331999p-1, 50, 0x1.d8e8214ebbd4fp-1},
    {80, 0x1.e666619999993p-1, 50, 0x1.d89abe7f7c96cp-1},
    {90, 0x1.e666666533333p-1, 50, 0x1.d89aab140cb66p-1},
    {100, 0x1.e666666666199p-1, 50, 0x1.d89aab0f31d96p-1},
    {110, 0x1.e666666666199p-11, 2, 0x1.ffffa05c9ca89p-1},
    {120, 0x1.e666666666199p-21, 2, 0x1.ffffffe0e0a0bp-1},
    {130, 0x1.e666666666199p-31, 2, 0x1.fffffffff837bp-1},
};
constexpr std::uint64_t kDefenderDigest = 0xb9833d36cb54f9acULL;
const std::uint64_t kDefenderCounts[] = {26, 130, 3, 127};
constexpr double kDefenderRealizedCost = 0x1.522p+13;
constexpr double kDefenderShareX = 0x1.fffffffff837bp-1;

TEST(GoldenVectors, AdaptiveDefenderScheduleMatchesTable) {
  const DefenderRun got = run_adaptive_defense();
  ASSERT_EQ(got.samples.size(), std::size(kDefenderSamples));
  for (std::size_t i = 0; i < got.samples.size(); ++i) {
    EXPECT_EQ(row(got.samples[i]), row(kDefenderSamples[i]));
  }
  EXPECT_EQ(got.digest, kDefenderDigest) << std::hex << got.digest;
  EXPECT_EQ(got.counts,
            std::vector<std::uint64_t>(std::begin(kDefenderCounts),
                                       std::end(kDefenderCounts)));
  EXPECT_EQ(hex(got.realized_cost), hex(kDefenderRealizedCost));
  EXPECT_EQ(hex(got.defense_share_x), hex(kDefenderShareX));
}

}  // namespace
}  // namespace dap
