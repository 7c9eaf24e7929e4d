// Property-based tests: randomized round-trips, no-crash fuzzing of the
// wire decoders, and invariants sampled across parameter grids.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "common/codec.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "crypto/keychain.h"
#include "game/ess.h"
#include "game/optimizer.h"
#include "sim/shaper.h"
#include "tesla/buffer.h"
#include "tesla/chain_auth.h"
#include "wire/frame.h"
#include "wire/packet.h"

namespace dap {
namespace {

using common::Bytes;
using common::Rng;

Bytes random_blob(Rng& rng, std::size_t max_len) {
  return rng.bytes(rng.uniform(0, max_len));
}

wire::Packet random_packet(Rng& rng) {
  switch (rng.uniform(0, 5)) {
    case 0: {
      wire::TeslaPacket p;
      p.sender = static_cast<wire::NodeId>(rng.next_u64());
      p.interval = static_cast<std::uint32_t>(rng.next_u64());
      p.message = random_blob(rng, 300);
      p.mac = common::InlineBytes<32>(random_blob(rng, 32));
      p.disclosed_interval = static_cast<std::uint32_t>(rng.next_u64());
      p.disclosed_key = common::InlineBytes<32>(random_blob(rng, 32));
      return p;
    }
    case 1: {
      wire::MacAnnounce p;
      p.sender = static_cast<wire::NodeId>(rng.next_u64());
      p.interval = static_cast<std::uint32_t>(rng.next_u64());
      p.mac = common::InlineBytes<32>(random_blob(rng, 32));
      return p;
    }
    case 2: {
      wire::MessageReveal p;
      p.sender = static_cast<wire::NodeId>(rng.next_u64());
      p.interval = static_cast<std::uint32_t>(rng.next_u64());
      p.message = random_blob(rng, 300);
      p.key = common::InlineBytes<32>(random_blob(rng, 32));
      return p;
    }
    case 3: {
      wire::KeyDisclosure p;
      p.sender = static_cast<wire::NodeId>(rng.next_u64());
      p.interval = static_cast<std::uint32_t>(rng.next_u64());
      p.key = common::InlineBytes<32>(random_blob(rng, 32));
      return p;
    }
    case 4: {
      wire::CdmPacket p;
      p.sender = static_cast<wire::NodeId>(rng.next_u64());
      p.high_interval = static_cast<std::uint32_t>(rng.next_u64());
      p.low_commitment = random_blob(rng, 32);
      p.next_cdm_image = random_blob(rng, 32);
      p.mac = common::InlineBytes<32>(random_blob(rng, 32));
      p.disclosed_high_key = common::InlineBytes<32>(random_blob(rng, 32));
      return p;
    }
    default: {
      wire::BootstrapPacket p;
      p.sender = static_cast<wire::NodeId>(rng.next_u64());
      p.start_interval = static_cast<std::uint32_t>(rng.next_u64());
      p.interval_duration_us = rng.next_u64();
      p.commitment = random_blob(rng, 32);
      p.signature = random_blob(rng, 400);
      p.signer_public_key = random_blob(rng, 64);
      return p;
    }
  }
}

// ----------------------------------------------------------- wire fuzzing

TEST(Property, RandomPacketsRoundTrip) {
  Rng rng(1001);
  for (int i = 0; i < 1000; ++i) {
    const wire::Packet original = random_packet(rng);
    const auto decoded = wire::decode(wire::encode(original));
    ASSERT_TRUE(decoded.has_value()) << "iteration " << i;
    EXPECT_EQ(decoded->index(), original.index());
    EXPECT_TRUE(wire::encode(*decoded) == wire::encode(original))
        << "iteration " << i;
  }
}

TEST(Property, RandomPacketsFrameRoundTrip) {
  Rng rng(1002);
  for (int i = 0; i < 500; ++i) {
    const wire::Packet original = random_packet(rng);
    const auto decoded = wire::deframe(wire::frame(original));
    ASSERT_TRUE(decoded.has_value()) << "iteration " << i;
    EXPECT_TRUE(wire::encode(*decoded) == wire::encode(original));
  }
}

TEST(Property, DecodeNeverCrashesOnGarbage) {
  Rng rng(1003);
  int decoded_count = 0;
  for (int i = 0; i < 5000; ++i) {
    const Bytes junk = rng.bytes(rng.uniform(0, 200));
    const auto packet = wire::decode(junk);
    if (packet) ++decoded_count;
    const auto framed = wire::deframe(junk);
    // CRC makes random garbage essentially never deframe.
    EXPECT_FALSE(framed.has_value());
  }
  // Random bytes occasionally parse as a packet shape (no CRC inside
  // decode), but it must stay rare.
  EXPECT_LT(decoded_count, 100);
}

TEST(Property, TruncatedEncodingsNeverDecode) {
  Rng rng(1004);
  for (int i = 0; i < 200; ++i) {
    const Bytes encoded = wire::encode(random_packet(rng));
    const auto cut = rng.uniform(1, encoded.size() - 1);
    EXPECT_FALSE(
        wire::decode(common::ByteView(encoded.data(), cut)).has_value());
  }
}

TEST(Property, BitflippedFramesNeverDeframe) {
  Rng rng(1005);
  for (int i = 0; i < 300; ++i) {
    Bytes framed = wire::frame(random_packet(rng));
    const auto byte = rng.uniform(0, framed.size() - 1);
    const auto bit = rng.uniform(0, 7);
    framed[byte] = static_cast<std::uint8_t>(framed[byte] ^ (1u << bit));
    EXPECT_FALSE(wire::deframe(framed).has_value()) << "iteration " << i;
  }
}

// ------------------------------------------------------------- key chains

TEST(Property, RandomChainsVerifyEverywhere) {
  Rng rng(1006);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t length = rng.uniform(1, 64);
    const std::size_t key_size = rng.uniform(4, 32);
    const crypto::KeyChain chain(rng.bytes(16), length,
                                 crypto::PrfDomain::kChainStep, key_size);
    const auto i = static_cast<std::uint32_t>(rng.uniform(1, length));
    const auto anchor = static_cast<std::uint32_t>(rng.uniform(0, i - 1));
    // A receiver anchored anywhere below i rejects a forged K_i and then
    // accepts the authentic one.
    tesla::ChainAuthenticator auth(crypto::PrfDomain::kChainStep, key_size,
                                   chain.key(anchor), anchor);
    Bytes forged = chain.key(i);
    forged[rng.uniform(0, forged.size() - 1)] ^= 0x01;
    EXPECT_FALSE(auth.accept(i, forged));
    EXPECT_EQ(auth.rejected(), 1u);
    EXPECT_TRUE(auth.accept(i, chain.key(i)));
    EXPECT_EQ(auth.anchor_index(), i);
  }
}

TEST(Property, TwoLevelDerivationConsistentAcrossShapes) {
  Rng rng(1007);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t high = rng.uniform(2, 8);
    const std::size_t low = rng.uniform(1, 10);
    const auto link = rng.bernoulli(0.5) ? crypto::LevelLink::kOriginal
                                         : crypto::LevelLink::kEftp;
    const crypto::TwoLevelKeyChain chain(rng.bytes(16), high, low, link);
    const auto i = rng.uniform(1, high);
    const auto j = rng.uniform(0, low);
    EXPECT_EQ(crypto::derive_low_key(chain.low_anchor(i), i, j, low,
                                     chain.key_size()),
              chain.low_key(i, j));
  }
}

// -------------------------------------------------------------- reservoir

/// Pearson statistic for "each of n offers survives with probability
/// m/n" over `rounds` rounds, scaled for the m-of-n sample: the kept set
/// of a round is a uniform m-subset, so its indicator covariance is
/// p(1-p) n/(n-1) (I - J/n) and the statistic is ~ chi^2 with n-1
/// degrees of freedom. Returned as a Wilson-Hilferty z-score.
double reservoir_chi2_z(const std::vector<int>& survival, std::size_t m,
                        int rounds) {
  const double n = static_cast<double>(survival.size());
  const double p = static_cast<double>(m) / n;
  const double expected = rounds * p;
  double sum_sq = 0.0;
  for (const int observed : survival) {
    sum_sq += (observed - expected) * (observed - expected);
  }
  const double chi2 = sum_sq * (n - 1.0) / (rounds * p * (1.0 - p) * n);
  const double k = n - 1.0;
  return (std::cbrt(chi2 / k) - (1.0 - 2.0 / (9.0 * k))) /
         std::sqrt(2.0 / (9.0 * k));
}

TEST(Property, ReservoirUniformAcrossRandomShapes) {
  // Survival is uniform over arrival position for both draw sources the
  // kernel takes: the statistical basis of P = p^m. |z| < 3.9 is a
  // two-sided 1e-4 test per (shape, source); a too-regular pattern fails
  // the lower tail just as a biased one fails the upper.
  Rng rng(1008);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t m = rng.uniform(1, 6);
    const std::size_t n = m + rng.uniform(1, 20);
    const int rounds = 4000;
    const std::uint64_t seed = rng.next_u64();
    for (const bool seeded : {false, true}) {
      std::vector<int> survival(n, 0);
      Rng draws_rng(seed);
      for (int r = 0; r < rounds; ++r) {
        tesla::ReservoirBuffer<std::size_t> buffer(m);
        tesla::RngDraws rng_draws(draws_rng);
        tesla::SeededDraws seeded_draws(
            common::subseed(seed, static_cast<std::uint64_t>(r)));
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t slot = seeded ? buffer.admit(seeded_draws)
                                          : buffer.admit(rng_draws);
          if (slot != tesla::kDiscard) buffer.store(slot, k);
        }
        ASSERT_EQ(buffer.contents().size(), m);
        for (const std::size_t kept : buffer.contents()) ++survival[kept];
      }
      const double z = reservoir_chi2_z(survival, m, rounds);
      EXPECT_LT(std::abs(z), 3.9) << "m=" << m << " n=" << n
                                  << (seeded ? " seeded" : " rng");
    }
  }
}

TEST(Property, ReservoirChi2RejectsBiasedSelection) {
  // The statistic has teeth: always-replace over-weights late arrivals,
  // and its survival profile fails the same test by a wide margin.
  const std::size_t m = 3;
  const std::size_t n = 12;
  const int rounds = 4000;
  std::vector<int> survival(n, 0);
  Rng rng(77);
  for (int r = 0; r < rounds; ++r) {
    tesla::ReservoirBuffer<std::size_t> buffer(
        m, tesla::BufferPolicy::kAlwaysReplace);
    for (std::size_t k = 0; k < n; ++k) buffer.offer(k, rng);
    for (const std::size_t kept : buffer.contents()) ++survival[kept];
  }
  EXPECT_GT(reservoir_chi2_z(survival, m, rounds), 10.0);
}

// ------------------------------------------------------------------- game

TEST(Property, EssIsAlwaysFixedPointAndInSimplex) {
  Rng rng(1009);
  for (int trial = 0; trial < 200; ++trial) {
    const double p = 0.05 + 0.94 * rng.next_double();
    const std::size_t m = rng.uniform(1, 100);
    const auto g = game::GameParams::paper_defaults(p, m);
    const auto ess = game::solve_ess(g);
    EXPECT_GE(ess.point.x, 0.0);
    EXPECT_LE(ess.point.x, 1.0);
    EXPECT_GE(ess.point.y, 0.0);
    EXPECT_LE(ess.point.y, 1.0);
    const auto d = game::replicator_field(g, ess.point.x, ess.point.y);
    EXPECT_NEAR(d.dx, 0.0, 1e-7) << "p=" << p << " m=" << m;
    EXPECT_NEAR(d.dy, 0.0, 1e-7) << "p=" << p << " m=" << m;
  }
}

TEST(Property, RandomStartsConvergeToClassifiedEss) {
  // Sampled global-attractor check with RK4 from random interior starts.
  Rng rng(1010);
  for (int trial = 0; trial < 12; ++trial) {
    const double p = 0.3 + 0.65 * rng.next_double();
    const std::size_t m = rng.uniform(1, 80);
    const auto g = game::GameParams::paper_defaults(p, m);
    const auto ess = game::solve_ess(g);
    game::IntegrationOptions options;
    options.method = game::Integrator::kRk4;
    // Track the true ODE: the paper-faithful clamp makes the simplex
    // edges absorbing under discrete overshoot (documented artifact).
    options.boundary = game::Boundary::kInteriorPreserving;
    options.dt = 0.01;
    options.max_steps = 3000000;
    options.convergence_eps = 1e-13;
    options.record_every = 0;
    const game::State start{0.05 + 0.9 * rng.next_double(),
                            0.05 + 0.9 * rng.next_double()};
    const auto traj = game::integrate(g, start, options);
    // Near regime boundaries convergence is slow; accept loose landing.
    EXPECT_NEAR(traj.final.x, ess.point.x, 2e-2)
        << "p=" << p << " m=" << m << " start=(" << start.x << ","
        << start.y << ")";
    EXPECT_NEAR(traj.final.y, ess.point.y, 2e-2)
        << "p=" << p << " m=" << m;
  }
}

TEST(Property, RandomPayoffMatricesConvergeToClosedFormEss) {
  // Satellite of the game-loop PR: the closed-form ESS must be the
  // attractor not just at the paper's constants but across randomized
  // payoff matrices (Ra, k1, k2, xa, m) under BOTH success models —
  // the paper's P = p^m and the reservoir P = max(0, 1 - m(1-p)) the
  // online oracle uses.
  Rng rng(1011);
  for (int trial = 0; trial < 10; ++trial) {
    game::GameParams g;
    g.Ra = 50.0 + 350.0 * rng.next_double();
    g.k1 = 5.0 + (0.8 * g.Ra - 5.0) * rng.next_double();  // keeps Ra > k1
    g.k2 = 0.5 + 19.5 * rng.next_double();
    g.xa = 0.1 + 0.85 * rng.next_double();
    g.m = rng.uniform(1, 40);
    g.success_model = trial % 2 == 0 ? game::SuccessModel::kPaperPower
                                     : game::SuccessModel::kReservoir;
    game::GameParams::validate(g);
    const auto ess = game::solve_ess(g);
    game::IntegrationOptions options;
    options.method = game::Integrator::kRk4;
    options.boundary = game::Boundary::kInteriorPreserving;
    options.dt = 0.01;
    options.max_steps = 3000000;
    options.convergence_eps = 1e-13;
    options.record_every = 0;
    const game::State start{0.05 + 0.9 * rng.next_double(),
                            0.05 + 0.9 * rng.next_double()};
    const auto traj = game::integrate(g, start, options);
    EXPECT_NEAR(traj.final.x, ess.point.x, 2e-2)
        << "Ra=" << g.Ra << " k1=" << g.k1 << " k2=" << g.k2
        << " xa=" << g.xa << " m=" << g.m << " model="
        << (g.success_model == game::SuccessModel::kReservoir ? "reservoir"
                                                              : "power")
        << " start=(" << start.x << "," << start.y << ")";
    EXPECT_NEAR(traj.final.y, ess.point.y, 2e-2)
        << "Ra=" << g.Ra << " k1=" << g.k1 << " k2=" << g.k2
        << " xa=" << g.xa << " m=" << g.m;
  }
}

TEST(Property, CostsAreFiniteAndBoundedAcrossGrid) {
  for (double p = 0.05; p < 1.0; p += 0.05) {
    for (std::size_t m = 1; m <= 100; m += 9) {
      const auto g = game::GameParams::paper_defaults(p, m);
      const double cost = game::defense_cost(g);
      EXPECT_TRUE(std::isfinite(cost));
      EXPECT_GE(cost, 0.0);
      EXPECT_LE(cost, g.k2 * static_cast<double>(m) + g.Ra + 1e-9);
    }
  }
}

// ----------------------------------------------------------- token bucket

TEST(Property, TokenBucketNeverExceedsRatePlusBurst) {
  Rng rng(1011);
  for (int trial = 0; trial < 10; ++trial) {
    const double rate = 100.0 + rng.next_double() * 10000.0;
    const double burst = 64.0 + rng.next_double() * 1000.0;
    sim::TokenBucket bucket(rate, burst);
    double sent = 0;
    sim::SimTime now = 0;
    const sim::SimTime horizon = 5 * sim::kSecond;
    while (now < horizon) {
      const auto bits = rng.uniform(1, 256);
      if (bucket.try_consume(bits, now)) sent += static_cast<double>(bits);
      now += rng.uniform(0, 20 * sim::kMillisecond);
    }
    const double seconds =
        static_cast<double>(now) / static_cast<double>(sim::kSecond);
    EXPECT_LE(sent, rate * seconds + burst + 256.0)
        << "rate=" << rate << " burst=" << burst;
  }
}

}  // namespace
}  // namespace dap

// ---------------------------------------------------------- determinism

#include "analysis/figures.h"
#include "analysis/montecarlo.h"
#include "game/population.h"

namespace dap {
namespace {

TEST(Property, MonteCarloRunsAreBitReproducible) {
  analysis::MonteCarloConfig config;
  config.p = 0.8;
  config.m = 4;
  config.trials = 400;
  config.seed = 4242;
  const auto a = analysis::measure_attack_success(config);
  const auto b = analysis::measure_attack_success(config);
  EXPECT_EQ(a.measured_attack_success, b.measured_attack_success);
  EXPECT_EQ(a.wilson_lo, b.wilson_lo);
}

TEST(Property, CoevolutionRunsAreBitReproducible) {
  const auto g = game::GameParams::paper_defaults(0.8, 20);
  game::CoevolutionConfig config;
  config.defenders = 200;
  config.attackers = 200;
  game::CoevolutionSim a(config, g, common::Rng(7));
  game::CoevolutionSim b(config, g, common::Rng(7));
  const auto ta = a.run(500);
  const auto tb = b.run(500);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].x, tb[i].x);
    EXPECT_EQ(ta[i].y, tb[i].y);
  }
}

TEST(Property, FigureSeriesAreDeterministic) {
  const auto a = analysis::fig6_regime_scan(0.8, 20);
  const auto b = analysis::fig6_regime_scan(0.8, 20);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].simulated.x, b[i].simulated.x);
    EXPECT_EQ(a[i].simulated.y, b[i].simulated.y);
    EXPECT_EQ(a[i].steps, b[i].steps);
  }
}

}  // namespace
}  // namespace dap
