// Unit tests for the evolutionary game module: payoff matrix (Table II),
// replicator field (§V-D), ESS candidates and classification (§V-E),
// integrators, buffer optimisation (§V-F / Algorithm 3), the
// bandwidth/memory models of §VI-A, and the finite-population imitation
// and co-evolution sims.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>

#include "game/bandwidth.h"
#include "game/ess.h"
#include "game/optimizer.h"
#include "game/params.h"
#include "game/replicator.h"

namespace dap::game {
namespace {

// ----------------------------------------------------------------- params

TEST(GameParams, PaperDefaults) {
  const auto g = GameParams::paper_defaults(0.8, 10);
  EXPECT_DOUBLE_EQ(g.Ra, 200.0);
  EXPECT_DOUBLE_EQ(g.k1, 20.0);
  EXPECT_DOUBLE_EQ(g.k2, 4.0);
  EXPECT_DOUBLE_EQ(g.p(), 0.8);
  EXPECT_NEAR(g.attack_success(), std::pow(0.8, 10), 1e-12);
}

TEST(GameParams, ValidationRejectsBadValues) {
  EXPECT_THROW((void)GameParams::paper_defaults(0.0, 4), std::invalid_argument);
  EXPECT_THROW((void)GameParams::paper_defaults(1.0, 4), std::invalid_argument);
  EXPECT_THROW((void)GameParams::paper_defaults(0.5, 0), std::invalid_argument);
  GameParams g = GameParams::paper_defaults(0.5, 4);
  g.Ra = 10.0;  // violates Ra > k1
  EXPECT_THROW(GameParams::validate(g), std::invalid_argument);
  g = GameParams::paper_defaults(0.5, 4);
  g.k2 = -1.0;
  EXPECT_THROW(GameParams::validate(g), std::invalid_argument);
}

TEST(PayoffMatrix, MatchesTableII) {
  const auto g = GameParams::paper_defaults(0.8, 4);
  const double X = 0.5, Y = 0.25;
  const auto pm = payoff_matrix(g, X, Y);
  const double P = std::pow(0.8, 4);
  const double Cd = 4.0 * 4 * X;
  const double Ca = 20.0 * 0.8 * Y;
  EXPECT_DOUBLE_EQ(pm.defend_attack_d, -Cd - P * 200.0);
  EXPECT_DOUBLE_EQ(pm.defend_attack_a, P * 200.0 - Ca);
  EXPECT_DOUBLE_EQ(pm.defend_noattack_d, -Cd);
  EXPECT_DOUBLE_EQ(pm.defend_noattack_a, 0.0);
  EXPECT_DOUBLE_EQ(pm.nodefend_attack_d, -200.0);
  EXPECT_DOUBLE_EQ(pm.nodefend_attack_a, 200.0 - Ca);
  EXPECT_DOUBLE_EQ(pm.nodefend_noattack_d, 0.0);
  EXPECT_DOUBLE_EQ(pm.nodefend_noattack_a, 0.0);
}

// ------------------------------------------------------------- replicator

TEST(Replicator, FieldMatchesPaperExpressions) {
  const auto g = GameParams::paper_defaults(0.8, 10);
  const double X = 0.3, Y = 0.7;
  const double P = g.attack_success();
  const auto d = replicator_field(g, X, Y);
  EXPECT_NEAR(d.dx, X * (1 - X) * (200.0 * Y * (1 - P) - 4.0 * 10 * X),
              1e-12);
  EXPECT_NEAR(d.dy,
              Y * (1 - Y) * ((P - 1) * X * 200.0 + 200.0 - 20.0 * 0.8 * Y),
              1e-12);
}

TEST(Replicator, BoundariesAreInvariant) {
  const auto g = GameParams::paper_defaults(0.8, 10);
  for (double v : {0.0, 0.3, 1.0}) {
    EXPECT_DOUBLE_EQ(replicator_field(g, 0.0, v).dx, 0.0);
    EXPECT_DOUBLE_EQ(replicator_field(g, 1.0, v).dx, 0.0);
    EXPECT_DOUBLE_EQ(replicator_field(g, v, 0.0).dy, 0.0);
    EXPECT_DOUBLE_EQ(replicator_field(g, v, 1.0).dy, 0.0);
  }
}

TEST(Replicator, FixedPointHasZeroField) {
  const auto g = GameParams::paper_defaults(0.8, 30);
  const auto c = ess_candidates(g);
  const auto d = replicator_field(g, c.x_interior, c.y_interior);
  EXPECT_NEAR(d.dx, 0.0, 1e-9);
  EXPECT_NEAR(d.dy, 0.0, 1e-9);
}

TEST(Replicator, TrajectoryStaysInSimplex) {
  const auto g = GameParams::paper_defaults(0.8, 30);
  IntegrationOptions options;
  options.record_every = 1;
  options.max_steps = 50000;
  const auto traj = integrate(g, {0.5, 0.5}, options);
  for (const auto& s : traj.points) {
    EXPECT_GE(s.x, 0.0);
    EXPECT_LE(s.x, 1.0);
    EXPECT_GE(s.y, 0.0);
    EXPECT_LE(s.y, 1.0);
  }
}

TEST(Replicator, EulerAndRk4AgreeOnAttractor) {
  for (std::size_t m : {4u, 25u, 40u, 70u}) {
    const auto g = GameParams::paper_defaults(0.8, m);
    IntegrationOptions euler;
    euler.max_steps = 2000000;
    euler.convergence_eps = 1e-12;
    euler.record_every = 0;
    IntegrationOptions rk4 = euler;
    rk4.method = Integrator::kRk4;
    const auto a = integrate(g, {0.5, 0.5}, euler);
    const auto b = integrate(g, {0.5, 0.5}, rk4);
    EXPECT_NEAR(a.final.x, b.final.x, 5e-3) << "m=" << m;
    EXPECT_NEAR(a.final.y, b.final.y, 5e-3) << "m=" << m;
  }
}

TEST(Replicator, ConvergenceFlagSet) {
  const auto g = GameParams::paper_defaults(0.8, 4);
  IntegrationOptions options;
  options.max_steps = 1000000;
  options.record_every = 0;
  const auto traj = integrate(g, {0.5, 0.5}, options);
  EXPECT_TRUE(traj.converged);
  EXPECT_GT(traj.steps, 0u);
}

TEST(Replicator, InvalidInputsRejected) {
  const auto g = GameParams::paper_defaults(0.8, 4);
  IntegrationOptions options;
  EXPECT_THROW(integrate(g, {-0.1, 0.5}, options), std::invalid_argument);
  EXPECT_THROW(integrate(g, {0.5, 1.5}, options), std::invalid_argument);
  options.dt = 0.0;
  EXPECT_THROW(integrate(g, {0.5, 0.5}, options), std::invalid_argument);
}

TEST(Replicator, JacobianStableAtInteriorEss) {
  const auto g = GameParams::paper_defaults(0.8, 30);
  const auto ess = solve_ess(g);
  ASSERT_EQ(ess.kind, EssKind::kInterior);
  const auto j = jacobian_at(g, ess.point.x, ess.point.y);
  EXPECT_TRUE(j.stable());
  // Fig. 6(c) shows spiral convergence: complex eigenvalues.
  EXPECT_LT(j.discriminant(), 0.0);
}

TEST(Replicator, RecordEverySubsamples) {
  const auto g = GameParams::paper_defaults(0.8, 4);
  IntegrationOptions fine;
  fine.record_every = 1;
  fine.max_steps = 1000;
  fine.convergence_eps = 0.0;  // never converge; use all steps
  IntegrationOptions coarse = fine;
  coarse.record_every = 100;
  const auto a = integrate(g, {0.5, 0.5}, fine);
  const auto b = integrate(g, {0.5, 0.5}, coarse);
  EXPECT_GT(a.points.size(), 5 * b.points.size());
  EXPECT_NEAR(a.final.x, b.final.x, 1e-12);
}

// ------------------------------------------------------------------- ESS

TEST(Ess, CandidatesMatchClosedForms) {
  const auto g = GameParams::paper_defaults(0.8, 20);
  const auto c = ess_candidates(g);
  const double P = g.attack_success();
  const double denom = 20.0 * 4.0 * 20 * 0.8 + (1 - P) * (1 - P) * 40000.0;
  EXPECT_NEAR(c.y_at_x1, P * 200.0 / 16.0, 1e-12);
  EXPECT_NEAR(c.x_at_y1, (1 - P) * 200.0 / 80.0, 1e-12);
  EXPECT_NEAR(c.x_interior, (1 - P) * 40000.0 / denom, 1e-12);
  EXPECT_NEAR(c.y_interior, 4.0 * 20 * 200.0 / denom, 1e-12);
}

// gtest prints a parameter without a PrintTo as its raw bytes, and ctest
// names each case after that text. The padding after `kind` is spelled
// out and zeroed so the names are the same on every run instead of
// echoing whatever the stack held.
struct RegimeCase {
  std::size_t m;
  EssKind kind;
  std::array<std::uint8_t, 7> pad{};
};
static_assert(sizeof(RegimeCase) == 16);

class EssRegimes : public ::testing::TestWithParam<RegimeCase> {};

TEST_P(EssRegimes, ClassifierMatchesPaperRegimesAtP08) {
  // Fig. 6: p = 0.8 regimes (1,1) for small m, (1,Y') next, interior,
  // then (X',1) for m >= 55.
  const auto g = GameParams::paper_defaults(0.8, GetParam().m);
  EXPECT_EQ(solve_ess(g).kind, GetParam().kind) << "m=" << GetParam().m;
}

INSTANTIATE_TEST_SUITE_P(
    P08, EssRegimes,
    ::testing::Values(RegimeCase{1, EssKind::kFullDefenseFullAttack},
                      RegimeCase{6, EssKind::kFullDefenseFullAttack},
                      RegimeCase{11, EssKind::kFullDefenseFullAttack},
                      RegimeCase{12, EssKind::kFullDefensePartialAttack},
                      RegimeCase{15, EssKind::kFullDefensePartialAttack},
                      RegimeCase{20, EssKind::kInterior},
                      RegimeCase{30, EssKind::kInterior},
                      RegimeCase{54, EssKind::kInterior},
                      RegimeCase{55, EssKind::kPartialDefenseFullAttack},
                      RegimeCase{100, EssKind::kPartialDefenseFullAttack}));

TEST(Ess, PointsLieInSimplex) {
  for (double p : {0.5, 0.7, 0.8, 0.9, 0.95, 0.99}) {
    for (std::size_t m = 1; m <= 100; m += 7) {
      const auto ess = solve_ess(GameParams::paper_defaults(p, m));
      EXPECT_GE(ess.point.x, 0.0);
      EXPECT_LE(ess.point.x, 1.0);
      EXPECT_GE(ess.point.y, 0.0);
      EXPECT_LE(ess.point.y, 1.0);
    }
  }
}

TEST(Ess, FixedPointPropertyHolds) {
  // Whatever the classification, the returned point must be a fixed
  // point of the replicator dynamics.
  for (double p : {0.6, 0.8, 0.95}) {
    for (std::size_t m : {2u, 14u, 30u, 60u}) {
      const auto g = GameParams::paper_defaults(p, m);
      const auto ess = solve_ess(g);
      const auto d = replicator_field(g, ess.point.x, ess.point.y);
      EXPECT_NEAR(d.dx, 0.0, 1e-8) << "p=" << p << " m=" << m;
      EXPECT_NEAR(d.dy, 0.0, 1e-8) << "p=" << p << " m=" << m;
    }
  }
}

TEST(Ess, SimulationConvergesToClassifiedPoint) {
  // RK4 from (0.5, 0.5) must land on the classified ESS across regimes.
  // (m = 17..18 at p = 0.8 are excluded: there forward Euler — and the
  // paper's own simulation — sticks to the X=1 boundary; RK4 agrees with
  // the closed form, see EXPERIMENTS.md.)
  for (std::size_t m : {3u, 13u, 25u, 45u, 60u}) {
    const auto g = GameParams::paper_defaults(0.8, m);
    const auto ess = solve_ess(g);
    EXPECT_TRUE(verify_ess(g, ess)) << "m=" << m;
  }
}

TEST(Ess, HighAttackGivesUpRegime) {
  // p = 0.98, m = 50: defending fully is not worth it; the classifier
  // must pick (X', 1), where the defender cost saturates at Ra.
  const auto g = GameParams::paper_defaults(0.98, 50);
  const auto ess = solve_ess(g);
  EXPECT_EQ(ess.kind, EssKind::kPartialDefenseFullAttack);
  EXPECT_LT(ess.point.x, 1.0);
  EXPECT_DOUBLE_EQ(ess.point.y, 1.0);
  EXPECT_NEAR(defense_cost(g), g.Ra, 1e-9);
}

TEST(Ess, KindNamesAreDistinct) {
  EXPECT_STREQ(ess_kind_name(EssKind::kFullDefenseFullAttack), "(1,1)");
  EXPECT_STREQ(ess_kind_name(EssKind::kFullDefensePartialAttack), "(1,Y')");
  EXPECT_STREQ(ess_kind_name(EssKind::kInterior), "(X*,Y*)");
  EXPECT_STREQ(ess_kind_name(EssKind::kPartialDefenseFullAttack), "(X',1)");
  EXPECT_STREQ(ess_kind_name(EssKind::kNoDefenseFullAttack), "(0,1)");
}

// -------------------------------------------------------------- optimiser

TEST(Optimizer, CostFormulaAtKnownEss) {
  // At (1,1): E = k2*m + p^m * Ra.
  const auto g = GameParams::paper_defaults(0.8, 6);
  ASSERT_EQ(solve_ess(g).kind, EssKind::kFullDefenseFullAttack);
  EXPECT_NEAR(defense_cost(g), 4.0 * 6 + std::pow(0.8, 6) * 200.0, 1e-9);
}

TEST(Optimizer, NaiveCostFormula) {
  // N = k2*M + p^M * Ra * Y'(M), Y' clamped.
  const auto g = GameParams::paper_defaults(0.8, 1);
  const double pM = std::pow(0.8, 50);
  const double y_prime = std::min(1.0, pM * 200.0 / 16.0);
  EXPECT_NEAR(naive_cost(g, 50), 200.0 + pM * 200.0 * y_prime, 1e-9);
  EXPECT_THROW((void)naive_cost(g, 0), std::invalid_argument);
}

TEST(Optimizer, PaperInteriorPicksSmallestInteriorM) {
  const auto g = GameParams::paper_defaults(0.8, 1);
  const auto result = optimize_m(g, OptimizeMode::kPaperInterior);
  EXPECT_EQ(result.ess.kind, EssKind::kInterior);
  EXPECT_EQ(result.m, 17u);  // first interior m at p = 0.8
  // No smaller m is interior.
  for (std::size_t m = 1; m < result.m; ++m) {
    EXPECT_NE(solve_ess(GameParams::paper_defaults(0.8, m)).kind,
              EssKind::kInterior);
  }
}

TEST(Optimizer, OptimalMIncreasesWithAttackLevel) {
  std::size_t previous = 0;
  for (double p : {0.6, 0.7, 0.8, 0.85, 0.9, 0.93}) {
    const auto result = optimize_m(GameParams::paper_defaults(p, 1),
                                   OptimizeMode::kPaperInterior);
    EXPECT_GE(result.m, previous) << "p=" << p;
    previous = result.m;
  }
}

TEST(Optimizer, GiveUpRegimeBeyondCriticalP) {
  // Fig. 7: beyond p ~ 0.94 no m <= 50 reaches an interior ESS; the
  // mechanism maxes out the buffers and the ESS becomes (X', 1).
  const auto low = optimize_m(GameParams::paper_defaults(0.93, 1),
                              OptimizeMode::kPaperInterior);
  EXPECT_EQ(low.ess.kind, EssKind::kInterior);
  EXPECT_LT(low.m, 50u);
  const auto high = optimize_m(GameParams::paper_defaults(0.96, 1),
                               OptimizeMode::kPaperInterior);
  EXPECT_EQ(high.m, 50u);
  EXPECT_EQ(high.ess.kind, EssKind::kPartialDefenseFullAttack);
  EXPECT_NEAR(high.cost, 200.0, 1e-9);
}

TEST(Optimizer, MinimizeCostNeverWorseThanPaperMode) {
  for (double p : {0.6, 0.8, 0.9, 0.95, 0.98}) {
    const auto g = GameParams::paper_defaults(p, 1);
    const auto paper = optimize_m(g, OptimizeMode::kPaperInterior);
    const auto argmin = optimize_m(g, OptimizeMode::kMinimizeCost);
    EXPECT_LE(argmin.cost, paper.cost + 1e-9) << "p=" << p;
  }
}

TEST(Optimizer, GameBeatsNaiveEverywhere) {
  // Fig. 8's headline claim: E <= N across the whole sweep, with a large
  // gap at high p.
  for (double p = 0.5; p < 0.995; p += 0.01) {
    const auto g = GameParams::paper_defaults(p, 1);
    const auto result = optimize_m(g, OptimizeMode::kPaperInterior);
    EXPECT_LE(result.cost, naive_cost(g) + 1e-9) << "p=" << p;
  }
  // Large gap past the regime flip.
  const auto g = GameParams::paper_defaults(0.98, 1);
  EXPECT_GT(naive_cost(g) - optimize_m(g, OptimizeMode::kPaperInterior).cost,
            50.0);
}

TEST(Optimizer, FaithfulAlg3TracksLocalImprovements) {
  // The printed Algorithm 3 records the last m whose cost improved on
  // its predecessor. For a U-shaped curve that is the arg-min.
  const auto g = GameParams::paper_defaults(0.8, 1);
  const auto faithful = optimize_m(g, OptimizeMode::kFaithfulAlg3);
  const auto argmin = optimize_m(g, OptimizeMode::kMinimizeCost);
  EXPECT_EQ(faithful.m, argmin.m);
}

TEST(Optimizer, CostCurveHasExpectedShape) {
  const auto curve = cost_curve(GameParams::paper_defaults(0.8, 1), 50);
  ASSERT_EQ(curve.size(), 50u);
  // Costs are positive and bounded by roughly k2*M + Ra.
  for (const auto& point : curve) {
    EXPECT_GT(point.cost, 0.0);
    EXPECT_LT(point.cost, 4.0 * 50 + 200.0 + 1.0);
  }
}

TEST(Optimizer, RejectsZeroMaxM) {
  const auto g = GameParams::paper_defaults(0.8, 1);
  EXPECT_THROW((void)optimize_m(g, OptimizeMode::kMinimizeCost, 0),
               std::invalid_argument);
}

// -------------------------------------------------------------- bandwidth

TEST(Bandwidth, BuffersForMemoryMatchesPaperCounts) {
  // §VI-A: Mem 1024/512 against 280-bit and 56-bit records.
  EXPECT_EQ(buffers_for_memory(1024, 280), 3u);
  EXPECT_EQ(buffers_for_memory(512, 280), 1u);
  EXPECT_EQ(buffers_for_memory(1024, 56), 18u);
  EXPECT_EQ(buffers_for_memory(512, 56), 9u);
  EXPECT_THROW(buffers_for_memory(1024, 0), std::invalid_argument);
}

TEST(Bandwidth, AttackerRequirementFormula) {
  // x_m = P^(1/m) (1 - x_d).
  EXPECT_NEAR(attacker_bandwidth_required(0.5, 1, 0.2), 0.5 * 0.8, 1e-12);
  EXPECT_NEAR(attacker_bandwidth_required(0.5, 3, 0.2),
              std::pow(0.5, 1.0 / 3) * 0.8, 1e-12);
  EXPECT_THROW(attacker_bandwidth_required(0.0, 3, 0.2),
               std::invalid_argument);
  EXPECT_THROW(attacker_bandwidth_required(0.5, 0, 0.2),
               std::invalid_argument);
  EXPECT_THROW(attacker_bandwidth_required(0.5, 3, 1.0),
               std::invalid_argument);
}

TEST(Bandwidth, MoreBuffersForceMoreAttackerBandwidth) {
  // DAP's claim in Fig. 5: with 5x the buffers, the attacker must spend
  // strictly more bandwidth for the same success target.
  for (double P : {0.1, 0.5, 0.9}) {
    EXPECT_GT(attacker_bandwidth_required(P, 18, 0.2),
              attacker_bandwidth_required(P, 3, 0.2));
    EXPECT_GT(attacker_bandwidth_required(P, 9, 0.2),
              attacker_bandwidth_required(P, 1, 0.2));
  }
}

TEST(Bandwidth, SenderRequirementShrinksWithBuffers) {
  // The complementary reading (ablation E11): more buffers mean the
  // sender needs far less MAC-rebroadcast bandwidth for the same
  // defence guarantee.
  const double xa = 0.4;
  EXPECT_GT(sender_mac_bandwidth_required(0.99, 3, xa),
            sender_mac_bandwidth_required(0.99, 18, xa));
  EXPECT_DOUBLE_EQ(sender_mac_bandwidth_required(0.0, 3, xa), 0.0);
  EXPECT_TRUE(std::isinf(sender_mac_bandwidth_required(1.0, 3, xa)));
}

}  // namespace
}  // namespace dap::game

// ------------------------------------------------------------- sensitivity

#include "game/sensitivity.h"

namespace dap::game {
namespace {

TEST(Sensitivity, PaperConstantsSpansMatchFig6) {
  GameParams base = GameParams::paper_defaults(0.8, 1);
  const auto spans = regime_spans(base, 0.8, 100);
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].kind, EssKind::kFullDefenseFullAttack);
  EXPECT_EQ(spans[0].m_last, 11u);
  EXPECT_EQ(spans[1].kind, EssKind::kFullDefensePartialAttack);
  EXPECT_EQ(spans[2].kind, EssKind::kInterior);
  EXPECT_EQ(spans[2].m_last, 54u);
  EXPECT_EQ(spans[3].kind, EssKind::kPartialDefenseFullAttack);
  EXPECT_EQ(spans[3].m_last, 100u);
  EXPECT_TRUE(canonical_regime_order(spans));
}

TEST(Sensitivity, CriticalLevelNearPaperThreshold) {
  GameParams base = GameParams::paper_defaults(0.8, 1);
  const auto p_crit = critical_attack_level(base);
  ASSERT_TRUE(p_crit.has_value());
  EXPECT_GT(*p_crit, 0.92);
  EXPECT_LT(*p_crit, 0.96);
}

TEST(Sensitivity, OrderingInvariantAcrossConstants) {
  for (double k1 : {10.0, 20.0, 40.0}) {
    for (double k2 : {2.0, 4.0, 8.0}) {
      GameParams base;
      base.Ra = 200.0;
      base.k1 = k1;
      base.k2 = k2;
      base.xa = 0.8;
      base.m = 1;
      EXPECT_TRUE(canonical_regime_order(regime_spans(base, 0.8, 100)))
          << "k1=" << k1 << " k2=" << k2;
    }
  }
}

TEST(Sensitivity, CostlierDefenseLowersGiveUpThreshold) {
  GameParams cheap = GameParams::paper_defaults(0.8, 1);
  cheap.k2 = 2.0;
  GameParams costly = GameParams::paper_defaults(0.8, 1);
  costly.k2 = 8.0;
  const auto p_cheap = critical_attack_level(cheap);
  const auto p_costly = critical_attack_level(costly);
  ASSERT_TRUE(p_cheap.has_value());
  ASSERT_TRUE(p_costly.has_value());
  EXPECT_GT(*p_cheap, *p_costly);
}

TEST(Sensitivity, CheaperAttacksLowerGiveUpThreshold) {
  GameParams cheap_attack = GameParams::paper_defaults(0.8, 1);
  cheap_attack.k1 = 10.0;
  GameParams costly_attack = GameParams::paper_defaults(0.8, 1);
  costly_attack.k1 = 40.0;
  const auto p_cheap = critical_attack_level(cheap_attack);
  const auto p_costly = critical_attack_level(costly_attack);
  ASSERT_TRUE(p_cheap.has_value());
  // With very costly attacks the interior may persist to the sweep edge.
  if (p_costly.has_value()) {
    EXPECT_LT(*p_cheap, *p_costly);
  } else {
    EXPECT_LT(*p_cheap, 0.999);
  }
}

}  // namespace
}  // namespace dap::game

// ----------------------------------------------- Jacobian across regimes

namespace dap::game {
namespace {

TEST(Jacobian, StableAtEveryClassifiedEss) {
  // Local stability of the classified point for a grid spanning all four
  // regimes. Boundary points are probed from just inside the simplex.
  for (double p : {0.6, 0.8, 0.95}) {
    for (std::size_t m : {2u, 13u, 30u, 70u}) {
      const auto g = GameParams::paper_defaults(p, m);
      const auto ess = solve_ess(g);
      const double x = std::clamp(ess.point.x, 1e-4, 1.0 - 1e-4);
      const double y = std::clamp(ess.point.y, 1e-4, 1.0 - 1e-4);
      const auto j = jacobian_at(g, x, y);
      // At a stable point the trace is non-positive (damping); strictly
      // negative away from degenerate cases.
      EXPECT_LT(j.trace(), 1.0) << "p=" << p << " m=" << m;
    }
  }
}

TEST(Jacobian, SpiralOnlyInInteriorRegime) {
  // Complex eigenvalues (negative discriminant) characterise the
  // interior spiral of Fig. 6(c); corner ESSs converge monotonically.
  const auto interior = GameParams::paper_defaults(0.8, 30);
  const auto ess = solve_ess(interior);
  ASSERT_EQ(ess.kind, EssKind::kInterior);
  EXPECT_LT(jacobian_at(interior, ess.point.x, ess.point.y).discriminant(),
            0.0);
}

TEST(CostModel, GiveUpRegimeCostIsExactlyRa) {
  // Algebraic identity: at ESS (X', 1) with X' = (1-P)Ra/(k2 m),
  // E = k2 m X'^2 + (1 - (1-P)X') Ra = Ra identically.
  for (double p : {0.8, 0.9, 0.98}) {
    for (std::size_t m : {60u, 80u, 100u}) {
      const auto g = GameParams::paper_defaults(p, m);
      const auto ess = solve_ess(g);
      if (ess.kind != EssKind::kPartialDefenseFullAttack) continue;
      EXPECT_NEAR(defense_cost(g), g.Ra, 1e-9) << "p=" << p << " m=" << m;
    }
  }
}

}  // namespace
}  // namespace dap::game

// ------------------------------------------------- population dynamics

#include "game/population.h"

namespace dap::game {
namespace {

using common::Rng;

TEST(PopulationSim, InitialSharesRespected) {
  PopulationConfig config;
  config.initial_x = 0.3;
  config.initial_y = 0.7;
  PopulationSim sim(config, GameParams::paper_defaults(0.8, 20), Rng(9));
  EXPECT_NEAR(sim.defender_share(), 0.3, 1e-3);
  EXPECT_NEAR(sim.attacker_share(), 0.7, 1e-3);
}

TEST(PopulationSim, SharesStayInUnitInterval) {
  PopulationConfig config;
  PopulationSim sim(config, GameParams::paper_defaults(0.8, 4), Rng(10));
  for (const auto& s : sim.run(2000)) {
    EXPECT_GE(s.x, 0.0);
    EXPECT_LE(s.x, 1.0);
    EXPECT_GE(s.y, 0.0);
    EXPECT_LE(s.y, 1.0);
  }
}

TEST(PopulationSim, ConvergesToOdeAttractorFullDefense) {
  // m = 6, p = 0.8 -> ESS (1,1); the finite population should end near it.
  PopulationConfig config;
  config.defenders = 4000;
  config.attackers = 4000;
  const auto g = GameParams::paper_defaults(0.8, 6);
  PopulationSim sim(config, g, Rng(11));
  (void)sim.run(4000);
  EXPECT_GT(sim.defender_share(), 0.97);
  EXPECT_GT(sim.attacker_share(), 0.97);
}

TEST(PopulationSim, ConvergesNearInteriorEss) {
  // m = 30, p = 0.8 -> interior ESS; agent dynamics orbit near it, so
  // compare a window average of the stochastic orbit.
  PopulationConfig config;
  config.defenders = 8000;
  config.attackers = 8000;
  const auto g = GameParams::paper_defaults(0.8, 30);
  const auto ess = solve_ess(g);
  PopulationSim sim(config, g, Rng(12));
  const auto w = sim.run_and_average(20000, 2000);
  EXPECT_NEAR(w.mean.x, ess.point.x, 0.08);
  EXPECT_NEAR(w.mean.y, ess.point.y, 0.08);
}

TEST(PopulationSim, RejectsBadConfig) {
  PopulationConfig config;
  config.defenders = 0;
  EXPECT_THROW(
      PopulationSim(config, GameParams::paper_defaults(0.8, 4), Rng(13)),
      std::invalid_argument);
  config.defenders = 10;
  config.initial_x = 1.5;
  EXPECT_THROW(
      PopulationSim(config, GameParams::paper_defaults(0.8, 4), Rng(13)),
      std::invalid_argument);
  config.initial_x = 0.5;
  config.imitation_rate = 0.0;
  EXPECT_THROW(
      PopulationSim(config, GameParams::paper_defaults(0.8, 4), Rng(13)),
      std::invalid_argument);
}

TEST(CoevolutionSim, FindsFullConflictEssFromSampledPayoffs) {
  // m = 6, p = 0.8: ESS (1,1). No agent knows the game; imitation on
  // realized payoffs must still drive both populations to the corner.
  const auto g = GameParams::paper_defaults(0.8, 6);
  CoevolutionConfig config;
  CoevolutionSim sim(config, g, Rng(501));
  const auto w = sim.run_and_average(12000, 4000);
  EXPECT_GT(w.mean.x, 0.98);
  EXPECT_GT(w.mean.y, 0.97);
}

TEST(CoevolutionSim, FindsInteriorEssFromSampledPayoffs) {
  const auto g = GameParams::paper_defaults(0.8, 30);
  const auto ess = solve_ess(g);
  CoevolutionConfig config;
  CoevolutionSim sim(config, g, Rng(502));
  const auto w = sim.run_and_average(16000, 6000);
  EXPECT_NEAR(w.mean.x, ess.point.x, 0.05);
  // The attacker mix is hypersensitive to the defender mix near X = 1
  // (dY/dX ~ -Ra(1-P)/(k1 xa) ~ -12), so Y carries a visible
  // mutation-induced offset; the regime is still unmistakable.
  EXPECT_NEAR(w.mean.y, ess.point.y, 0.12);
}

TEST(CoevolutionSim, FindsGiveUpRegimeFromSampledPayoffs) {
  const auto g = GameParams::paper_defaults(0.8, 70);
  const auto ess = solve_ess(g);
  ASSERT_EQ(ess.kind, EssKind::kPartialDefenseFullAttack);
  CoevolutionConfig config;
  CoevolutionSim sim(config, g, Rng(503));
  const auto w = sim.run_and_average(12000, 4000);
  EXPECT_NEAR(w.mean.x, ess.point.x, 0.05);
  EXPECT_GT(w.mean.y, 0.95);
}

TEST(CoevolutionSim, CustomOutcomeModelShiftsEquilibrium) {
  // If attacks against buffers *always* fail (P = 0 instead of p^m), the
  // attacker population should attack much less than under p^m.
  const auto g = GameParams::paper_defaults(0.8, 4);  // p^m = 0.41
  CoevolutionConfig config;
  CoevolutionSim baseline(config, g, Rng(504));
  const auto with_pm = baseline.run_and_average(8000, 3000);
  CoevolutionSim hardened(config, g, Rng(504));
  hardened.set_attack_outcome([](common::Rng&) { return false; });
  const auto with_zero = hardened.run_and_average(8000, 3000);
  EXPECT_GT(with_pm.mean.y, with_zero.mean.y + 0.1);
}

TEST(CoevolutionSim, SharesStayInUnitInterval) {
  const auto g = GameParams::paper_defaults(0.8, 20);
  CoevolutionConfig config;
  config.defenders = 300;
  config.attackers = 300;
  CoevolutionSim sim(config, g, Rng(505));
  for (const auto& s : sim.run(2000)) {
    EXPECT_GE(s.x, 0.0);
    EXPECT_LE(s.x, 1.0);
    EXPECT_GE(s.y, 0.0);
    EXPECT_LE(s.y, 1.0);
  }
}

TEST(CoevolutionSim, RejectsBadConfig) {
  const auto g = GameParams::paper_defaults(0.8, 10);
  CoevolutionConfig config;
  config.defenders = 0;
  EXPECT_THROW(CoevolutionSim(config, g, Rng(1)), std::invalid_argument);
  config.defenders = 10;
  config.observation_rounds = 0;
  EXPECT_THROW(CoevolutionSim(config, g, Rng(1)), std::invalid_argument);
  config.observation_rounds = 4;
  config.imitation_rate = 0.0;
  EXPECT_THROW(CoevolutionSim(config, g, Rng(1)), std::invalid_argument);
  config.imitation_rate = 0.001;
  CoevolutionSim ok(config, g, Rng(1));
  EXPECT_THROW(ok.set_attack_outcome(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace dap::game
