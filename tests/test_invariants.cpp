// Tests for the SOMRM_CHECKED invariant layer (core/invariants.hpp).
//
// Each paper-derived probe gets a deliberately broken input and the test
// asserts the probe fires with the right check name and diagnostic detail
// (state index, moment order, step). The file also proves the layer's
// central contract: enabling the probes never perturbs solver output
// (bit-identity on a valid model).
//
// The file compiles in both configurations. Under -DSOMRM_CHECKED=OFF the
// probes are inline no-ops, so the firing tests GTEST_SKIP; the
// valid-model and determinism tests run everywhere.

#include "core/invariants.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/randomization.hpp"
#include "core/scaling.hpp"
#include "density/pde_solver.hpp"
#include "linalg/csr.hpp"
#include "linalg/panel.hpp"

namespace somrm {
namespace {

using core::DriftScalePolicy;
using core::ScaledModel;
using core::SecondOrderMrm;
using linalg::Triplet;
using linalg::Vec;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

SecondOrderMrm two_state_model(Vec drifts, Vec variances) {
  auto gen = ctmc::Generator::from_rates(
      2, std::vector<Triplet>{{0, 1, 2.0}, {1, 0, 4.0}});
  return SecondOrderMrm(std::move(gen), std::move(drifts),
                        std::move(variances), Vec{1.0, 0.0});
}

/// Runs @p fn and asserts it throws InvariantViolation whose message
/// contains every needle (check name + diagnostic fragments).
template <typename Fn>
void expect_violation(Fn&& fn, std::vector<std::string> needles) {
  try {
    fn();
  } catch (const check::InvariantViolation& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("SOMRM_CHECKED violation"), std::string::npos)
        << what;
    for (const std::string& needle : needles)
      EXPECT_NE(what.find(needle), std::string::npos)
          << "missing \"" << needle << "\" in: " << what;
    return;
  }
  FAIL() << "expected check::InvariantViolation";
}

#define SKIP_UNLESS_CHECKED()                                          \
  do {                                                                 \
    if (!check::kChecked)                                              \
      GTEST_SKIP() << "probes are no-ops without -DSOMRM_CHECKED=ON";  \
  } while (0)

TEST(InvariantsTest, CheckedFlagMatchesMacro) {
  EXPECT_EQ(check::kChecked, SOMRM_CHECKED != 0);
}

TEST(InvariantsTest, NegativeScaledVarianceFires) {
  SKIP_UNLESS_CHECKED();
  ScaledModel scaled =
      core::scale_model(two_state_model({1.0, 2.0}, {0.5, 0.25}));
  scaled.s_prime[1] = -0.5;  // broken model: sigma^2 < 0 after scaling
  expect_violation(
      [&] { check::check_scaled_model(scaled, true, "test"); },
      {"lemma2.s_prime", "state 1", "sigma^2 must be >= 0"});
}

TEST(InvariantsTest, NonConservativeQPrimeRowFires) {
  SKIP_UNLESS_CHECKED();
  ScaledModel scaled =
      core::scale_model(two_state_model({1.0, 2.0}, {0.5, 0.25}));
  // Broken model: row 0 of the uniformized DTMC sums to 0.9, not 1.
  const std::vector<Triplet> leaky{
      {0, 0, 0.4}, {0, 1, 0.5}, {1, 0, 1.0}};
  scaled.q_prime = linalg::CsrMatrix::from_triplets(2, 2, leaky);
  expect_violation(
      [&] { check::check_scaled_model(scaled, true, "test"); },
      {"lemma2.q_prime", "row 0", "stochastic"});
}

TEST(InvariantsTest, RewardExceedingQdFires) {
  SKIP_UNLESS_CHECKED();
  ScaledModel scaled =
      core::scale_model(two_state_model({1.0, 2.0}, {0.5, 0.25}));
  scaled.r_prime[0] = 1.5;  // reward rate above q d: Lemma 2 broken
  expect_violation(
      [&] { check::check_scaled_model(scaled, true, "test"); },
      {"lemma2.r_prime", "state 0", "exceeds the Lemma-2 bound"});
  // The same model passes when the bounds are not enforced (kPaper mode).
  EXPECT_NO_THROW(check::check_scaled_model(scaled, false, "test"));
}

TEST(InvariantsTest, CsrConstructorPoisonSweepFires) {
  SKIP_UNLESS_CHECKED();
  expect_violation(
      [] {
        linalg::CsrMatrix bad(2, 2, {0, 1, 2}, {0, 1}, {1.0, kNan});
      },
      {"finite", "CsrMatrix values", "not finite"});
}

TEST(InvariantsTest, SweepColumnProbesFire) {
  SKIP_UNLESS_CHECKED();
  const Vec poisoned{1.0, kNan};
  expect_violation(
      [&] {
        check::check_sweep_column(poisoned, 3, 1, true, true, "test");
      },
      {"sweep.finite", "U^(1)(3)", "state 1"});

  const Vec negative{-0.25, 0.5};
  expect_violation(
      [&] {
        check::check_sweep_column(negative, 2, 1, true, true, "test");
      },
      {"sweep.nonnegative", "U^(1)(2)", "state 0", "subtraction-free"});
  // Centered scaling has mixed signs: the sign probe must be off.
  EXPECT_NO_THROW(
      check::check_sweep_column(negative, 2, 1, false, true, "test"));

  // Lemma-2 majorant for U^(1)(1) is 2 * 1!/0! = 2; 3.0 breaks it.
  const Vec too_big{3.0};
  expect_violation(
      [&] { check::check_sweep_column(too_big, 1, 1, true, true, "test"); },
      {"sweep.lemma2_bound", "U^(1)(1)", "majorant"});
  // k < j: the iterate is nonzero but the factorial bound does not apply.
  EXPECT_NO_THROW(
      check::check_sweep_column(too_big, 0, 1, true, true, "test"));
  // Impulse recursion obeys a different bound: majorant off, value passes.
  EXPECT_NO_THROW(
      check::check_sweep_column(too_big, 1, 1, true, false, "test"));
}

TEST(InvariantsTest, PanelOnesColumnProbeFires) {
  SKIP_UNLESS_CHECKED();
  linalg::Panel u(2, 3, 0.0);
  u.fill_col(0, 1.0);
  EXPECT_NO_THROW(check::check_sweep_panel(u, 4, 1, true, true, "test"));
  u(1, 0) = 0.5;  // U^(0) must stay the all-ones vector h
  expect_violation(
      [&] { check::check_sweep_panel(u, 4, 1, true, true, "test"); },
      {"sweep.ones_column", "state 1", "step 4"});
}

TEST(InvariantsTest, PanelAccessIsBoundsChecked) {
  SKIP_UNLESS_CHECKED();
  linalg::Panel u(2, 3, 0.0);
  expect_violation([&] { (void)u.row_data(5); },
                   {"panel.bounds", "row 5", "rows = 2"});
  expect_violation([&] { (void)u(0, 7); }, {"panel.bounds", "out of range"});
}

TEST(InvariantsTest, TruncationBoundProbesFire) {
  SKIP_UNLESS_CHECKED();
  // Bound above the requested epsilon at the chosen G.
  expect_violation(
      [] { check::check_truncation_bound(5e-9, 6e-9, 1e-9, 10, "test"); },
      {"theorem4.bound", "epsilon"});
  // Bound that grew when G increased: Theorem-4 monotonicity broken.
  expect_violation(
      [] { check::check_truncation_bound(2e-10, 1e-10, 1e-9, 10, "test"); },
      {"theorem4.monotone", "bound(10)", "bound(9)"});
  EXPECT_NO_THROW(
      check::check_truncation_bound(5e-10, 7e-10, 1e-9, 10, "test"));
  // A left-tail term at or above 1/4 ulp of the right-tail bound (ulp(1e-9)
  // is 2^-82, about 2.07e-25): charging it would change the reported bits.
  expect_violation([] { check::check_left_cut(1e-25, 1e-9, "test"); },
                   {"poisson.left_cut", "1/4 ulp"});
  expect_violation([] { check::check_left_cut(-1e-30, 1e-9, "test"); },
                   {"poisson.left_cut"});
  EXPECT_NO_THROW(check::check_left_cut(1e-27, 1e-9, "test"));
  EXPECT_NO_THROW(check::check_left_cut(0.0, 0.0, "test"));
}

TEST(InvariantsTest, JensenViolationFires) {
  SKIP_UNLESS_CHECKED();
  const Vec v1{1.0, 2.0};
  const Vec v2{1.5, 1.0};  // state 1: V2 = 1 < (V1)^2 = 4
  expect_violation(
      [&] { check::check_moment_consistency(v1, v2, 1e-12, "test"); },
      {"moments.jensen", "state 1", "deficit"});
  const Vec ok2{1.5, 4.5};
  EXPECT_NO_THROW(check::check_moment_consistency(v1, ok2, 1e-12, "test"));
}

// ---- Probes wired into the real solvers -----------------------------------

TEST(InvariantsTest, ValidModelPassesEndToEnd) {
  // All wired probes must stay silent on a healthy model, in every config.
  const auto model = two_state_model({1.0, 2.0}, {0.5, 0.25});
  const core::RandomizationMomentSolver solver(model);
  core::MomentSolverOptions options;
  options.max_moment = 3;
  const std::vector<double> times{0.5, 1.0, 2.0};
  EXPECT_NO_THROW((void)solver.solve_multi(times, options));
  const Vec w{1.0, 0.0};
  EXPECT_NO_THROW((void)solver.solve_terminal_weighted(1.0, w, options));

  density::PdeSolverOptions pde;
  pde.grid = {-6.0, 8.0, 128};
  pde.num_time_steps = 50;
  EXPECT_NO_THROW((void)density::density_via_pde(model, 1.0, pde));
}

TEST(InvariantsTest, ValidModelPassesWithPaperPolicyAndCentering) {
  // kPaper may break the reward bounds and centering breaks sign
  // constraints — both legitimate; the gated probes must not fire.
  const auto model = two_state_model({1.0, 2.0}, {30.0, 50.0});
  const core::RandomizationMomentSolver solver(model);
  core::MomentSolverOptions options;
  options.max_moment = 2;
  options.scale_policy = DriftScalePolicy::kPaper;
  EXPECT_NO_THROW((void)solver.solve(1.0, options));
  options.scale_policy = DriftScalePolicy::kSafe;
  options.center = 1.4;
  EXPECT_NO_THROW((void)solver.solve(1.0, options));
}

TEST(InvariantsTest, CheckedProbesNeverPerturbSolverOutput) {
  // Central contract: the probes only read. Within a checked build,
  // solving with checks enabled and disabled must be bit-identical (under
  // OFF both runs are unchecked and the test pins plain determinism).
  const auto model = two_state_model({1.0, 2.0}, {0.5, 0.25});
  const core::RandomizationMomentSolver solver(model);
  core::MomentSolverOptions options;
  options.max_moment = 3;

  check::set_enabled(true);
  const auto on = solver.solve(1.5, options);
  check::set_enabled(false);
  const auto off = solver.solve(1.5, options);
  check::set_enabled(true);

  ASSERT_EQ(on.per_state.size(), off.per_state.size());
  for (std::size_t j = 0; j < on.per_state.size(); ++j) {
    ASSERT_EQ(on.per_state[j].size(), off.per_state[j].size());
    EXPECT_EQ(0, std::memcmp(on.per_state[j].data(), off.per_state[j].data(),
                             on.per_state[j].size() * sizeof(double)))
        << "moment order " << j << " differs between checked and unchecked";
  }
  ASSERT_EQ(on.weighted.size(), off.weighted.size());
  EXPECT_EQ(0, std::memcmp(on.weighted.data(), off.weighted.data(),
                           on.weighted.size() * sizeof(double)));
}

}  // namespace
}  // namespace somrm
