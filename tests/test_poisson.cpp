// Tests for log-space Poisson weights, tails and truncation points — the
// numerical backbone of both randomization solvers.

#include "prob/poisson.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace somrm::prob {
namespace {

TEST(PoissonPmfTest, SmallLambdaMatchesDirectFormula) {
  const double lambda = 2.5;
  double factorial = 1.0;
  for (std::size_t k = 0; k <= 10; ++k) {
    if (k > 0) factorial *= static_cast<double>(k);
    const double expected =
        std::exp(-lambda) * std::pow(lambda, static_cast<double>(k)) /
        factorial;
    // exp/lgamma round-trips cost a few ulp relative to the direct product.
    EXPECT_NEAR(poisson_pmf(k, lambda), expected, 1e-13 * expected + 1e-300);
  }
}

TEST(PoissonPmfTest, ZeroLambdaIsDegenerateAtZero) {
  EXPECT_DOUBLE_EQ(poisson_pmf(0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(poisson_pmf(1, 0.0), 0.0);
  EXPECT_EQ(log_poisson_pmf(3, 0.0),
            -std::numeric_limits<double>::infinity());
}

TEST(PoissonPmfTest, NegativeLambdaRejected) {
  EXPECT_THROW(log_poisson_pmf(0, -1.0), std::invalid_argument);
}

TEST(PoissonPmfTest, HugeLambdaDoesNotUnderflowNearMode) {
  // The paper's large example: qt = 40,000. Near the mode the weight is
  // ~ 1/sqrt(2 pi qt) ~ 2e-3 and must be representable.
  const double lambda = 40000.0;
  const double w = poisson_pmf(40000, lambda);
  EXPECT_GT(w, 1e-4);
  EXPECT_LT(w, 1e-2);
  EXPECT_NEAR(w, 1.0 / std::sqrt(2.0 * M_PI * lambda), 1e-5);
}

TEST(PoissonWeightsTest, SumToOneWhenTruncatedGenerously) {
  for (double lambda : {0.5, 5.0, 50.0, 500.0}) {
    const std::size_t k_max =
        static_cast<std::size_t>(lambda + 20.0 * std::sqrt(lambda) + 30.0);
    const auto w = poisson_weights(lambda, k_max);
    double total = 0.0;
    for (double v : w) total += v;
    EXPECT_NEAR(total, 1.0, 1e-12) << "lambda = " << lambda;
  }
}

TEST(PoissonTailTest, ComplementOfLeftSum) {
  const double lambda = 7.0;
  for (std::size_t k_min : {1u, 3u, 7u, 10u}) {
    double left = 0.0;
    for (std::size_t k = 0; k < k_min; ++k) left += poisson_pmf(k, lambda);
    EXPECT_NEAR(poisson_tail(lambda, k_min), 1.0 - left, 1e-12);
  }
}

TEST(PoissonTailTest, WholeDistributionFromZero) {
  EXPECT_DOUBLE_EQ(poisson_tail(3.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(log_poisson_tail(3.0, 0), 0.0);
}

TEST(PoissonTailTest, DeepTailMatchesLogSummation) {
  // Compare against a directly accumulated log-sum for a moderate case.
  const double lambda = 20.0;
  const std::size_t k_min = 60;
  double direct = 0.0;
  for (std::size_t k = k_min; k < k_min + 200; ++k)
    direct += poisson_pmf(k, lambda);
  EXPECT_NEAR(log_poisson_tail(lambda, k_min), std::log(direct), 1e-10);
}

TEST(PoissonTailTest, MonotoneDecreasingInKmin) {
  const double lambda = 100.0;
  double prev = 0.0;  // log tail at k_min = 0
  for (std::size_t k = 20; k <= 400; k += 20) {
    const double cur = log_poisson_tail(lambda, k);
    EXPECT_LT(cur, prev + 1e-15);
    prev = cur;
  }
}

TEST(PoissonTailTest, ExtremeTailStaysFiniteInLogSpace) {
  // Far beyond double underflow in linear space.
  const double lt = log_poisson_tail(40000.0, 50000);
  EXPECT_TRUE(std::isfinite(lt));
  EXPECT_LT(lt, -1000.0);
}

TEST(TruncationPointTest, CoversRequestedMass) {
  for (double lambda : {1.0, 10.0, 1000.0}) {
    for (double eps : {1e-6, 1e-12}) {
      const std::size_t g = poisson_truncation_point(lambda, std::log(eps));
      EXPECT_LT(poisson_tail(lambda, g + 1), eps);
      if (g > 0) {
        EXPECT_GE(poisson_tail(lambda, g), eps);
      }
    }
  }
}

TEST(TruncationPointTest, GrowsLikeLambdaPlusSpread) {
  const double lambda = 40000.0;
  const std::size_t g = poisson_truncation_point(lambda, std::log(1e-9));
  // G must exceed the mode and stay within a few-thousand-wide window
  // (paper: G = 41,588 for the full Theorem-4 bound at this qt).
  EXPECT_GT(g, 40000u);
  EXPECT_LT(g, 42000u);
}

TEST(TruncationPointTest, TrivialCases) {
  EXPECT_EQ(poisson_truncation_point(0.0, std::log(1e-9)), 0u);
  EXPECT_EQ(poisson_truncation_point(5.0, 0.5), 0u);  // bound >= 1
}

TEST(TruncationPointTest, HandlesSubUnderflowTargets) {
  // Tail targets far below double range must still resolve (log form).
  const std::size_t g = poisson_truncation_point(100.0, -800.0);
  EXPECT_GT(g, 100u);
  EXPECT_LT(log_poisson_tail(100.0, g + 1), -800.0);
}

TEST(PoissonWindowTest, MatchesPmfInsideWindow) {
  for (double lambda : {0.3, 2.5, 40.0, 1000.0}) {
    const std::size_t k_max =
        static_cast<std::size_t>(lambda + 10.0 * std::sqrt(lambda) + 30.0);
    const PoissonWindow win = poisson_weight_window(lambda, k_max);
    ASSERT_FALSE(win.weights.empty());
    EXPECT_LE(win.right(), k_max);
    for (std::size_t k = win.left; k <= win.right(); ++k) {
      const double expected = poisson_pmf(k, lambda);
      // The recurrence accumulates ~1 ulp per step away from the mode.
      EXPECT_NEAR(win.weight(k), expected, 1e-11 * expected)
          << "lambda " << lambda << " k " << k;
    }
  }
}

TEST(PoissonWindowTest, CoversAllNormalRangeWeights) {
  // Outside the window the true pmf must be negligible (below DBL_MIN):
  // window truncation may never drop representable normal-range mass.
  const double lambda = 40000.0;
  const std::size_t k_max = 42000;
  const PoissonWindow win = poisson_weight_window(lambda, k_max);
  EXPECT_GT(win.left, 30000u);  // deep left truncation actually happens
  if (win.left > 0) {
    EXPECT_LT(log_poisson_pmf(win.left - 1, lambda),
              std::log(std::numeric_limits<double>::min()) + 1.0);
  }
  for (double w : win.weights)
    EXPECT_GE(w, std::numeric_limits<double>::min());  // no denormal entries
}

/// log sum_{k < left} Pois(k; lambda), summed directly from the log-pmf
/// (log-sum-exp around the largest term, k = left - 1).
double direct_log_left_mass(double lambda, std::size_t left) {
  const double top = log_poisson_pmf(left - 1, lambda);
  double sum = 0.0;
  for (std::size_t k = 0; k < left; ++k)
    sum += std::exp(log_poisson_pmf(k, lambda) - top);
  return top + std::log(sum);
}

TEST(PoissonWindowTest, MassTargetBoundsTheDroppedLeftMass) {
  // The targeted window drops left mass whose reported bound covers the
  // directly summed mass and meets the target, cuts as far as the target
  // allows (one more index would break it), and keeps the untargeted
  // window's weights bit for bit.
  for (const double lambda : {150.0, 1000.0, 40000.0}) {
    const std::size_t k_max = static_cast<std::size_t>(
        lambda + 12.0 * std::sqrt(lambda) + 40.0);
    const PoissonWindow full = poisson_weight_window(lambda, k_max);
    for (const double target : {-40.0, -90.0, -300.0}) {
      if (target <= -lambda) continue;  // log Pois(0) = -lambda: no cut
      const PoissonWindow win = poisson_weight_window(lambda, k_max, target);
      ASSERT_GT(win.left, full.left) << "lambda " << lambda << " target "
                                     << target;
      EXPECT_LT(win.log_left_mass, target);
      EXPECT_GE(win.log_left_mass,
                direct_log_left_mass(lambda, win.left) - 1e-12)
          << "lambda " << lambda << " target " << target;
      // Cutting win.left too: the bound Pois(left) / (1 - left/lambda).
      const double one_more =
          log_poisson_pmf(win.left, lambda) -
          std::log1p(-static_cast<double>(win.left) / lambda);
      EXPECT_GE(one_more, target - 1e-9)
          << "lambda " << lambda << " target " << target;
      EXPECT_EQ(win.right(), full.right());
      for (std::size_t k = win.left; k <= win.right(); ++k)
        ASSERT_EQ(win.weight(k), full.weight(k)) << "k " << k;
    }
  }
}

TEST(PoissonWindowTest, UnreachableTargetsKeepTheTwoArgumentWindow) {
  // A target of -inf, or one below what the normal-range floor reaches,
  // reproduces the two-argument window exactly, including the bound on
  // the mass the floor drops.
  for (const double lambda : {0.3, 2.5, 150.0, 1000.0, 40000.0}) {
    const std::size_t k_max =
        static_cast<std::size_t>(lambda + 10.0 * std::sqrt(lambda) + 30.0);
    const PoissonWindow full = poisson_weight_window(lambda, k_max);
    for (const double target :
         {-std::numeric_limits<double>::infinity(), -750.0}) {
      const PoissonWindow win = poisson_weight_window(lambda, k_max, target);
      EXPECT_EQ(win.left, full.left) << "lambda " << lambda;
      EXPECT_EQ(win.weights, full.weights) << "lambda " << lambda;
      EXPECT_EQ(win.log_left_mass, full.log_left_mass) << "lambda " << lambda;
    }
    if (full.left == 0) {
      EXPECT_EQ(full.log_left_mass, -std::numeric_limits<double>::infinity());
    } else {
      EXPECT_GE(full.log_left_mass,
                direct_log_left_mass(lambda, full.left) - 1e-12)
          << "lambda " << lambda;
    }
  }
}

TEST(PoissonWindowTest, WeightAccessorZeroOutsideWindow) {
  const PoissonWindow win = poisson_weight_window(1000.0, 1200);
  if (win.left > 0) {
    EXPECT_EQ(win.weight(win.left - 1), 0.0);
  }
  EXPECT_EQ(win.weight(win.right() + 1), 0.0);
  EXPECT_GT(win.weight(1000), 0.0);  // the mode
}

TEST(PoissonWindowTest, ZeroLambdaIsPointMass) {
  const PoissonWindow win = poisson_weight_window(0.0, 10);
  EXPECT_EQ(win.left, 0u);
  ASSERT_EQ(win.weights.size(), 1u);
  EXPECT_EQ(win.weights[0], 1.0);
  EXPECT_EQ(win.weight(1), 0.0);
}

TEST(PoissonWindowTest, SumsToRoughlyOneWhenKMaxCoversTheMass) {
  const PoissonWindow win = poisson_weight_window(500.0, 800);
  double sum = 0.0;
  for (double w : win.weights) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PoissonWindowTest, RightTruncationAtKMax) {
  const PoissonWindow win = poisson_weight_window(100.0, 90);
  EXPECT_LE(win.right(), 90u);
  EXPECT_EQ(win.weight(91), 0.0);
}

TEST(PoissonTailTest, MacroscopicBranchMatchesDirectSum) {
  // k_min <= lambda + 1 takes the 1 - left-sum recurrence; cross-check
  // against the straightforward per-k pmf accumulation.
  for (double lambda : {5.0, 50.0, 2000.0}) {
    for (double frac : {0.2, 0.8, 1.0}) {
      const std::size_t k_min =
          static_cast<std::size_t>(frac * lambda);
      if (k_min == 0) continue;
      double left = 0.0;
      for (std::size_t k = 0; k < k_min; ++k) left += poisson_pmf(k, lambda);
      const double expected = std::log(1.0 - left);
      EXPECT_NEAR(log_poisson_tail(lambda, k_min), expected,
                  1e-10 * std::abs(expected) + 1e-12)
          << "lambda " << lambda << " k_min " << k_min;
    }
  }
}

}  // namespace
}  // namespace somrm::prob
