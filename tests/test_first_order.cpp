// Tests for the first-order MRM solver, including its agreement with the
// second-order solver at sigma = 0 (two independent implementations of the
// same mathematics guarding each other).

#include "core/first_order.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace somrm::core {
namespace {

using linalg::Triplet;
using linalg::Vec;

FirstOrderMrm two_state(double a, double b, Vec rates, Vec init) {
  auto gen = ctmc::Generator::from_rates(
      2, std::vector<Triplet>{{0, 1, a}, {1, 0, b}});
  return FirstOrderMrm(std::move(gen), std::move(rates), std::move(init));
}

TEST(FirstOrderTest, ValidationMirrorsSecondOrder) {
  auto gen = ctmc::Generator::from_rates(
      2, std::vector<Triplet>{{0, 1, 1.0}, {1, 0, 1.0}});
  EXPECT_THROW(FirstOrderMrm(gen, Vec{1.0}, Vec{1.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(FirstOrderMrm(gen, Vec{1.0, 2.0}, Vec{0.6, 0.6}),
               std::invalid_argument);
  // Non-finite initial entries are named, with this type's prefix.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [init, message] :
       {std::pair{Vec{nan, 1.0}, "FirstOrderMrm: initial probability 0 is NaN"},
        std::pair{Vec{0.0, inf},
                  "FirstOrderMrm: initial probability 1 is +inf"},
        std::pair{Vec{-inf, 1.0},
                  "FirstOrderMrm: initial probability 0 is -inf"}}) {
    try {
      FirstOrderMrm(gen, Vec{1.0, 2.0}, init);
      ADD_FAILURE() << "accepted: " << message;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
  }
}

TEST(FirstOrderTest, UniformRatesGiveDeterministicReward) {
  // All states earn at rate r: B(t) = r t exactly, all moments are powers.
  const FirstOrderMrm m = two_state(2.0, 3.0, Vec{1.5, 1.5}, Vec{1.0, 0.0});
  const FirstOrderMomentSolver solver(m);
  MomentSolverOptions opts;
  opts.epsilon = 1e-12;
  const auto res = solver.solve(2.0, opts);
  for (std::size_t j = 0; j <= 3; ++j)
    EXPECT_NEAR(res.weighted[j], std::pow(3.0, static_cast<double>(j)),
                1e-9 * std::pow(3.0, static_cast<double>(j)) + 1e-10);
}

TEST(FirstOrderTest, DegenerateChainPowers) {
  auto gen = ctmc::Generator::from_rates(2, std::vector<Triplet>{});
  const FirstOrderMrm m(std::move(gen), Vec{2.0, -1.0}, Vec{0.5, 0.5});
  const FirstOrderMomentSolver solver(m);
  const auto res = solver.solve(3.0);
  // E[B^j] = 0.5 (2*3)^j + 0.5 (-1*3)^j.
  EXPECT_NEAR(res.weighted[1], 0.5 * 6.0 + 0.5 * (-3.0), 1e-12);
  EXPECT_NEAR(res.weighted[2], 0.5 * 36.0 + 0.5 * 9.0, 1e-12);
  EXPECT_NEAR(res.weighted[3], 0.5 * 216.0 + 0.5 * (-27.0), 1e-12);
}

TEST(FirstOrderTest, NegativeRatesHandledViaShift) {
  const FirstOrderMrm m = two_state(1.0, 2.0, Vec{-2.0, -2.0}, Vec{1.0, 0.0});
  const FirstOrderMomentSolver solver(m);
  MomentSolverOptions opts;
  opts.epsilon = 1e-12;
  const auto res = solver.solve(1.5, opts);
  EXPECT_NEAR(res.weighted[1], -3.0, 1e-10);
  EXPECT_NEAR(res.weighted[2], 9.0, 1e-9);
  EXPECT_NEAR(res.weighted[3], -27.0, 1e-8);
}

TEST(FirstOrderTest, AsSecondOrderRoundTrip) {
  const FirstOrderMrm m = two_state(1.0, 2.0, Vec{3.0, 1.0}, Vec{0.5, 0.5});
  const SecondOrderMrm s = m.as_second_order();
  EXPECT_TRUE(s.is_first_order());
  EXPECT_EQ(s.drifts(), m.rates());
  EXPECT_EQ(s.initial(), m.initial());
}

TEST(FirstOrderTest, TimeZeroAndValidation) {
  const FirstOrderMrm m = two_state(1.0, 1.0, Vec{1.0, 2.0}, Vec{1.0, 0.0});
  const FirstOrderMomentSolver solver(m);
  const auto res = solver.solve(0.0);
  EXPECT_DOUBLE_EQ(res.weighted[0], 1.0);
  EXPECT_DOUBLE_EQ(res.weighted[1], 0.0);
  EXPECT_THROW(solver.solve(-0.1), std::invalid_argument);
}

// Cross-implementation agreement sweep: first-order solver vs second-order
// solver with zero variances, over several chains, rates and times.
class FirstOrderCrossTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(FirstOrderCrossTest, MatchesSecondOrderWithZeroVariance) {
  const auto [n, t] = GetParam();
  std::vector<Triplet> rate_list;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    rate_list.push_back({i, i + 1, 1.0 + 0.5 * static_cast<double>(i)});
    rate_list.push_back({i + 1, i, 1.3});
  }
  auto gen = ctmc::Generator::from_rates(n, rate_list);
  Vec rates(n);
  for (std::size_t i = 0; i < n; ++i)
    rates[i] = std::cos(static_cast<double>(i)) * 3.0;  // mixed signs
  const Vec init = linalg::unit_vec(n, 0);

  const FirstOrderMrm fo(gen, rates, init);
  const FirstOrderMomentSolver fo_solver(fo);
  const RandomizationMomentSolver so_solver(fo.as_second_order());

  MomentSolverOptions opts;
  opts.max_moment = 4;
  opts.epsilon = 1e-12;
  const auto rf = fo_solver.solve(t, opts);
  const auto rs = so_solver.solve(t, opts);
  for (std::size_t j = 0; j <= 4; ++j)
    EXPECT_NEAR(rf.weighted[j], rs.weighted[j],
                1e-8 * (1.0 + std::abs(rs.weighted[j])))
        << "moment " << j;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FirstOrderCrossTest,
    ::testing::Combine(::testing::Values<std::size_t>(2, 4, 9),
                       ::testing::Values(0.1, 0.8, 2.0)));

}  // namespace
}  // namespace somrm::core
