// Tests for the SecondOrderMrm model type.

#include "core/model.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace somrm::core {
namespace {

using linalg::Triplet;
using linalg::Vec;

ctmc::Generator two_state_gen() {
  return ctmc::Generator::from_rates(
      2, std::vector<Triplet>{{0, 1, 1.0}, {1, 0, 2.0}});
}

/// Expects @p make to throw std::invalid_argument whose message contains
/// @p needle.
template <class F>
void expect_rejected(F make, const std::string& needle) {
  try {
    make();
    ADD_FAILURE() << "accepted; expected an error containing '" << needle
                  << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(ModelTest, ConstructionStoresComponents) {
  const SecondOrderMrm m(two_state_gen(), Vec{1.0, -2.0}, Vec{0.5, 0.0},
                         Vec{0.25, 0.75});
  EXPECT_EQ(m.num_states(), 2u);
  EXPECT_EQ(m.drifts(), (Vec{1.0, -2.0}));
  EXPECT_EQ(m.variances(), (Vec{0.5, 0.0}));
  EXPECT_EQ(m.initial(), (Vec{0.25, 0.75}));
}

TEST(ModelTest, SizeMismatchesRejected) {
  EXPECT_THROW(SecondOrderMrm(two_state_gen(), Vec{1.0}, Vec{0.0, 0.0},
                              Vec{1.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(SecondOrderMrm(two_state_gen(), Vec{1.0, 1.0}, Vec{0.0},
                              Vec{1.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(SecondOrderMrm(two_state_gen(), Vec{1.0, 1.0}, Vec{0.0, 0.0},
                              Vec{1.0}),
               std::invalid_argument);
}

TEST(ModelTest, NegativeVarianceRejected) {
  EXPECT_THROW(SecondOrderMrm(two_state_gen(), Vec{1.0, 1.0}, Vec{-0.1, 0.0},
                              Vec{1.0, 0.0}),
               std::invalid_argument);
}

TEST(ModelTest, NonFiniteParametersRejected) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(SecondOrderMrm(two_state_gen(), Vec{inf, 1.0}, Vec{0.0, 0.0},
                              Vec{1.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(SecondOrderMrm(two_state_gen(), Vec{1.0, 1.0}, Vec{inf, 0.0},
                              Vec{1.0, 0.0}),
               std::invalid_argument);
}

TEST(ModelTest, InitialMustBeProbabilityVector) {
  expect_rejected(
      [] {
        SecondOrderMrm(two_state_gen(), Vec{1.0, 1.0}, Vec{0.0, 0.0},
                       Vec{0.5, 0.4});
      },
      "SecondOrderMrm: initial distribution must sum to 1");
  expect_rejected(
      [] {
        SecondOrderMrm(two_state_gen(), Vec{1.0, 1.0}, Vec{0.0, 0.0},
                       Vec{-0.5, 1.5});
      },
      "SecondOrderMrm: initial probability 0 is negative");

  // Non-finite entries are named too. NaN used to pass: `p < -1e-12` and
  // `|total - 1| > 1e-9` are both false for it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const SecondOrderMrm m(two_state_gen(), Vec{1.0, 1.0}, Vec{0.0, 0.0},
                         Vec{1.0, 0.0});
  expect_rejected([&] { (void)m.with_initial(Vec{nan, 1.0}); },
                  "SecondOrderMrm: initial probability 0 is NaN");
  expect_rejected([&] { (void)m.with_initial(Vec{0.0, inf}); },
                  "SecondOrderMrm: initial probability 1 is +inf");
  expect_rejected([&] { (void)m.with_initial(Vec{-inf, 1.0}); },
                  "SecondOrderMrm: initial probability 0 is -inf");
  // The tolerances: -1e-12 per entry, 1e-9 on the total.
  EXPECT_NO_THROW((void)m.with_initial(Vec{-1e-13, 1.0 + 1e-13}));
  EXPECT_NO_THROW((void)m.with_initial(Vec{0.5, 0.5 + 5e-10}));
}

TEST(ModelTest, InitialCheckCoversEveryLaneAndTheTail) {
  // 21 entries: two blocks of the check's 8 lanes, then a tail of 5.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::size_t n = 21;
  const Vec uniform(n, 1.0 / static_cast<double>(n));
  EXPECT_NO_THROW(validate_initial_distribution(uniform, "t: "));
  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE("entry " + std::to_string(i));
    const std::string at = "t: initial probability " + std::to_string(i);
    for (const auto& [value, defect] :
         {std::pair{nan, "NaN"}, std::pair{inf, "+inf"},
          std::pair{-inf, "-inf"}}) {
      Vec pi = uniform;
      pi[i] = value;
      expect_rejected([&] { validate_initial_distribution(pi, "t: "); },
                      at + " is " + defect);
    }
    Vec negative = uniform;
    negative[i] -= 0.5;
    negative[(i + 1) % n] += 0.5;
    expect_rejected([&] { validate_initial_distribution(negative, "t: "); },
                    at + " is negative");
    Vec heavy = uniform;
    heavy[i] += 2e-9;
    expect_rejected([&] { validate_initial_distribution(heavy, "t: "); },
                    "t: initial distribution must sum to 1");
  }
}

TEST(ModelTest, FirstOrderDetection) {
  const SecondOrderMrm first(two_state_gen(), Vec{1.0, 2.0}, Vec{0.0, 0.0},
                             Vec{1.0, 0.0});
  EXPECT_TRUE(first.is_first_order());
  const SecondOrderMrm second(two_state_gen(), Vec{1.0, 2.0}, Vec{0.0, 0.1},
                              Vec{1.0, 0.0});
  EXPECT_FALSE(second.is_first_order());
}

TEST(ModelTest, DriftAndVarianceExtremes) {
  const SecondOrderMrm m(two_state_gen(), Vec{-3.0, 5.0}, Vec{0.5, 7.0},
                         Vec{1.0, 0.0});
  EXPECT_DOUBLE_EQ(m.min_drift(), -3.0);
  EXPECT_DOUBLE_EQ(m.max_drift(), 5.0);
  EXPECT_DOUBLE_EQ(m.max_variance(), 7.0);
}

TEST(ModelTest, StationaryRewardRate) {
  const SecondOrderMrm m(two_state_gen(), Vec{10.0, 2.0}, Vec{0.0, 0.0},
                         Vec{1.0, 0.0});
  EXPECT_DOUBLE_EQ(m.stationary_reward_rate(Vec{0.5, 0.5}), 6.0);
}

TEST(ModelTest, ShiftedDriftsArePathwiseConsistent) {
  const SecondOrderMrm m(two_state_gen(), Vec{-1.0, 4.0}, Vec{0.3, 0.2},
                         Vec{1.0, 0.0});
  const SecondOrderMrm shifted = m.with_shifted_drifts(-1.0);
  EXPECT_EQ(shifted.drifts(), (Vec{0.0, 5.0}));
  EXPECT_EQ(shifted.variances(), m.variances());
}

TEST(ModelTest, WithInitialReplacesDistribution) {
  const SecondOrderMrm m(two_state_gen(), Vec{1.0, 2.0}, Vec{0.0, 0.0},
                         Vec{1.0, 0.0});
  const SecondOrderMrm m2 = m.with_initial(Vec{0.0, 1.0});
  EXPECT_EQ(m2.initial(), (Vec{0.0, 1.0}));
  EXPECT_THROW(m.with_initial(Vec{0.7, 0.7}), std::invalid_argument);
}

}  // namespace
}  // namespace somrm::core
