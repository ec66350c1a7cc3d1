// somrm/core/model.hpp
//
// The second-order Markov reward model (Definition 2 of the paper): a finite
// CTMC Z(t) with generator Q and initial distribution pi, plus per-state
// Brownian reward parameters — drift r_i and variance sigma_i^2. While Z(t)
// stays in state i the accumulated reward B(t) evolves as a Brownian motion
// with drift r_i and variance sigma_i^2; transitions never reset the reward
// (preemptive resume), matching the paper's setting.
//
// Setting every sigma_i^2 = 0 recovers the classical first-order MRM.

#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>

#include "ctmc/generator.hpp"
#include "linalg/vec.hpp"

namespace somrm::core {

/// Checks that @p initial is a probability vector: every entry finite and
/// non-negative (down to -1e-12), the total 1 within 1e-9. Throws
/// std::invalid_argument naming the defect — which entry is NaN, +inf,
/// -inf or negative, or what the total is — after @p who (e.g.
/// "SecondOrderMrm: "). The size is the caller's check.
void validate_initial_distribution(std::span<const double> initial,
                                   std::string_view who);

class SecondOrderMrm {
 public:
  /// Validates and assembles a model.
  ///
  /// @param generator  structure-state CTMC
  /// @param drifts     r_i, any real values (length = number of states)
  /// @param variances  sigma_i^2 >= 0 (length = number of states)
  /// @param initial    probability vector pi (length = number of states)
  ///
  /// Throws std::invalid_argument on any size/sign/normalization violation.
  SecondOrderMrm(ctmc::Generator generator, linalg::Vec drifts,
                 linalg::Vec variances, linalg::Vec initial);

  std::size_t num_states() const { return generator_.num_states(); }
  const ctmc::Generator& generator() const { return generator_; }
  const linalg::Vec& drifts() const { return drifts_; }
  const linalg::Vec& variances() const { return variances_; }
  const linalg::Vec& initial() const { return initial_; }

  /// True when every variance is zero, i.e. the model is an ordinary
  /// (first-order) Markov reward model.
  bool is_first_order() const;

  /// min_i r_i; negative drifts trigger the section-6 shift transform in
  /// the solvers.
  double min_drift() const;

  /// max_i r_i.
  double max_drift() const;

  /// max_i sigma_i^2.
  double max_variance() const;

  /// Steady-state reward rate sum_i pi_ss(i) r_i given a stationary vector
  /// (e.g. from ctmc::stationary_distribution_gth). The Figure-3 reference
  /// line is t * this value.
  double stationary_reward_rate(std::span<const double> stationary) const;

  /// Returns a copy of this model with every drift shifted by -delta
  /// (r_i := r_i - delta). Pathwise B(t) = B_shifted(t) + delta * t, which is
  /// how solvers handle negative drifts.
  SecondOrderMrm with_shifted_drifts(double delta) const;

  /// Returns a copy with a different initial distribution.
  SecondOrderMrm with_initial(linalg::Vec initial) const;

 private:
  ctmc::Generator generator_;
  linalg::Vec drifts_;
  linalg::Vec variances_;
  linalg::Vec initial_;
};

}  // namespace somrm::core
