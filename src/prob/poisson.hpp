// somrm/prob/poisson.hpp
//
// Poisson weights for randomization (uniformization).
//
// Both the CTMC transient solver and the Theorem-3 moment solver expand the
// solution in Poisson probabilities Pois(k; qt). For the paper's large model
// qt = 40,000, where e^{-qt} underflows by ~17,000 decimal orders, so all
// weight and tail computations here run in log space (lgamma based). This is
// the same concern Fox & Glynn (1988) address; log-space evaluation is
// simpler and the weights themselves are well within double range near the
// mode (≈ 1/sqrt(2 pi qt)). Like Fox & Glynn, the weight windows cut both
// tails: on the right at the caller's truncation point, on the left where
// the remaining mass drops below the caller's target (or the weights leave
// normal double range), and they report a bound on the left mass they drop
// so the caller can charge it to its error bound.

#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace somrm::prob {

/// log(k!), evaluated thread-safely. std::lgamma is off-limits anywhere a
/// concurrent solve can reach (every pmf/tail path here, the Theorem-4
/// prefactor): glibc's lgamma writes the process-global `signgam`, a data
/// race once ServeEngine workers sweep in parallel. Uses lgamma_r where
/// available; the sign output is irrelevant (k! > 0).
double log_factorial(std::size_t k);

/// log Pois(k; lambda) = -lambda + k log lambda - log k!. Exact for
/// lambda == 0 as well (0 for k == 0, -inf otherwise).
double log_poisson_pmf(std::size_t k, double lambda);

/// Pois(k; lambda), evaluated via the log form (no underflow cascades).
double poisson_pmf(std::size_t k, double lambda);

/// Weights Pois(k; lambda) for k = 0..k_max inclusive.
std::vector<double> poisson_weights(double lambda, std::size_t k_max);

/// Two-sided window of Poisson weights, Fox–Glynn style.
///
/// weights[i] = Pois(left + i; lambda) for left..right(), built from ONE
/// lgamma evaluation at the mode and the multiplicative recurrences
///   Pois(k+1) = Pois(k) * lambda / (k+1),  Pois(k-1) = Pois(k) * k / lambda,
/// which are stable in both directions because the anchor is the mode (the
/// maximal weight) and every step moves downhill.
///
/// The right end is the caller's truncation point k_max (or earlier, where
/// the weights leave normal double range). The left end comes from two
/// rules, whichever stops the downward walk first:
///  * the mass target: the walk stops before the first index k-1 whose
///    remaining left mass bound  Pois(k-1) / (1 - (k-1)/lambda)  (a
///    geometric majorant, valid because Pois(m-1)/Pois(m) = m/lambda <=
///    (k-1)/lambda for every m <= k-1 < lambda) falls below
///    exp(log_left_target). The randomization sweeps derive the target
///    from epsilon (DESIGN.md §6), so the window holds only the weights
///    epsilon can see;
///  * the normal-range floor: every kept weight is a NORMAL positive
///    double (>= DBL_MIN). Sub-normal weights carry total mass < (k_max+1)
///    * DBL_MIN and would stall the accumulation hot loops with
///    denormal-arithmetic microcode assists; for lambda = 40,000 the floor
///    alone drops the first ~32,000 indices.
struct PoissonWindow {
  std::size_t left = 0;          ///< first k inside the window
  std::vector<double> weights;   ///< weights[i] = Pois(left + i; lambda)
  /// log of an upper bound on the mass sum_{k < left} Pois(k; lambda) the
  /// window leaves out on its left, by whichever rule cut it; -inf when
  /// nothing is left out. It is below log_left_target exactly when the
  /// mass target, not the floor, set the left end.
  double log_left_mass = -std::numeric_limits<double>::infinity();

  /// Last k inside the window (== left when the window has one entry).
  std::size_t right() const {
    return left + (weights.empty() ? 0 : weights.size() - 1);
  }
  /// Pois(k; lambda), 0 outside the window (and everywhere when empty).
  double weight(std::size_t k) const {
    if (weights.empty() || k < left || k - left >= weights.size()) return 0.0;
    return weights[k - left];
  }
};

/// Builds the weight window for k = 0..k_max (right truncation at the
/// caller's Theorem-4 / uniformization truncation point). O(window width)
/// multiplications and a single lgamma; replaces k_max per-k lgamma-based
/// poisson_pmf calls in the randomization sweeps. @p log_left_target is the
/// log of the left mass the window may drop; the default -inf keeps every
/// normal-range weight (the floor rule alone), and costs no logarithm per
/// index.
PoissonWindow poisson_weight_window(
    double lambda, std::size_t k_max,
    double log_left_target = -std::numeric_limits<double>::infinity());

/// log of the right tail sum  log( sum_{k >= k_min} Pois(k; lambda) ).
///
/// For k_min <= mode the tail is >= 1/2 and is returned as log of the
/// directly accumulated complement; deep right tails (the Theorem-4 regime)
/// are summed from k_min with the geometric-ratio recursion
/// term_{k+1} = term_k * lambda/(k+1), entirely in scaled space.
double log_poisson_tail(double lambda, std::size_t k_min);

/// Right tail sum Pr(Pois(lambda) >= k_min); may underflow to 0 for deep
/// tails — use log_poisson_tail when the magnitude matters.
double poisson_tail(double lambda, std::size_t k_min);

/// Smallest K such that Pr(Pois(lambda) >= K+1) < tail_bound, i.e. the
/// truncation point for sum_{k=0..K}. @p log_tail_bound is log(tail_bound),
/// accepted in log form because Theorem-4 tail targets can be far below
/// double range. Throws std::invalid_argument for lambda < 0.
std::size_t poisson_truncation_point(double lambda, double log_tail_bound);

}  // namespace somrm::prob
