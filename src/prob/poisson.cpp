#include "prob/poisson.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#if defined(__GLIBC__)
// Re-entrant lgamma: identical value, sign returned through the out param
// instead of the process-global `signgam` that plain lgamma races on.
// Declared by math.h only under misc/XOPEN feature macros, which strict
// -std=c++20 turns off — the symbol itself is unconditionally in libm.
extern "C" double lgamma_r(double, int*) noexcept;
#endif

namespace somrm::prob {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}

double log_factorial(std::size_t k) {
  const double x = static_cast<double>(k) + 1.0;
#if defined(__GLIBC__)
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

double log_poisson_pmf(std::size_t k, double lambda) {
  if (lambda < 0.0)
    throw std::invalid_argument("log_poisson_pmf: negative lambda");
  if (lambda == 0.0) return k == 0 ? 0.0 : kNegInf;
  return -lambda + static_cast<double>(k) * std::log(lambda) -
         log_factorial(k);
}

double poisson_pmf(std::size_t k, double lambda) {
  const double lp = log_poisson_pmf(k, lambda);
  return lp == kNegInf ? 0.0 : std::exp(lp);
}

std::vector<double> poisson_weights(double lambda, std::size_t k_max) {
  std::vector<double> w(k_max + 1);
  for (std::size_t k = 0; k <= k_max; ++k) w[k] = poisson_pmf(k, lambda);
  return w;
}

PoissonWindow poisson_weight_window(double lambda, std::size_t k_max,
                                    double log_left_target) {
  if (lambda < 0.0)
    throw std::invalid_argument("poisson_weight_window: negative lambda");
  PoissonWindow window;
  if (lambda == 0.0) {
    window.left = 0;
    window.weights = {1.0};
    return window;
  }

  // Anchor at the in-range index closest to the mode — the maximal weight —
  // so both recurrence directions only ever shrink the value (no overflow,
  // and underflow marks exactly the indices whose pmf is sub-denormal).
  const std::size_t mode =
      std::min(k_max, static_cast<std::size_t>(std::floor(lambda)));
  const double w_mode = poisson_pmf(mode, lambda);
  if (w_mode == 0.0) {
    // qt so extreme even the mode underflows double range; degenerate empty
    // window (every weight is 0). left > k_max signals "nothing to add",
    // and the dropped mass is bounded only by 1.
    window.left = k_max + 1;
    window.log_left_mass = 0.0;
    return window;
  }

  // Downward from the mode. Index k is in the window; the walk stops before
  // k - 1 on the first of two rules:
  //  * the normal-range floor: the weight leaves normal double range. The
  //    cut must be at DBL_MIN, not 0: in the denormal range the recurrence
  //    w *= k/lambda with k/lambda >= 1/2 rounds the smallest denormal back
  //    onto itself and never reaches zero, which would both extend the
  //    window down to k = lambda/2 with thousands of junk 5e-324 entries
  //    and poison the accumulation loops with denormal multiplies
  //    (~100-cycle microcode assists each);
  //  * the mass target: the bound Pois(k-1) / (1 - (k-1)/lambda) on the
  //    mass of 0..k-1 falls below the caller's target. k - 1 < lambda holds
  //    below the mode, so the bound is finite, and it shrinks with k, so
  //    the first index that meets the target is the best cut.
  // Either way log_left_mass records the bound on the mass of 0..k-1, taken
  // in log space so a sub-normal weight loses no precision.
  const double w_min = std::numeric_limits<double>::min();
  const bool targeted = log_left_target != kNegInf;
  // log of 1 / (1 - m/lambda), the geometric factor of the bound at m.
  const auto log_geometric = [lambda](std::size_t m) {
    return -std::log1p(-static_cast<double>(m) / lambda);
  };
  std::vector<double> below;  // weights at mode-1, mode-2, ... (descending k)
  double w = w_mode;
  for (std::size_t k = mode; k > 0; --k) {
    const double step = static_cast<double>(k) / lambda;
    const double w_next = w * step;
    if (w_next < w_min) {
      window.log_left_mass =
          std::log(w) + std::log(step) + log_geometric(k - 1);
      break;
    }
    if (targeted) {
      const double log_mass = std::log(w_next) + log_geometric(k - 1);
      if (log_mass < log_left_target) {
        window.log_left_mass = log_mass;
        break;
      }
    }
    below.push_back(w_next);
    w = w_next;
  }
  window.left = mode - below.size();
  window.weights.reserve(below.size() + 1 + (k_max - mode));
  window.weights.assign(below.rbegin(), below.rend());
  window.weights.push_back(w_mode);

  // Upward from the mode to k_max; stop early once the weights leave
  // normal range (same denormal-stall hazard as above).
  w = w_mode;
  for (std::size_t k = mode; k < k_max; ++k) {
    w *= lambda / static_cast<double>(k + 1);
    if (w < w_min) break;
    window.weights.push_back(w);
  }
  return window;
}

double log_poisson_tail(double lambda, std::size_t k_min) {
  if (lambda < 0.0)
    throw std::invalid_argument("log_poisson_tail: negative lambda");
  if (k_min == 0) return 0.0;  // the whole distribution
  if (lambda == 0.0) return kNegInf;

  if (static_cast<double>(k_min) <= lambda + 1.0) {
    // Tail is a macroscopic probability: compute 1 - left sum directly. The
    // left sum descends from its largest term pmf(k_min - 1) — one lgamma —
    // via pmf(k-1) = pmf(k) * k / lambda; once terms underflow to zero every
    // earlier term is zero too (k < k_min <= lambda + 1 keeps the ratio
    // k / lambda <= 1, so terms are non-increasing going down). The old
    // per-k poisson_pmf loop cost O(k_min) lgamma calls, which
    // poisson_truncation_point's bisection then paid ~log2(G) times.
    double left = 0.0;
    double term = poisson_pmf(k_min - 1, lambda);
    for (std::size_t k = k_min - 1; k > 0 && term != 0.0; --k) {
      left += term;
      term *= static_cast<double>(k) / lambda;
    }
    left += term;  // the k = 0 term (or 0 if the recurrence underflowed)
    const double tail = 1.0 - left;
    if (tail <= 0.0) {
      // Rounding pushed the complement to zero; fall through to the series.
    } else {
      return std::log(tail);
    }
  }

  // Deep right tail: sum_{k >= k_min} pmf(k) = pmf(k_min) * S with
  // S = 1 + l/(k+1) + l^2/((k+1)(k+2)) + ...; the ratios are < 1 here so the
  // series converges geometrically.
  double acc = 1.0;
  double term = 1.0;
  std::size_t k = k_min;
  for (std::size_t iter = 0; iter < 1000000; ++iter) {
    term *= lambda / static_cast<double>(k + 1);
    acc += term;
    ++k;
    if (term < acc * 1e-18) break;
  }
  return log_poisson_pmf(k_min, lambda) + std::log(acc);
}

double poisson_tail(double lambda, std::size_t k_min) {
  const double lt = log_poisson_tail(lambda, k_min);
  return lt == kNegInf ? 0.0 : std::exp(lt);
}

std::size_t poisson_truncation_point(double lambda, double log_tail_bound) {
  if (lambda < 0.0)
    throw std::invalid_argument("poisson_truncation_point: negative lambda");
  if (log_tail_bound >= 0.0) return 0;  // any truncation satisfies tail < 1
  if (lambda == 0.0) return 0;

  const auto tail_ok = [&](std::size_t k) {
    return log_poisson_tail(lambda, k + 1) < log_tail_bound;
  };

  // Exponential search for an upper bracket.
  std::size_t hi = static_cast<std::size_t>(
      std::ceil(lambda + 10.0 * std::sqrt(lambda + 10.0) + 50.0));
  while (!tail_ok(hi)) {
    if (hi > (std::size_t{1} << 40))
      throw std::runtime_error(
          "poisson_truncation_point: bracket search failed");
    hi *= 2;
  }
  std::size_t lo = 0;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (tail_ok(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace somrm::prob
