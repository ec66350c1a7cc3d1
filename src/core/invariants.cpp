#include "core/invariants.hpp"

#if SOMRM_CHECKED

#include <algorithm>
#include <limits>

#include "core/scaling.hpp"
#include "linalg/panel.hpp"

namespace somrm::check {

namespace {


// Row-sum tolerance for Q' stochasticity: the uniformized DTMC rows are
// built as q_ij/q with the diagonal filled to 1, so the sum carries a few
// ulps per stored entry.
constexpr double kRowSumTol = 1e-9;
// Slack on the Lemma-2 reward bounds |R'| <= 1, S' <= 1 (exact algebra up
// to the division by q d / q d^2).
constexpr double kUnitBoundTol = 1e-12;
// Relative slack on the Lemma-2 iterate majorant.
constexpr double kMajorantTol = 1e-9;

/// 2 * k!/(k-j)! — the Lemma-2 majorant for U^(j)(k), valid for k >= j.
/// Saturates to +inf on overflow, which makes the check vacuous exactly
/// where the bound stops being representable.
double lemma2_majorant(std::size_t k, std::size_t j) {
  double ff = 2.0;
  for (std::size_t i = 0; i < j; ++i)
    ff *= static_cast<double>(k - i);
  return ff;
}

}  // namespace

void check_scaled_model(const core::ScaledModel& scaled,
                        bool enforce_reward_bounds, const char* context) {
  if (!enabled()) return;
  const auto& qp = scaled.q_prime;
  const auto& values = qp.values();
  for (std::size_t e = 0; e < values.size(); ++e) {
    if (!std::isfinite(values[e]) || values[e] < 0.0)
      fail("lemma2.q_prime", __FILE__, __LINE__,
           fmt(context, ": Q' entry ", e, " = ", values[e],
               " is negative or non-finite"));
  }
  const linalg::Vec sums = qp.row_sums();
  for (std::size_t i = 0; i < sums.size(); ++i) {
    if (!(std::abs(sums[i] - 1.0) <= kRowSumTol))
      fail("lemma2.q_prime", __FILE__, __LINE__,
           fmt(context, ": Q' row ", i, " sums to ", sums[i],
               ", not 1 (uniformized DTMC must be stochastic)"));
  }
  for (std::size_t i = 0; i < scaled.r_prime.size(); ++i) {
    const double r = scaled.r_prime[i];
    if (!std::isfinite(r))
      fail("lemma2.r_prime", __FILE__, __LINE__,
           fmt(context, ": R' state ", i, " is not finite (", r, ")"));
    if (enforce_reward_bounds && !(std::abs(r) <= 1.0 + kUnitBoundTol))
      fail("lemma2.r_prime", __FILE__, __LINE__,
           fmt(context, ": R' state ", i, " = ", r,
               " exceeds the Lemma-2 bound |r_i - shift| <= q d"));
  }
  for (std::size_t i = 0; i < scaled.s_prime.size(); ++i) {
    const double s = scaled.s_prime[i];
    if (!std::isfinite(s) || s < 0.0)
      fail("lemma2.s_prime", __FILE__, __LINE__,
           fmt(context, ": S' state ", i, " = ", s,
               " is negative or non-finite (sigma^2 must be >= 0)"));
    if (enforce_reward_bounds && !(s <= 1.0 + kUnitBoundTol))
      fail("lemma2.s_prime", __FILE__, __LINE__,
           fmt(context, ": S' state ", i, " = ", s,
               " exceeds the Lemma-2 bound sigma_i^2 <= q d^2"));
  }
}

void check_sweep_column(std::span<const double> u_j, std::size_t k,
                        std::size_t j, bool subtraction_free,
                        bool apply_majorant, const char* context) {
  if (!enabled()) return;
  const double bound =
      apply_majorant && k >= j
          ? lemma2_majorant(k, j) * (1.0 + kMajorantTol)
          : std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < u_j.size(); ++i) {
    const double v = u_j[i];
    if (!std::isfinite(v))
      fail("sweep.finite", __FILE__, __LINE__,
           fmt(context, ": U^(", j, ")(", k, ") state ", i,
               " is not finite (", v, ")"));
    if (subtraction_free && v < 0.0)
      fail("sweep.nonnegative", __FILE__, __LINE__,
           fmt(context, ": U^(", j, ")(", k, ") state ", i, " = ", v,
               " is negative (recursion must be subtraction-free)"));
    if (std::abs(v) > bound)
      fail("sweep.lemma2_bound", __FILE__, __LINE__,
           fmt(context, ": U^(", j, ")(", k, ") state ", i, " = ", v,
               " exceeds the Lemma-2 majorant 2 k!/(k-j)! = ", bound));
  }
}

void check_sweep_panel(const linalg::Panel& u, std::size_t k,
                       std::size_t j_lo, bool subtraction_free,
                       bool apply_majorant, const char* context) {
  if (!enabled()) return;
  const std::size_t width = u.width();
  // Per-order majorants, hoisted out of the row loop.
  std::vector<double> bound(width);
  for (std::size_t j = 0; j < width; ++j)
    bound[j] = apply_majorant && k >= j
                   ? lemma2_majorant(k, j) * (1.0 + kMajorantTol)
                   : std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < u.rows(); ++i) {
    const double* row = u.row_data(i);
    if (j_lo == 1 && row[0] != 1.0)
      fail("sweep.ones_column", __FILE__, __LINE__,
           fmt(context, ": invariant ones column violated at state ", i,
               ", step ", k, " (got ", row[0], ")"));
    for (std::size_t j = j_lo; j < width; ++j) {
      const double v = row[j];
      if (!std::isfinite(v))
        fail("sweep.finite", __FILE__, __LINE__,
             fmt(context, ": U^(", j, ")(", k, ") state ", i,
                 " is not finite (", v, ")"));
      if (subtraction_free && v < 0.0)
        fail("sweep.nonnegative", __FILE__, __LINE__,
             fmt(context, ": U^(", j, ")(", k, ") state ", i, " = ", v,
                 " is negative (recursion must be subtraction-free)"));
      if (std::abs(v) > bound[j])
        fail("sweep.lemma2_bound", __FILE__, __LINE__,
             fmt(context, ": U^(", j, ")(", k, ") state ", i, " = ", v,
                 " exceeds the Lemma-2 majorant 2 k!/(k-j)! = ", bound[j]));
    }
  }
}

void check_truncation_bound(double bound_at_g, double bound_at_g_minus_1,
                            double epsilon, std::size_t g,
                            const char* context) {
  if (!enabled()) return;
  if (!std::isfinite(bound_at_g) || bound_at_g < 0.0)
    fail("theorem4.bound", __FILE__, __LINE__,
         fmt(context, ": error bound at G = ", g, " is ", bound_at_g,
             " (must be finite and non-negative)"));
  if (g > 0 && bound_at_g > bound_at_g_minus_1 * (1.0 + 1e-12))
    fail("theorem4.monotone", __FILE__, __LINE__,
         fmt(context, ": error bound increased with G: bound(", g, ") = ",
             bound_at_g, " > bound(", g - 1, ") = ", bound_at_g_minus_1));
  if (bound_at_g > epsilon * (1.0 + 1e-9))
    fail("theorem4.bound", __FILE__, __LINE__,
         fmt(context, ": error bound ", bound_at_g, " at the chosen G = ", g,
             " exceeds the requested epsilon = ", epsilon));
}

void check_left_cut(double left_term, double right_bound,
                    const char* context) {
  if (!enabled()) return;
  const double quarter_ulp =
      0.25 * (std::nextafter(right_bound,
                             std::numeric_limits<double>::infinity()) -
              right_bound);
  // The cut compares logs; exp of their sum may land a few ulps above.
  if (!(left_term >= 0.0) || left_term > quarter_ulp * (1.0 + 1e-9))
    fail("poisson.left_cut", __FILE__, __LINE__,
         fmt(context, ": left-tail term ", left_term,
             " is not below 1/4 ulp (", quarter_ulp,
             ") of the right-tail bound ", right_bound));
}

void check_moment_consistency(std::span<const double> v1,
                              std::span<const double> v2, double epsilon,
                              const char* context) {
  if (!enabled()) return;
  for (std::size_t i = 0; i < v1.size(); ++i) {
    const double mean = v1[i];
    const double second = v2[i];
    // Truncation contributes up to ~epsilon per moment; rounding scales
    // with the magnitudes involved.
    const double tol =
        2.0 * epsilon + 1e-9 * (1.0 + mean * mean + std::abs(second));
    if (second + tol < mean * mean)
      fail("moments.jensen", __FILE__, __LINE__,
           fmt(context, ": state ", i, " violates V^(2) >= (V^(1))^2: V1 = ",
               mean, ", V2 = ", second, " (deficit ",
               mean * mean - second, ")"));
  }
}

}  // namespace somrm::check

#endif  // SOMRM_CHECKED
