#include "core/model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

namespace somrm::core {

void validate_initial_distribution(std::span<const double> initial,
                                   std::string_view who) {
  // Eight independent partial sums and minima instead of one serial add
  // chain. A NaN or infinite entry makes the total non-finite, so the pass
  // itself tests nothing per entry; only a failing vector is scanned again
  // to name its defect.
  constexpr std::size_t kLanes = 8;
  double sum[kLanes] = {};
  double lo[kLanes];
  std::fill(lo, lo + kLanes, std::numeric_limits<double>::infinity());
  const std::size_t n = initial.size();
  const std::size_t body = n - n % kLanes;
  for (std::size_t i = 0; i < body; i += kLanes)
    for (std::size_t k = 0; k < kLanes; ++k) {
      const double p = initial[i + k];
      sum[k] += p;
      lo[k] = std::min(lo[k], p);
    }
  for (std::size_t i = body; i < n; ++i) {
    sum[i - body] += initial[i];
    lo[i - body] = std::min(lo[i - body], initial[i]);
  }
  double total = 0.0;
  for (const double s : sum) total += s;
  const double smallest = *std::min_element(lo, lo + kLanes);

  const auto fail = [&](const std::string& what) {
    throw std::invalid_argument(std::string(who) + what);
  };
  const auto str = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  if (!std::isfinite(total)) {
    for (std::size_t i = 0; i < n; ++i) {
      const double p = initial[i];
      if (std::isnan(p))
        fail("initial probability " + std::to_string(i) + " is NaN");
      if (std::isinf(p))
        fail("initial probability " + std::to_string(i) + " is " +
             (p > 0.0 ? "+inf" : "-inf"));
    }
  }
  if (smallest < -1e-12) {
    for (std::size_t i = 0; i < n; ++i)
      if (initial[i] < -1e-12)
        fail("initial probability " + std::to_string(i) + " is negative (" +
             str(initial[i]) + ")");
  }
  if (!(std::abs(total - 1.0) <= 1e-9))
    fail("initial distribution must sum to 1 (sums to " + str(total) + ")");
}

SecondOrderMrm::SecondOrderMrm(ctmc::Generator generator, linalg::Vec drifts,
                               linalg::Vec variances, linalg::Vec initial)
    : generator_(std::move(generator)),
      drifts_(std::move(drifts)),
      variances_(std::move(variances)),
      initial_(std::move(initial)) {
  const std::size_t n = generator_.num_states();
  if (drifts_.size() != n)
    throw std::invalid_argument("SecondOrderMrm: drift vector size mismatch");
  if (variances_.size() != n)
    throw std::invalid_argument(
        "SecondOrderMrm: variance vector size mismatch");
  if (initial_.size() != n)
    throw std::invalid_argument("SecondOrderMrm: initial vector size mismatch");

  for (double r : drifts_)
    if (!std::isfinite(r))
      throw std::invalid_argument("SecondOrderMrm: non-finite drift");
  for (double s : variances_) {
    if (!std::isfinite(s) || s < 0.0)
      throw std::invalid_argument(
          "SecondOrderMrm: variances must be finite and non-negative");
  }

  validate_initial_distribution(initial_, "SecondOrderMrm: ");
}

bool SecondOrderMrm::is_first_order() const {
  return std::all_of(variances_.begin(), variances_.end(),
                     [](double s) { return s == 0.0; });
}

double SecondOrderMrm::min_drift() const { return linalg::min_elem(drifts_); }

double SecondOrderMrm::max_drift() const { return linalg::max_elem(drifts_); }

double SecondOrderMrm::max_variance() const {
  return linalg::max_elem(variances_);
}

double SecondOrderMrm::stationary_reward_rate(
    std::span<const double> stationary) const {
  return linalg::dot(stationary, drifts_);
}

SecondOrderMrm SecondOrderMrm::with_shifted_drifts(double delta) const {
  linalg::Vec shifted = drifts_;
  for (double& r : shifted) r -= delta;
  return SecondOrderMrm(generator_, std::move(shifted), variances_, initial_);
}

SecondOrderMrm SecondOrderMrm::with_initial(linalg::Vec initial) const {
  return SecondOrderMrm(generator_, drifts_, variances_, std::move(initial));
}

}  // namespace somrm::core
