#include "core/first_order.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/moment_utils.hpp"
#include "prob/poisson.hpp"

namespace somrm::core {

FirstOrderMrm::FirstOrderMrm(ctmc::Generator generator, linalg::Vec rates,
                             linalg::Vec initial)
    : generator_(std::move(generator)),
      rates_(std::move(rates)),
      initial_(std::move(initial)) {
  const std::size_t n = generator_.num_states();
  if (rates_.size() != n)
    throw std::invalid_argument("FirstOrderMrm: rate vector size mismatch");
  if (initial_.size() != n)
    throw std::invalid_argument("FirstOrderMrm: initial vector size mismatch");
  for (double r : rates_)
    if (!std::isfinite(r))
      throw std::invalid_argument("FirstOrderMrm: non-finite rate");
  validate_initial_distribution(initial_, "FirstOrderMrm: ");
}

SecondOrderMrm FirstOrderMrm::as_second_order() const {
  return SecondOrderMrm(generator_, rates_, linalg::zeros(num_states()),
                        initial_);
}

FirstOrderMomentSolver::FirstOrderMomentSolver(FirstOrderMrm model)
    : model_(std::move(model)) {}

MomentResult FirstOrderMomentSolver::solve(
    double t, const MomentSolverOptions& options) const {
  const double times[] = {t};
  return solve_multi(times, options).front();
}

std::vector<MomentResult> FirstOrderMomentSolver::solve_multi(
    std::span<const double> times, const MomentSolverOptions& options) const {
  for (double t : times)
    if (!(t >= 0.0))
      throw std::invalid_argument("solve_multi: times must be >= 0");
  if (!(options.epsilon > 0.0))
    throw std::invalid_argument("solve_multi: epsilon must be positive");

  const std::size_t n = options.max_moment;
  const std::size_t num_states = model_.num_states();
  const double q = model_.generator().uniformization_rate();
  const double shift = std::min(0.0, linalg::min_elem(model_.rates()));

  std::vector<MomentResult> results(times.size());
  for (std::size_t ti = 0; ti < times.size(); ++ti) {
    results[ti].time = times[ti];
    results[ti].q = q;
    results[ti].shift = shift;
  }

  // No transitions: reward is exactly r_i t from state i.
  if (q == 0.0) {
    for (std::size_t ti = 0; ti < times.size(); ++ti) {
      MomentResult& out = results[ti];
      out.per_state.assign(n + 1, linalg::Vec(num_states, 0.0));
      for (std::size_t i = 0; i < num_states; ++i) {
        double pow = 1.0;
        for (std::size_t j = 0; j <= n; ++j) {
          out.per_state[j][i] = pow;
          pow *= model_.rates()[i] * times[ti];
        }
      }
      out.weighted.resize(n + 1);
      for (std::size_t j = 0; j <= n; ++j)
        out.weighted[j] = linalg::dot(model_.initial(), out.per_state[j]);
    }
    return results;
  }

  linalg::Vec shifted = model_.rates();
  for (double& r : shifted) r -= shift;
  const double d = linalg::max_elem(shifted) / q;
  for (auto& r : results) r.d = d;

  const linalg::CsrMatrix q_prime = model_.generator().uniformized_dtmc();
  linalg::Vec r_prime = shifted;
  if (d > 0.0) linalg::scale(1.0 / (q * d), r_prime);

  std::vector<std::size_t> trunc(times.size(), 0);
  std::size_t g_max = 0;
  for (std::size_t ti = 0; ti < times.size(); ++ti) {
    const double qt = q * times[ti];
    std::size_t g = 0;
    for (std::size_t j = 0; j <= n; ++j)
      g = std::max(g, RandomizationMomentSolver::truncation_point(
                          qt, j, d, options.epsilon));
    trunc[ti] = g;
    results[ti].truncation_point = g;
    g_max = std::max(g_max, g);
  }

  std::vector<linalg::Vec> u(n + 1, linalg::zeros(num_states));
  u[0] = linalg::ones(num_states);
  std::vector<std::vector<linalg::Vec>> acc(
      times.size(), std::vector<linalg::Vec>(n + 1, linalg::zeros(num_states)));

  for (std::size_t ti = 0; ti < times.size(); ++ti) {
    const double qt = q * times[ti];
    linalg::axpy(qt > 0.0 ? prob::poisson_pmf(0, qt) : 1.0, u[0], acc[ti][0]);
  }

  linalg::Vec scratch(num_states, 0.0);
  for (std::size_t k = 1; k <= g_max; ++k) {
    for (std::size_t j = n; j >= 1; --j) {
      q_prime.multiply(u[j], scratch);
      const linalg::Vec& lower = u[j - 1];
      for (std::size_t i = 0; i < num_states; ++i)
        scratch[i] += r_prime[i] * lower[i];
      std::swap(u[j], scratch);
    }
    for (std::size_t ti = 0; ti < times.size(); ++ti) {
      if (k > trunc[ti]) continue;
      const double qt = q * times[ti];
      if (qt == 0.0) continue;
      const double w = prob::poisson_pmf(k, qt);
      if (w == 0.0) continue;
      for (std::size_t j = 0; j <= n; ++j) linalg::axpy(w, u[j], acc[ti][j]);
    }
  }

  for (std::size_t ti = 0; ti < times.size(); ++ti) {
    MomentResult& out = results[ti];
    double factor = 1.0;
    for (std::size_t j = 0; j <= n; ++j) {
      if (j > 0) factor *= static_cast<double>(j) * d;
      linalg::scale(factor, acc[ti][j]);
    }
    out.per_state.assign(n + 1, linalg::Vec(num_states, 0.0));
    if (shift == 0.0) {
      out.per_state = std::move(acc[ti]);
    } else {
      const double delta = shift * times[ti];
      std::vector<double> raw(n + 1);
      for (std::size_t i = 0; i < num_states; ++i) {
        for (std::size_t j = 0; j <= n; ++j) raw[j] = acc[ti][j][i];
        const auto back = shift_raw_moments(raw, delta);
        for (std::size_t j = 0; j <= n; ++j) out.per_state[j][i] = back[j];
      }
    }
    out.weighted.resize(n + 1);
    for (std::size_t j = 0; j <= n; ++j)
      out.weighted[j] = linalg::dot(model_.initial(), out.per_state[j]);
  }
  return results;
}

}  // namespace somrm::core
