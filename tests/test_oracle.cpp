// Exact-oracle suite: the randomization solvers against a dense matrix
// exponential of Theorem 2's moment ODE, on seeded random models.
//
// Theorem 2's moment equations are linear. Stacking [V^(0); ...; V^(n)]
// into one vector gives the block lower-triangular generator
//
//   M(j, j)   = Q,
//   M(j, j-1) = j R,   M(j, j-2) = 1/2 j (j-1) S,
//   M(j, j-l) += C(j, l) A_l   (impulse moments, l = 1..j),
//
// and [V^(0)(t); ...; V^(n)(t)] = exp(M t) [w; 0; ...; 0], with w the
// terminal weights (all ones for the plain solve). linalg::expm computes
// that without randomization, truncation or Poisson weights, order by order
// (see solve_oracle). It runs at two scaling settings, exp(M t) and
// exp(M t / 3)^3, and their difference bounds the oracle's own error.
//
// Each model is drawn from prob::Rng with the seed SCOPED_TRACE prints on a
// failure: 1 to 12 states, random sparsity, absorbing states, negative
// drifts, sigma = 0 states beside sigma > 0 states, moment orders up to 4,
// epsilon from 1e-4 to 1e-12, and a quarter of the time points at qt >= 150,
// where the Poisson windows cut their left tails. The solvers' error bound
// holds for the sweep's own moments, before the terminal-weight factor
// w_max and the drift-shift undo (MomentResult::error_bound), so with
// delta = shift * t each order j may miss the oracle by
//   w_max * (1 + |delta|)^j * epsilon                     (j < n),
//   w_max * error_bound + w_max * ((1 + |delta|)^n - 1) * epsilon   (j = n)
// — w_max (1 + |delta|)^n is the amplification the checked build applies
// to epsilon — plus a rounding allowance taken from a majorant oracle: the
// shifted model with every impulse mean made positive, whose moments bound
// every partial sum the sweep and the shift undo add up.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/impulse_model.hpp"
#include "core/impulse_randomization.hpp"
#include "core/moment_utils.hpp"
#include "core/randomization.hpp"
#include "ctmc/generator.hpp"
#include "linalg/csr.hpp"
#include "linalg/dense.hpp"
#include "linalg/expm.hpp"
#include "prob/normal.hpp"
#include "prob/rng.hpp"

namespace somrm {
namespace {

using core::MomentResult;
using core::MomentSolverOptions;
using core::SecondOrderImpulseMrm;
using core::SecondOrderMrm;
using linalg::Dense;

/// Models per solver; three solvers give 210 seeded models.
constexpr std::uint64_t kModelsPerSolver = 70;

/// One drawn model: rates, rewards and (possibly empty) impulse matrices,
/// plus the solve parameters drawn with it.
struct Case {
  std::size_t states = 0;
  std::vector<linalg::Triplet> rates;
  linalg::Vec drifts, variances, initial;
  std::vector<linalg::Triplet> impulse_mean, impulse_var;
  std::size_t max_moment = 0;
  double epsilon = 0.0;
  std::vector<double> times;

  SecondOrderMrm model() const {
    return SecondOrderMrm(ctmc::Generator::from_rates(states, rates), drifts,
                          variances, initial);
  }
  SecondOrderImpulseMrm impulse_model() const {
    return SecondOrderImpulseMrm(
        model(), linalg::CsrMatrix::from_triplets(states, states, impulse_mean),
        linalg::CsrMatrix::from_triplets(states, states, impulse_var));
  }
};

double uniform(prob::Rng& rng, double lo, double hi) {
  return lo + (hi - lo) * rng.uniform01();
}

/// Draws the model of @p seed. With @p impulses, about half the
/// transitions carry a normal impulse of mean in [-1, 2).
Case draw_case(std::uint64_t seed, bool impulses) {
  prob::Rng rng(seed);
  Case c;
  c.states = 1 + rng.uniform_below(12);
  const double density = uniform(rng, 0.2, 1.0);
  double q = 0.0;
  for (std::size_t i = 0; i < c.states; ++i) {
    if (rng.uniform01() < 0.2) continue;  // absorbing state
    double exit = 0.0;
    for (std::size_t k = 0; k < c.states; ++k) {
      if (k == i || rng.uniform01() >= density) continue;
      const double rate = std::exp(uniform(rng, std::log(0.1), std::log(10.0)));
      c.rates.push_back({i, k, rate});
      exit += rate;
      if (impulses && rng.uniform01() < 0.5) {
        c.impulse_mean.push_back({i, k, uniform(rng, -1.0, 2.0)});
        if (rng.uniform01() < 0.5)
          c.impulse_var.push_back({i, k, uniform(rng, 0.0, 1.0)});
      }
    }
    q = std::max(q, exit);
  }
  c.drifts.resize(c.states);
  c.variances.resize(c.states);
  c.initial.resize(c.states);
  double total = 0.0;
  for (std::size_t i = 0; i < c.states; ++i) {
    c.drifts[i] = rng.uniform01() < 0.15 ? 0.0 : uniform(rng, -2.0, 3.0);
    c.variances[i] = rng.uniform01() < 0.4 ? 0.0 : uniform(rng, 0.0, 4.0);
    c.initial[i] = rng.uniform01();
    total += c.initial[i];
  }
  for (double& p : c.initial) p /= total;
  c.max_moment = 1 + rng.uniform_below(4);
  c.epsilon = std::exp(uniform(rng, std::log(1e-12), std::log(1e-4)));
  // One or two time points; a quarter of the last ones at qt in
  // [150, 400), where the left cut drops mass.
  const double qt_last = rng.uniform01() < 0.25 ? uniform(rng, 150.0, 400.0)
                                                : uniform(rng, 0.05, 40.0);
  const double t_last = q > 0.0 ? qt_last / q : uniform(rng, 0.1, 3.0);
  if (rng.uniform01() < 0.5) c.times.push_back(t_last * uniform(rng, 0.1, 0.9));
  c.times.push_back(t_last);
  return c;
}

/// The stacked generator of the moment ODE for orders 0..n over @p c's
/// model, with drifts shifted by -@p shift and, when @p abs_impulse_means,
/// every impulse mean replaced by its absolute value.
Dense<double> stacked_generator(const Case& c, double shift,
                                bool abs_impulse_means) {
  const std::size_t ns = c.states;
  const std::size_t n = c.max_moment;
  Dense<double> m((n + 1) * ns, (n + 1) * ns);
  const linalg::CsrMatrix q =
      ctmc::Generator::from_rates(ns, c.rates).matrix();
  const linalg::CsrMatrix mean =
      linalg::CsrMatrix::from_triplets(ns, ns, c.impulse_mean);
  const linalg::CsrMatrix var =
      linalg::CsrMatrix::from_triplets(ns, ns, c.impulse_var);
  for (std::size_t j = 0; j <= n; ++j) {
    const std::size_t row0 = j * ns;
    for (std::size_t i = 0; i < ns; ++i) {
      q.visit_row(i, [&](std::size_t col, double v) {
        m(row0 + i, row0 + col) += v;
        if (col == i || v <= 0.0) return;
        // Impulse moments on the transition i -> col.
        double mu_mean = mean.at(i, col);
        if (abs_impulse_means) mu_mean = std::abs(mu_mean);
        const double mu_var = var.at(i, col);
        if (mu_mean == 0.0 && mu_var == 0.0) return;
        const std::vector<double> mu =
            prob::normal_raw_moments(mu_mean, mu_var, j);
        for (std::size_t l = 1; l <= j; ++l)
          m(row0 + i, (j - l) * ns + col) +=
              core::binomial_coefficient(j, l) * v * mu[l];
      });
      if (j >= 1)
        m(row0 + i, (j - 1) * ns + i) +=
            static_cast<double>(j) * (c.drifts[i] - shift);
      if (j >= 2)
        m(row0 + i, (j - 2) * ns + i) +=
            0.5 * static_cast<double>(j * (j - 1)) * c.variances[i];
    }
  }
  return m;
}

/// Exact moments v[j][i] = E[B(t)^j w(Z(t)) | Z(0) = i] from the stacked
/// generator, and err[j][i], the two scaling settings' disagreement.
struct Oracle {
  std::vector<linalg::Vec> v, err;
};

/// The leading @p size x @p size block of @p m.
Dense<double> leading_block(const Dense<double>& m, std::size_t size) {
  Dense<double> out(size, size);
  for (std::size_t r = 0; r < size; ++r)
    for (std::size_t col = 0; col < size; ++col) out(r, col) = m(r, col);
  return out;
}

/// Order j comes from the exponential of the leading (j+1)N block alone:
/// the generator is block lower-triangular, so orders 0..j never see the
/// blocks below, and the Pade scaling then follows the norm of order j's
/// own blocks, not that of the (much larger) highest-order impulse terms.
/// The second setting is exp(A / 3)^3: Pade-13 scaling and squaring makes
/// exp(A / 2)^2 reproduce exp(A) bit for bit.
Oracle solve_oracle(const Dense<double>& gen, std::size_t ns, double t,
                    const linalg::Vec& w) {
  const std::size_t width = gen.rows() / ns;
  Oracle o;
  o.v.assign(width, linalg::Vec(ns, 0.0));
  o.err.assign(width, linalg::Vec(ns, 0.0));
  for (std::size_t j = 0; j < width; ++j) {
    const Dense<double> block = leading_block(gen, (j + 1) * ns);
    const Dense<double> full = linalg::expm(block * t);
    const Dense<double> third = linalg::expm(block * (t / 3.0));
    const Dense<double> cubed = third.multiply(third).multiply(third);
    for (std::size_t i = 0; i < ns; ++i) {
      double a = 0.0, b = 0.0;
      for (std::size_t m = 0; m < ns; ++m) {
        a += full(j * ns + i, m) * w[m];
        b += cubed(j * ns + i, m) * w[m];
      }
      o.v[j][i] = a;
      o.err[j][i] = std::abs(a - b);
    }
  }
  return o;
}

/// Asserts one solver result against the oracle (see the file comment).
void expect_within_bound(const Case& c, const MomentResult& got, double t,
                         const linalg::Vec& w, bool impulses) {
  const std::size_t ns = c.states;
  const std::size_t n = c.max_moment;
  const double w_max = *std::max_element(w.begin(), w.end());
  const double delta = std::abs(got.shift * t);
  const Oracle exact =
      solve_oracle(stacked_generator(c, 0.0, false), ns, t, w);
  // The majorant: the model the sweep runs (drifts shifted), with positive
  // impulse means. It equals the exact model when nothing is shifted or
  // signed.
  const bool signed_impulses =
      std::any_of(c.impulse_mean.begin(), c.impulse_mean.end(),
                  [](const linalg::Triplet& e) { return e.value < 0.0; });
  const Oracle majorant =
      got.shift != 0.0 || signed_impulses
          ? solve_oracle(stacked_generator(c, got.shift, true), ns, t, w)
          : exact;
  ASSERT_EQ(got.per_state.size(), n + 1);
  for (std::size_t j = 0; j <= n; ++j) {
    const double amp_j = w_max * std::pow(1.0 + delta, static_cast<double>(j));
    const double truncation =
        j < n ? amp_j * c.epsilon
              : w_max * got.error_bound + (amp_j - w_max) * c.epsilon;
    for (std::size_t i = 0; i < ns; ++i) {
      // Rounding: every partial sum is at most the majorant's moment, and
      // the shift undo re-weights order k by C(j, k) delta^(j - k).
      double scale = 0.0;
      for (std::size_t k = 0; k <= j; ++k)
        scale += core::binomial_coefficient(j, k) *
                 std::pow(delta, static_cast<double>(j - k)) *
                 std::abs(majorant.v[k][i]);
      const double tol = 10.0 * (exact.err[j][i] + majorant.err[j][i]) +
                         1e-11 * (1.0 + scale);
      EXPECT_LE(std::abs(got.per_state[j][i] - exact.v[j][i]),
                truncation + tol)
          << (impulses ? "impulse " : "") << "order " << j << " state " << i
          << " t " << t << " q " << got.q << " G " << got.truncation_point
          << " error_bound " << got.error_bound << " epsilon " << c.epsilon
          << " oracle " << exact.v[j][i] << " solver "
          << got.per_state[j][i];
    }
  }
}

/// True when the widest window of @p got starts above k = 0 (the left cut
/// or the floor dropped mass): the window then holds fewer than G + 1
/// weights.
bool left_cut_active(const MomentResult& got) {
  return !got.stats.window_widths.empty() &&
         got.stats.window_widths.back() < got.truncation_point;
}

MomentSolverOptions options_for(const Case& c) {
  MomentSolverOptions options;
  options.max_moment = c.max_moment;
  options.epsilon = c.epsilon;
  return options;
}

TEST(OracleTest, SolveMultiWithinErrorBound) {
  std::size_t cut = 0;
  for (std::uint64_t s = 0; s < kModelsPerSolver; ++s) {
    const std::uint64_t seed = 1000 + s;
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Case c = draw_case(seed, false);
    const core::RandomizationMomentSolver solver(c.model());
    const std::vector<MomentResult> got =
        solver.solve_multi(c.times, options_for(c));
    const linalg::Vec ones(c.states, 1.0);
    for (std::size_t ti = 0; ti < c.times.size(); ++ti)
      expect_within_bound(c, got[ti], c.times[ti], ones, false);
    cut += left_cut_active(got.back());
  }
  EXPECT_GE(cut, 10u) << "too few models exercised the left cut";
}

TEST(OracleTest, TerminalWeightedWithinErrorBound) {
  std::size_t cut = 0;
  for (std::uint64_t s = 0; s < kModelsPerSolver; ++s) {
    const std::uint64_t seed = 2000 + s;
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Case c = draw_case(seed, false);
    prob::Rng rng(seed ^ 0x5bd1e995u);
    linalg::Vec w(c.states);
    for (double& x : w) x = rng.uniform01() < 0.3 ? 0.0 : uniform(rng, 0.0, 5.0);
    w[rng.uniform_below(c.states)] = uniform(rng, 0.5, 5.0);  // max w > 0
    const core::RandomizationMomentSolver solver(c.model());
    const double t = c.times.back();
    const MomentResult got =
        solver.solve_terminal_weighted(t, w, options_for(c));
    expect_within_bound(c, got, t, w, false);
    cut += left_cut_active(got);
  }
  EXPECT_GE(cut, 10u) << "too few models exercised the left cut";
}

TEST(OracleTest, ImpulseSolverWithinErrorBound) {
  std::size_t cut = 0;
  for (std::uint64_t s = 0; s < kModelsPerSolver; ++s) {
    const std::uint64_t seed = 3000 + s;
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Case c = draw_case(seed, true);
    const core::ImpulseMomentSolver solver(c.impulse_model());
    const std::vector<MomentResult> got =
        solver.solve_multi(c.times, options_for(c));
    const linalg::Vec ones(c.states, 1.0);
    for (std::size_t ti = 0; ti < c.times.size(); ++ti)
      expect_within_bound(c, got[ti], c.times[ti], ones, true);
    cut += left_cut_active(got.back());
  }
  EXPECT_GE(cut, 10u) << "too few models exercised the left cut";
}

}  // namespace
}  // namespace somrm
