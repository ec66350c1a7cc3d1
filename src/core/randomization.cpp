#include "core/randomization.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "core/invariants.hpp"
#include "core/moment_utils.hpp"
#include "core/solver_telemetry.hpp"
#include "core/sweep.hpp"
#include "linalg/panel.hpp"
#include "linalg/parallel.hpp"
#include "linalg/reorder.hpp"
#include "obs/trace.hpp"
#include "prob/normal.hpp"
#include "prob/poisson.hpp"

namespace somrm::core {

namespace {

/// log(2 d^n n! (qt)^n) — the Theorem-4 prefactor in log space; log 2 for
/// n == 0 (also when d == 0).
double log_theorem4_prefactor(double qt, std::size_t n, double d) {
  if (n == 0) return std::log(2.0);
  const double nn = static_cast<double>(n);
  return std::log(2.0) + nn * std::log(d) + prob::log_factorial(n) +
         nn * std::log(qt);
}

/// Theorem-4 tail bound achieved at truncation point @p g for moment order
/// @p n (0 when the tail underflows double range).
double theorem4_error_bound(double qt, std::size_t n, double d,
                            std::size_t g) {
  const double log_bound =
      log_theorem4_prefactor(qt, n, d) +
      prob::log_poisson_tail(qt, g + 1 >= n ? g + 1 - n : 0);
  return std::exp(log_bound);
}

/// A time point whose Poisson weight at the current step k is non-zero.
struct ActiveWeight {
  std::size_t ti;
  double w;
};

/// Minimum rows per parallel range for the fused kernels. Each row costs
/// (nnz_row + 4) * n_moments flops, so ranges of ~1k rows amortize the pool
/// hand-off while still splitting four ways at 10k states.
constexpr std::size_t kFusedGrain = 1024;

/// Rows per cache block inside a panel-step row range. The SpMM write, the
/// R'/½S' diagonal update, the impulse convolution and the Poisson-weighted
/// accumulation all touch the same u_next slab; running them block-by-block
/// keeps that slab (kPanelBlockRows * width doubles — 64 KiB at width 8)
/// resident in L1/L2 across all stages instead of streaming the full panel
/// from DRAM once per stage. Pure traffic optimization: per element the
/// arithmetic chain is unchanged, so results stay bit-identical.
constexpr std::size_t kPanelBlockRows = 1024;

/// Fully fused row kernel for one panel recursion step with a compile-time
/// panel width W = n+1 and recursion floor JLO (0 or 1): per row the
/// entry-order dot products, the R'/½S' diagonal terms, the store to
/// u_next, and the Poisson-weighted accumulation into every active acc
/// panel all happen while the row's W accumulators sit in registers — one
/// pass over the sparse structure AND one pass over the panels per step.
/// Per element the arithmetic chain (dot product in entry order, then
/// + R' u^(j-1), then + ½S' u^(j-2), then acc += w * value) is exactly the
/// kFusedVectors kernel's, so results are bit-identical to it. The
/// accumulation reads the row from the local copy o, not from u_next: the
/// stores to the acc panels could alias u_next, so reading oi would reload
/// the row once per active time point.
template <std::size_t W, std::size_t JLO>
void panel_step_rows(const linalg::CsrMatrix& mat, const ScaledModel& scaled,
                     const double* ubase, double* obase,
                     std::span<const ActiveWeight> active,
                     std::span<double* const> acc_base, std::size_t row_begin,
                     std::size_t row_end) {
  constexpr std::size_t n = W - 1;
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const double* ui = ubase + i * W;
    double* oi = obase + i * W;
    double s[W > JLO ? W - JLO : 1];  // W == JLO only for the n = 0 sweep
    for (std::size_t c = 0; c < W - JLO; ++c) s[c] = 0.0;
    mat.visit_row(i, [&](std::size_t col, double v) {
      const double* xr = ubase + col * W + JLO;
      for (std::size_t c = 0; c < W - JLO; ++c) s[c] += v * xr[c];
    });
    const double r = scaled.r_prime[i];
    for (std::size_t j = std::max<std::size_t>(JLO, 1); j <= n; ++j)
      s[j - JLO] += r * ui[j - 1];
    const double half_s = 0.5 * scaled.s_prime[i];
    for (std::size_t j = std::max<std::size_t>(JLO, 2); j <= n; ++j)
      s[j - JLO] += half_s * ui[j - 2];
    // Weighted accumulation over the FULL width: for JLO == 1 the j = 0
    // lane is the invariant ones column stored in u_next, the same value
    // the vector kernel takes from u[0].
    double o[W];
    if constexpr (JLO == 1) o[0] = oi[0];
    for (std::size_t c = 0; c < W - JLO; ++c) {
      oi[JLO + c] = s[c];
      o[JLO + c] = s[c];
    }
    for (std::size_t a = 0; a < active.size(); ++a) {
      const double w = active[a].w;
      double* ar = acc_base[a] + i * W;
      for (std::size_t j = 0; j < W; ++j) ar[j] += w * o[j];
    }
  }
}

template <std::size_t W>
void panel_step_rows_dispatch_jlo(const linalg::CsrMatrix& mat,
                                  const ScaledModel& scaled, std::size_t j_lo,
                                  const double* ubase, double* obase,
                                  std::span<const ActiveWeight> active,
                                  std::span<double* const> acc_base,
                                  std::size_t row_begin, std::size_t row_end) {
  if (j_lo == 0)
    panel_step_rows<W, 0>(mat, scaled, ubase, obase, active, acc_base,
                          row_begin, row_end);
  else
    panel_step_rows<W, 1>(mat, scaled, ubase, obase, active, acc_base,
                          row_begin, row_end);
}

/// One fused, row-parallel step of the recursion over the panel layout:
/// the iterates U^(j_lo..n)(k) live in the contiguous row-major panel u
/// (u(i, j) = U^(j)(k)_i) and the step computes
///   u_next(i, j) = (Q' u)(i, j) + R'_i u(i, j-1) + 1/2 S'_i u(i, j-2)
///                  + sum_{l=1..j} (A~_l u)(i, j-l)
/// with ONE pass over the CSR structure — each matrix entry is loaded once
/// and multiplied against the n+1-j_lo contiguous doubles of the source row
/// — folding the diagonal terms and the Poisson-weighted accumulation
/// acc[ti] += w * u_next into the same per-row pass. @p impulse holds the
/// impulse-moment matrices A~_1..A~_n of core/impulse_randomization.hpp and
/// is empty for the plain solver.
///
/// Without impulses, widths n+1 <= 8 run panel_step_rows on a compile-time
/// width. Wider panels, and every impulse step, take a cache-blocked path:
/// the SpMM, then the R'/½S' terms, then each A~_l added in ascending l by
/// multiply_panel_rows(..., accumulate=true), then the accumulation. Per
/// element the arithmetic order (entry-order Q' dot product, R', ½S', the
/// convolution in ascending l, the weighted accumulation) is exactly the
/// kFusedVectors kernel's, so results are bit-identical to it at every
/// thread count.
///
/// j_lo == 1 (solve_multi, the impulse solver): column 0 of both panels
/// holds the invariant all-ones vector h and is never recomputed; the
/// accumulation and the convolution read it in place. j_lo == 0
/// (solve_terminal_weighted): the seed vector is not invariant and column 0
/// is iterated like the rest.
void fused_panel_step(const ScaledModel& scaled,
                      std::span<const linalg::CsrMatrix> impulse,
                      std::size_t n, std::size_t j_lo, linalg::Panel& u,
                      linalg::Panel& u_next,
                      std::span<const ActiveWeight> active,
                      std::vector<linalg::Panel>& acc) {
  const linalg::CsrMatrix& mat = scaled.q_prime;
  const std::size_t num_states = mat.rows();
  const std::size_t width = n + 1;
  const std::size_t fixed_width = impulse.empty() ? width : 0;
  // Per-weight destination base pointers, resolved once per step.
  std::vector<double*> acc_base(active.size());
  for (std::size_t a = 0; a < active.size(); ++a)
    acc_base[a] = acc[active[a].ti].data();
  const double* ubase = u.data();
  double* obase = u_next.data();
  linalg::parallel_for(
      num_states,
      [&](std::size_t row_begin, std::size_t row_end) {
        switch (fixed_width) {
          case 1:
            panel_step_rows_dispatch_jlo<1>(mat, scaled, j_lo, ubase, obase,
                                            active, acc_base, row_begin,
                                            row_end);
            break;
          case 2:
            panel_step_rows_dispatch_jlo<2>(mat, scaled, j_lo, ubase, obase,
                                            active, acc_base, row_begin,
                                            row_end);
            break;
          case 3:
            panel_step_rows_dispatch_jlo<3>(mat, scaled, j_lo, ubase, obase,
                                            active, acc_base, row_begin,
                                            row_end);
            break;
          case 4:
            panel_step_rows_dispatch_jlo<4>(mat, scaled, j_lo, ubase, obase,
                                            active, acc_base, row_begin,
                                            row_end);
            break;
          case 5:
            panel_step_rows_dispatch_jlo<5>(mat, scaled, j_lo, ubase, obase,
                                            active, acc_base, row_begin,
                                            row_end);
            break;
          case 6:
            panel_step_rows_dispatch_jlo<6>(mat, scaled, j_lo, ubase, obase,
                                            active, acc_base, row_begin,
                                            row_end);
            break;
          case 7:
            panel_step_rows_dispatch_jlo<7>(mat, scaled, j_lo, ubase, obase,
                                            active, acc_base, row_begin,
                                            row_end);
            break;
          case 8:
            panel_step_rows_dispatch_jlo<8>(mat, scaled, j_lo, ubase, obase,
                                            active, acc_base, row_begin,
                                            row_end);
            break;
          default: {
            // Cache-block the range so the u_next slab written by the SpMM
            // is still hot when the later stages re-read it (see
            // kPanelBlockRows).
            for (std::size_t b0 = row_begin; b0 < row_end;
                 b0 += kPanelBlockRows) {
              const std::size_t b1 = std::min(row_end, b0 + kPanelBlockRows);
              mat.multiply_panel_rows(u, u_next, b0, b1,
                                      /*src_col=*/j_lo,
                                      /*dst_col=*/j_lo, width - j_lo,
                                      /*accumulate=*/false);
              for (std::size_t i = b0; i < b1; ++i) {
                const double* ui = u.row_data(i);
                double* oi = u_next.row_data(i);
                const double r = scaled.r_prime[i];
                for (std::size_t j = std::max<std::size_t>(j_lo, 1); j <= n;
                     ++j)
                  oi[j] += r * ui[j - 1];
                const double half_s = 0.5 * scaled.s_prime[i];
                for (std::size_t j = std::max<std::size_t>(j_lo, 2); j <= n;
                     ++j)
                  oi[j] += half_s * ui[j - 2];
              }
              // Impulse convolution in ascending l: element (i, j) receives
              // its A~_1 .. A~_j contributions in the reference kernel's
              // order, each summed in its own accumulator before the add.
              for (std::size_t l = 1; l <= impulse.size(); ++l) {
                const linalg::CsrMatrix& a = impulse[l - 1];
                if (a.nnz() == 0) continue;
                a.multiply_panel_rows(u, u_next, b0, b1, /*src_col=*/0,
                                      /*dst_col=*/l, width - l,
                                      /*accumulate=*/true);
              }
              const std::size_t lo = b0 * width;
              const std::size_t len = (b1 - b0) * width;
              for (const ActiveWeight& aw : active)
                linalg::axpy(aw.w, u_next.span().subspan(lo, len),
                             acc[aw.ti].span().subspan(lo, len));
            }
            break;
          }
        }
      },
      kFusedGrain);
  u.swap(u_next);
}

/// One fused step over the pre-panel layout (one vector per moment order):
/// re-streams the sparse structure once per order, and each impulse matrix
/// once per order it feeds. This is the kFusedVectors reference kernel for
/// both solvers; see fused_panel_step for the production path and for
/// @p impulse.
void fused_recursion_step(const ScaledModel& scaled,
                          std::span<const linalg::CsrMatrix> impulse,
                          std::size_t n, std::size_t j_lo,
                          std::vector<linalg::Vec>& u,
                          std::vector<linalg::Vec>& u_next,
                          std::span<const ActiveWeight> active,
                          std::vector<std::vector<linalg::Vec>>& acc) {
  const linalg::CsrMatrix& mat = scaled.q_prime;
  const std::size_t num_states = mat.rows();

  linalg::parallel_for(
      num_states,
      [&](std::size_t row_begin, std::size_t row_end) {
        // Stage-wise within the range: each stage is a contiguous streaming
        // loop the compiler can vectorize. Per element the arithmetic
        // order is exactly the scalar original's, so 1-thread results are
        // bit-identical to the pre-fusion solver.
        for (std::size_t j = n + 1; j-- > j_lo;) {
          const linalg::Vec& uj = u[j];
          linalg::Vec& out = u_next[j];
          for (std::size_t i = row_begin; i < row_end; ++i) {
            double s = 0.0;
            mat.visit_row(i, [&](std::size_t col, double v) {
              s += v * uj[col];
            });
            out[i] = s;
          }
          if (j >= 1) {
            const linalg::Vec& lower1 = u[j - 1];
            for (std::size_t i = row_begin; i < row_end; ++i)
              out[i] += scaled.r_prime[i] * lower1[i];
          }
          if (j >= 2) {
            const linalg::Vec& lower2 = u[j - 2];
            for (std::size_t i = row_begin; i < row_end; ++i)
              out[i] += 0.5 * scaled.s_prime[i] * lower2[i];
          }
          // Impulse convolution: + sum_{l=1..j} A~_l U^(j-l).
          for (std::size_t l = 1; l <= j && l <= impulse.size(); ++l) {
            const linalg::CsrMatrix& a = impulse[l - 1];
            if (a.nnz() == 0) continue;
            const linalg::Vec& lower = u[j - l];
            for (std::size_t i = row_begin; i < row_end; ++i) {
              double imp = 0.0;
              a.visit_row(i, [&](std::size_t col, double v) {
                imp += v * lower[col];
              });
              out[i] += imp;
            }
          }
        }
        // Accumulation goes through linalg::axpy on the owned sub-range: the
        // weight travels by value, so the compiler keeps it in a register and
        // vectorizes (reading aw.w through the struct reference inside the
        // loop defeats that — the stores to acc could alias it).
        const std::size_t len = row_end - row_begin;
        for (const ActiveWeight& aw : active) {
          if (j_lo > 0) {
            linalg::axpy(
                aw.w, std::span<const double>(u[0]).subspan(row_begin, len),
                std::span<double>(acc[aw.ti][0]).subspan(row_begin, len));
          }
          for (std::size_t j = j_lo > 0 ? 1 : 0; j <= n; ++j) {
            linalg::axpy(
                aw.w,
                std::span<const double>(u_next[j]).subspan(row_begin, len),
                std::span<double>(acc[aw.ti][j]).subspan(row_begin, len));
          }
        }
      },
      kFusedGrain);

  for (std::size_t j = j_lo; j <= n; ++j) std::swap(u[j], u_next[j]);
}

/// True when the scaled recursion is numerically subtraction-free: all
/// R' >= 0 (shift-mode scaling; S' is non-negative by construction) and
/// every impulse matrix non-negative (odd normal moments of a negative
/// impulse mean break that). Only then may the checked build assert
/// iterate non-negativity. Only evaluated in checked builds.
bool is_subtraction_free(const ScaledModel& scaled,
                         std::span<const linalg::CsrMatrix> impulse) {
  return check::kChecked &&
         std::all_of(scaled.r_prime.begin(), scaled.r_prime.end(),
                     [](double r) { return r >= 0.0; }) &&
         std::all_of(impulse.begin(), impulse.end(),
                     [](const linalg::CsrMatrix& a) {
                       return a.is_nonnegative(0.0);
                     });
}

/// Turns the sweep's row-major accumulator panels @p acc (acc[ti](i, j) =
/// sum_k Pois(k; q t) U^(j)(k)_i) into sweep.moments, freeing each
/// accumulator panel once its moments are written, so the retained sweep
/// holds one panel per time point. Per state i, first V(i, j) = prefactor
/// * j! d^j * acc(i, j) (moments of the shifted model), then the
/// drift-shift undo B(t) = B_check(t) + shift * t through the binomial
/// expansion of shift_raw_moments, with its C(j, k) delta^(j-k)
/// coefficients built once per time point. Per element the arithmetic
/// chain is exactly shift_raw_moments' (each coefficient is the same
/// product, and the sum runs from k = j down to 0), so the moments carry
/// the bits the solvers have always returned (pinned by
/// tests/test_session_golden.cpp and tests/test_impulse_golden.cpp).
/// @p prefactor is 1 for the plain sweep and w_max for the
/// terminal-weighted one (undoing the seed normalization).
/// @p jensen_applies must be false for terminal-weighted output, where
/// V^(j) = E[B^j w(Z(t))] and Cauchy-Schwarz only yields V2 >= V1^2 for
/// weights bounded by 1.
void finalize_panels(std::vector<linalg::Panel>& acc, RetainedSweep& sweep,
                     double prefactor, bool jensen_applies,
                     const char* caller) {
  const std::size_t n = sweep.max_moment;
  const std::size_t width = n + 1;
  std::vector<double> factor(width);
  double f = prefactor;  // prefactor * j! d^j
  for (std::size_t j = 0; j <= n; ++j) {
    if (j > 0) f *= static_cast<double>(j) * sweep.d;
    factor[j] = f;
  }
  const bool shifted = sweep.shift != 0.0;
  std::vector<double> coef(width * width);  // coef[j * width + k]
  std::vector<double> raw(width);
  sweep.moments.clear();
  sweep.moments.reserve(acc.size());
  for (std::size_t ti = 0; ti < acc.size(); ++ti) {
    if (shifted) {
      const double delta = sweep.shift * sweep.times[ti];
      for (std::size_t j = 0; j <= n; ++j) {
        double delta_pow = 1.0;  // delta^(j-k), built from k = j downwards
        for (std::size_t k = j + 1; k-- > 0;) {
          coef[j * width + k] = binomial_coefficient(j, k) * delta_pow;
          delta_pow *= delta;
        }
      }
    }
    const std::size_t num_states = acc[ti].rows();
    linalg::Panel moments(width, num_states);
    for (std::size_t i = 0; i < num_states; ++i) {
      const double* row = acc[ti].row_data(i);
      for (std::size_t j = 0; j <= n; ++j) raw[j] = row[j] * factor[j];
      for (std::size_t j = 0; j <= n; ++j) {
        double v = raw[j];
        if (shifted) {
          v = 0.0;
          for (std::size_t k = j + 1; k-- > 0;)
            v += coef[j * width + k] * raw[k];
        }
        moments(j, i) = v;
      }
    }
    acc[ti] = linalg::Panel();
    if constexpr (check::kChecked) {
      if (jensen_applies && n >= 2) {
        // The truncation error is epsilon per moment in scaled units; the
        // prefactor and the shift transform amplify it.
        const double delta = std::abs(sweep.shift) * sweep.times[ti];
        const double eff_eps = sweep.epsilon * std::max(prefactor, 1.0) *
                               (1.0 + delta) * (1.0 + delta);
        check::check_moment_consistency(moments.row(1), moments.row(2),
                                        eff_eps, caller);
      }
    }
    sweep.moments.push_back(std::move(moments));
  }
}

/// The plain solver's side of the sweep: scales the model, then runs the
/// shared body with the Theorem-4 rule and no impulse matrices. Behind
/// solve_multi, solve_terminal_weighted and sweep_retained.
/// @p terminal_weights empty selects the plain sweep (invariant ones seed,
/// j_lo = 1); non-empty selects the terminal-weighted sweep (normalized w
/// seed, j_lo = 0). @p caller names the solve in checked-build probe
/// messages.
RetainedSweep run_sweep(const SecondOrderMrm& model,
                        std::span<const double> times,
                        const MomentSolverOptions& options,
                        std::span<const double> terminal_weights,
                        const char* caller) {
  const std::int64_t total_t0 = obs::now_ns();
  // Theorem 4 applies to the weighted sweep unchanged: the normalized seed
  // w/w_max is <= h, so Lemma 2's majorant still dominates.
  return detail::sweep_scaled(
      model, scale_model(model, options.scale_policy, options.center), {},
      times, options,
      {&RandomizationMomentSolver::truncation_point, &theorem4_error_bound,
       &log_theorem4_prefactor},
      terminal_weights, total_t0, caller);
}

/// Validates a terminal-weight vector against the model, throwing with the
/// caller's name (shared by solve_terminal_weighted and sweep_retained).
void validate_terminal_weights(std::span<const double> weights,
                               std::size_t num_states, const char* caller) {
  const auto fail = [caller](const char* what) {
    throw std::invalid_argument(std::string(caller) + ": " + what);
  };
  if (weights.size() != num_states) fail("weight vector size mismatch");
  if (!linalg::is_nonnegative(weights)) fail("weights must be non-negative");
  if (!(linalg::max_elem(weights) > 0.0)) fail("weights must not be all zero");
}

}  // namespace

namespace detail {

RetainedSweep sweep_scaled(const SecondOrderMrm& model, ScaledModel scaled,
                           std::vector<linalg::CsrMatrix> impulse,
                           std::span<const double> times,
                           const MomentSolverOptions& options,
                           const TruncationRule& rule,
                           std::span<const double> terminal_weights,
                           std::int64_t total_t0, const char* caller) {
  const std::size_t n = options.max_moment;
  const std::size_t num_states = model.num_states();
  const bool weighted = !terminal_weights.empty();
  const double w_max = weighted ? linalg::max_elem(terminal_weights) : 1.0;

  RetainedSweep sweep;
  sweep.times.assign(times.begin(), times.end());
  sweep.max_moment = n;
  sweep.epsilon = options.epsilon;
  sweep.center = options.center;
  sweep.q = scaled.q;
  sweep.d = scaled.d;
  sweep.shift = scaled.shift;

  obs::SolverStats& stats = sweep.stats;
  stats.threads = linalg::num_threads();
  stats.reorder = "none";
  stats.panel_width = n + 1;
  stats.scale_seconds = obs::seconds_between(total_t0, obs::now_ns());

  // Degenerate chain: no transitions (hence no impulses) ever happen, so
  // conditioned on Z(0) = i the reward is exactly a Brownian motion with
  // (r_i, sigma_i^2) and the moments are the closed-form normal moments
  // (times the terminal weight, which only sees the frozen state Z(t) =
  // Z(0) = i). The panels are final as written; there is no truncation.
  if (scaled.q == 0.0) {
    stats.kernel = "degenerate";
    stats.panel_width = 0;
    sweep.truncation_points.assign(times.size(), 0);
    sweep.error_bounds.assign(times.size(), 0.0);
    sweep.moments.assign(times.size(), linalg::Panel(n + 1, num_states, 0.0));
    for (std::size_t ti = 0; ti < times.size(); ++ti) {
      for (std::size_t i = 0; i < num_states; ++i) {
        const auto m = prob::brownian_raw_moments(
            model.drifts()[i] - options.center, model.variances()[i],
            times[ti], n);
        const double wi = weighted ? terminal_weights[i] : 1.0;
        for (std::size_t j = 0; j <= n; ++j) sweep.moments[ti](j, i) = m[j] * wi;
      }
    }
    stats.total_seconds = obs::seconds_between(total_t0, obs::now_ns());
    return sweep;
  }

  // Optional bandwidth-reduction reorder (linalg/reorder.hpp): the sweep
  // runs on the permuted state space — Q', R', S' and every impulse matrix
  // under the same permutation — and the accumulator panels are permuted
  // back before finalize. permute_symmetric preserves every row's
  // stored-entry order, so the arithmetic chain — and hence every output
  // bit — is identical under any policy; only memory locality changes.
  std::vector<std::size_t> perm;  // perm[new] = old; empty = no reorder
  stats.bandwidth_before = linalg::bandwidth(scaled.q_prime);
  stats.bandwidth_after = stats.bandwidth_before;
  if (options.reorder != ReorderPolicy::kNone) {
    const std::int64_t reorder_t0 = obs::now_ns();
    perm = options.reorder == ReorderPolicy::kRcm
               ? linalg::rcm_permutation(scaled.q_prime)
               : linalg::degree_permutation(scaled.q_prime);
    if (linalg::is_identity_permutation(perm)) {
      perm.clear();  // already optimal; skip the permuted copies
    } else {
      scaled.q_prime = linalg::permute_symmetric(scaled.q_prime, perm);
      scaled.r_prime = linalg::permute_vector(scaled.r_prime, perm);
      scaled.s_prime = linalg::permute_vector(scaled.s_prime, perm);
      for (linalg::CsrMatrix& a : impulse)
        a = linalg::permute_symmetric(a, perm);
      stats.bandwidth_after = linalg::bandwidth(scaled.q_prime);
    }
    stats.reorder = options.reorder == ReorderPolicy::kRcm ? "rcm" : "degree";
    stats.scale_seconds += obs::seconds_between(reorder_t0, obs::now_ns());
  }

  // Truncation per time point: honour epsilon for every moment order 0..n,
  // so take the max of the per-order G values. The per-order maxima over
  // the time points land in stats.truncation_points.
  const std::int64_t trunc_t0 = obs::now_ns();
  std::vector<std::size_t>& trunc = sweep.truncation_points;
  trunc.assign(times.size(), 0);
  sweep.error_bounds.assign(times.size(), 0.0);
  stats.truncation_points.assign(n + 1, 0);
  std::size_t g_max = 0;
  for (std::size_t ti = 0; ti < times.size(); ++ti) {
    const double qt = scaled.q * times[ti];
    std::size_t g = 0;
    for (std::size_t j = 0; j <= n; ++j) {
      const std::size_t gj = rule.point(qt, j, scaled.d, options.epsilon);
      stats.truncation_points[j] = std::max(stats.truncation_points[j], gj);
      g = std::max(g, gj);
    }
    trunc[ti] = g;
    sweep.error_bounds[ti] = rule.bound(qt, n, scaled.d, g);
    if constexpr (check::kChecked) {
      check::check_truncation_bound(
          sweep.error_bounds[ti],
          g > 0 ? rule.bound(qt, n, scaled.d, g - 1) : sweep.error_bounds[ti],
          options.epsilon, g, caller);
    }
    g_max = std::max(g_max, g);
  }
  stats.truncation_seconds = obs::seconds_between(trunc_t0, obs::now_ns());
  const bool subtraction_free = is_subtraction_free(scaled, impulse);
  // Lemma 2's majorant bounds the plain recursion only; the impulse
  // recursion's majorant is the looser (2k)^n / n!.
  const bool apply_majorant = impulse.empty();

  // Per-time-point Poisson weight tables, one lgamma each. The right end
  // is G; the left end drops the mass epsilon cannot see. Below the mode
  // (k <= qt), j! d^j U^(j)(k) <= P_j (Lemma 2: U^(j)(k) <= 2 k!/(k-j)! <=
  // 2 (qt)^j; the impulse majorant: (2k)^j / j!), so dropping left mass M
  // costs any order at most P M, P = max_j P_j. The window drops M only
  // while P M < 1/4 ulp of the right-tail bound, so right + P M rounds back
  // to right and the reported bound keeps its bits. With no room (right
  // underflowed to 0, or a target below what the DBL_MIN floor reaches)
  // the window keeps every normal-range weight and nothing is charged.
  const std::int64_t window_t0 = obs::now_ns();
  std::vector<prob::PoissonWindow> windows(times.size());
  stats.window_widths.assign(times.size(), 0);
  for (std::size_t ti = 0; ti < times.size(); ++ti) {
    const double qt = scaled.q * times[ti];
    if (qt > 0.0) {
      const double right = sweep.error_bounds[ti];
      double log_p = rule.log_prefactor(qt, 0, scaled.d);
      for (std::size_t j = 1; j <= n; ++j)
        log_p = std::max(log_p, rule.log_prefactor(qt, j, scaled.d));
      const double ulp =
          std::nextafter(right, std::numeric_limits<double>::infinity()) -
          right;
      const double log_target =
          right > 0.0 ? std::log(0.25 * ulp) - log_p
                      : -std::numeric_limits<double>::infinity();
      windows[ti] = prob::poisson_weight_window(qt, trunc[ti], log_target);
      if (windows[ti].log_left_mass < log_target) {
        const double left = std::exp(log_p + windows[ti].log_left_mass);
        check::check_left_cut(left, right, caller);
        sweep.error_bounds[ti] = right + left;
      }
    }
    stats.window_widths[ti] = windows[ti].weights.size();
    obs::trace_counter("poisson.window_width",
                       static_cast<double>(windows[ti].weights.size()));
  }
  stats.window_seconds = obs::seconds_between(window_t0, obs::now_ns());
  stats.sweep_steps = g_max;
  // Section-6 sweep cost. Lanes actually iterated per Q' pass: the plain
  // sweep's j = 0 column is invariant (j_lo = 1), so n lanes; the weighted
  // seed is not invariant, so all n+1 lanes iterate (j_lo = 0). Each
  // impulse matrix A~_l streams against the n+1-l lanes of its band.
  const std::size_t j_lo = weighted ? 0 : 1;
  std::size_t flops_per_step = 2 * scaled.q_prime.nnz() * (n + 1 - j_lo);
  for (std::size_t l = 1; l <= impulse.size(); ++l)
    flops_per_step += 2 * impulse[l - 1].nnz() * (n + 1 - l);
  stats.sweep_flops = g_max * flops_per_step;

  const auto seed_value = [&](std::size_t i) {
    if (!weighted) return 1.0;
    // Row i of the (possibly permuted) sweep is model state perm[i].
    return terminal_weights[perm.empty() ? i : perm[i]] / w_max;
  };
  // The time points whose Poisson weight at step k is non-zero.
  std::vector<ActiveWeight> active;
  active.reserve(times.size());
  const auto activate = [&](std::size_t k) {
    active.clear();
    for (std::size_t ti = 0; ti < times.size(); ++ti) {
      if (k > trunc[ti]) continue;
      const double w = windows[ti].weight(k);
      if (w != 0.0) active.push_back(ActiveWeight{ti, w});
    }
    stats.active_weight_sum += active.size();
  };
  // The k = 0 weight of each time point.
  const auto weight0 = [&](std::size_t ti) {
    return scaled.q * times[ti] > 0.0 ? windows[ti].weight(0) : 1.0;
  };

  // Row-major accumulators acc[ti](i, j); finalize_panels turns them into
  // the retained moments.
  std::vector<linalg::Panel> retained_acc;
  if (options.kernel == SweepKernel::kPanel) {
    stats.kernel = "panel";
    std::vector<linalg::Panel>& acc = retained_acc;
    linalg::Panel u(num_states, n + 1, 0.0);
    linalg::Panel u_next(num_states, n + 1, 0.0);
    for (std::size_t i = 0; i < num_states; ++i) u(i, 0) = seed_value(i);
    if (!weighted) u_next.fill_col(0, 1.0);  // invariant column survives swaps
    acc.assign(times.size(), linalg::Panel(num_states, n + 1, 0.0));

    // k = 0 contribution.
    for (std::size_t ti = 0; ti < times.size(); ++ti) {
      const double w0 = weight0(ti);
      if (w0 != 0.0)
        for (std::size_t i = 0; i < num_states; ++i)
          acc[ti](i, 0) += w0 * u(i, 0);
    }

    const std::int64_t sweep_t0 = obs::now_ns();
    const std::int64_t busy0 = detail::parallel_busy_metric().total_ns();
    for (std::size_t k = 1; k <= g_max; ++k) {
      activate(k);
      const std::int64_t k_t0 = obs::now_ns();
      fused_panel_step(scaled, impulse, n, j_lo, u, u_next, active, acc);
      if constexpr (check::kChecked)
        check::check_sweep_panel(u, k, j_lo, subtraction_free, apply_majorant,
                                 caller);
      detail::record_sweep_step(k_t0, k, active.size());
    }
    detail::finish_sweep_stats(stats, sweep_t0, busy0);
  } else {
    stats.kernel = "fused_vectors";
    std::vector<linalg::Vec> u(n + 1, linalg::zeros(num_states));
    for (std::size_t i = 0; i < num_states; ++i) u[0][i] = seed_value(i);
    std::vector<linalg::Vec> u_next(n + 1, linalg::zeros(num_states));
    std::vector<std::vector<linalg::Vec>> acc(
        times.size(),
        std::vector<linalg::Vec>(n + 1, linalg::zeros(num_states)));

    // k = 0 contribution.
    for (std::size_t ti = 0; ti < times.size(); ++ti) {
      const double w0 = weight0(ti);
      if (w0 != 0.0) linalg::axpy(w0, u[0], acc[ti][0]);
    }

    const std::int64_t sweep_t0 = obs::now_ns();
    const std::int64_t busy0 = detail::parallel_busy_metric().total_ns();
    for (std::size_t k = 1; k <= g_max; ++k) {
      activate(k);
      const std::int64_t k_t0 = obs::now_ns();
      fused_recursion_step(scaled, impulse, n, j_lo, u, u_next, active, acc);
      if constexpr (check::kChecked) {
        for (std::size_t j = 0; j <= n; ++j)
          check::check_sweep_column(u[j], k, j, subtraction_free,
                                    apply_majorant, caller);
      }
      detail::record_sweep_step(k_t0, k, active.size());
    }
    detail::finish_sweep_stats(stats, sweep_t0, busy0);

    // Retain panels regardless of kernel: the vector->panel copy preserves
    // every bit, so the finalize path is kernel-agnostic.
    retained_acc.assign(times.size(), linalg::Panel(num_states, n + 1, 0.0));
    for (std::size_t ti = 0; ti < times.size(); ++ti)
      for (std::size_t j = 0; j <= n; ++j)
        retained_acc[ti].set_col(j, acc[ti][j]);
  }

  if (!perm.empty()) {
    // Back to the model's state order: pure row moves, no arithmetic, so
    // nothing downstream can tell a reordered sweep ran.
    for (linalg::Panel& p : retained_acc)
      p = linalg::unpermute_panel_rows(p, perm);
  }
  finalize_panels(retained_acc, sweep, w_max, /*jensen_applies=*/!weighted,
                  caller);

  stats.total_seconds = obs::seconds_between(total_t0, obs::now_ns());
  return sweep;
}

std::vector<MomentResult> finalize_all(RetainedSweep& sweep,
                                       std::span<const double> initial,
                                       std::size_t max_moment,
                                       std::int64_t total_t0) {
  const std::int64_t finalize_t0 = obs::now_ns();
  std::vector<MomentResult> results;
  results.reserve(sweep.times.size());
  for (std::size_t ti = 0; ti < sweep.times.size(); ++ti)
    results.push_back(finalize_from_sweep(sweep, ti, initial, max_moment));
  sweep.stats.finalize_seconds =
      obs::seconds_between(finalize_t0, obs::now_ns());
  sweep.stats.total_seconds = obs::seconds_between(total_t0, obs::now_ns());
  for (MomentResult& r : results) r.stats = sweep.stats;
  return results;
}

}  // namespace detail

void validate_solver_inputs(std::span<const double> times,
                            const MomentSolverOptions& options,
                            const char* caller) {
  const auto fail = [caller](const std::string& what) {
    throw std::invalid_argument(std::string(caller) + ": " + what);
  };
  if (times.empty()) fail("time list must not be empty");
  for (double t : times) {
    if (!(t >= 0.0) || !std::isfinite(t))
      fail("t must be finite and >= 0 (got " + std::to_string(t) + ")");
  }
  for (std::size_t i = 1; i < times.size(); ++i) {
    if (times[i] == times[i - 1])
      fail("duplicate time point (got " + std::to_string(times[i]) +
           " twice); time points must be strictly increasing");
    if (times[i] < times[i - 1])
      fail("time points must be sorted ascending (got " +
           std::to_string(times[i]) + " after " +
           std::to_string(times[i - 1]) + ")");
  }
  if (!(options.epsilon > 0.0) || !std::isfinite(options.epsilon))
    fail("epsilon must be finite and positive (got " +
         std::to_string(options.epsilon) + ")");
  if (!std::isfinite(options.center))
    fail("center must be finite (got " + std::to_string(options.center) +
         ")");
}

RandomizationMomentSolver::RandomizationMomentSolver(SecondOrderMrm model)
    : model_(std::move(model)) {}

std::size_t RandomizationMomentSolver::truncation_point(double qt,
                                                        std::size_t n,
                                                        double d,
                                                        double epsilon) {
  if (!(epsilon > 0.0))
    throw std::invalid_argument("truncation_point: epsilon must be positive");
  if (qt < 0.0) throw std::invalid_argument("truncation_point: negative qt");
  if (qt == 0.0) return 0;
  if (d == 0.0 && n > 0) return 0;  // all higher moments are exactly zero

  // Lemma 2 gives U^(n)(k) <= 2 k!/(k-n)!, so the truncation error is
  //   n! d^n sum_{k>G} Pois(k;qt) U^(n)(k)
  //     <= 2 n! d^n (qt)^n sum_{m >= G+1-n} Pois(m; qt)
  // (substituting m = k - n; the paper prints the tail from G+n+1, which is
  // an index-shift slip in the appendix — see DESIGN.md). Condition:
  // log_tail(G + 1 - n) < log(eps) - log_prefactor; for n == 0 the
  // prefactor is just log 2.
  const double log_target =
      std::log(epsilon) - log_theorem4_prefactor(qt, n, d);

  // poisson_truncation_point returns the smallest K with tail(K+1) < bound;
  // we need the smallest G with tail(G + 1 - n) < bound, i.e. G = K + n.
  const std::size_t k = prob::poisson_truncation_point(qt, log_target);
  return k + n;
}

MomentResult RandomizationMomentSolver::solve(
    double t, const MomentSolverOptions& options) const {
  const double times[] = {t};
  return solve_multi(times, options).front();
}

MomentResult RandomizationMomentSolver::solve_terminal_weighted(
    double t, std::span<const double> terminal_weights,
    const MomentSolverOptions& options) const {
  validate_terminal_weights(terminal_weights, model_.num_states(),
                            "solve_terminal_weighted");
  const double time_list[] = {t};
  validate_solver_inputs(time_list, options, "solve_terminal_weighted");

  const std::int64_t total_t0 = obs::now_ns();
  obs::TraceScope solve_scope("solve_terminal_weighted", "solver");

  RetainedSweep sweep = run_sweep(model_, time_list, options, terminal_weights,
                                  "solve_terminal_weighted");

  const std::int64_t finalize_t0 = obs::now_ns();
  MomentResult out = finalize_from_sweep(sweep, 0, model_.initial(),
                                         options.max_moment);
  out.stats.finalize_seconds =
      obs::seconds_between(finalize_t0, obs::now_ns());
  out.stats.total_seconds = obs::seconds_between(total_t0, obs::now_ns());
  return out;
}

RetainedSweep RandomizationMomentSolver::sweep_retained(
    std::span<const double> times, const MomentSolverOptions& options,
    std::span<const double> terminal_weights) const {
  if (!terminal_weights.empty())
    validate_terminal_weights(terminal_weights, model_.num_states(),
                              "sweep_retained");
  validate_solver_inputs(times, options, "sweep_retained");
  return run_sweep(model_, times, options, terminal_weights, "sweep_retained");
}

bool bit_identical(const RetainedSweep& a, const RetainedSweep& b) {
  const auto doubles_equal = [](std::span<const double> x,
                                std::span<const double> y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  const auto scalar_equal = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  if (!doubles_equal(a.times, b.times)) return false;
  if (a.max_moment != b.max_moment) return false;
  if (!scalar_equal(a.epsilon, b.epsilon) || !scalar_equal(a.center, b.center))
    return false;
  if (!scalar_equal(a.q, b.q) || !scalar_equal(a.d, b.d) ||
      !scalar_equal(a.shift, b.shift))
    return false;
  if (a.truncation_points != b.truncation_points) return false;
  if (!doubles_equal(a.error_bounds, b.error_bounds)) return false;
  if (a.moments.size() != b.moments.size()) return false;
  for (std::size_t t = 0; t < a.moments.size(); ++t) {
    const linalg::Panel& pa = a.moments[t];
    const linalg::Panel& pb = b.moments[t];
    if (pa.rows() != pb.rows() || pa.width() != pb.width()) return false;
    if (!doubles_equal(pa.span(), pb.span())) return false;
  }
  return true;
}

std::size_t RetainedSweep::byte_size() const {
  std::size_t bytes = sizeof(RetainedSweep);
  bytes += times.capacity() * sizeof(double);
  bytes += truncation_points.capacity() * sizeof(std::size_t);
  bytes += error_bounds.capacity() * sizeof(double);
  bytes += stats.truncation_points.capacity() * sizeof(std::size_t);
  bytes += stats.window_widths.capacity() * sizeof(std::size_t);
  for (const linalg::Panel& p : moments)
    bytes += p.rows() * p.width() * sizeof(double) + sizeof(linalg::Panel);
  return bytes;
}

namespace {

/// out[j] = sum_i pi[i] V_i^(j) for j < K in ascending i, where row j of
/// @p moments holds V^(j): one accumulator per order, each adding in
/// linalg::dot's order, so every sum has dot's bits. K is compile-time so
/// the accumulators stay in registers through one pass over the panel.
template <std::size_t K>
void contract_rows(const linalg::Panel& moments, const double* pi,
                   double* out) {
  double s[K] = {};
  const double* v[K];
  for (std::size_t j = 0; j < K; ++j) v[j] = moments.row_data(j);
  for (std::size_t i = 0; i < moments.width(); ++i) {
    const double p = pi[i];
    for (std::size_t j = 0; j < K; ++j) s[j] += p * v[j][i];
  }
  for (std::size_t j = 0; j < K; ++j) out[j] = s[j];
}

/// Contracts @p pi (moments.width() entries) with the first @p orders rows
/// of @p moments into out[0..orders).
void contract_panel(const linalg::Panel& moments, std::size_t orders,
                    const double* pi, double* out) {
  switch (orders) {
    case 1: return contract_rows<1>(moments, pi, out);
    case 2: return contract_rows<2>(moments, pi, out);
    case 3: return contract_rows<3>(moments, pi, out);
    case 4: return contract_rows<4>(moments, pi, out);
    case 5: return contract_rows<5>(moments, pi, out);
    case 6: return contract_rows<6>(moments, pi, out);
    case 7: return contract_rows<7>(moments, pi, out);
    case 8: return contract_rows<8>(moments, pi, out);
    default:
      for (std::size_t j = 0; j < orders; ++j)
        out[j] = linalg::dot({pi, moments.width()}, moments.row(j));
  }
}

/// contract_sweep, with @p caller naming the entry point in error messages.
MomentResult contract(const RetainedSweep& sweep, std::size_t time_index,
                      std::span<const double> initial, std::size_t max_moment,
                      const char* caller) {
  const auto fail = [caller](const std::string& what) {
    throw std::invalid_argument(std::string(caller) + ": " + what);
  };
  if (time_index >= sweep.times.size())
    fail("time index " + std::to_string(time_index) +
         " out of range (sweep holds " + std::to_string(sweep.times.size()) +
         " time points)");
  if (max_moment > sweep.max_moment)
    fail("moment order " + std::to_string(max_moment) +
         " exceeds the sweep's max_moment " +
         std::to_string(sweep.max_moment));
  if (initial.size() != sweep.num_states())
    fail("initial vector size mismatch (got " +
         std::to_string(initial.size()) + ", sweep has " +
         std::to_string(sweep.num_states()) + " states)");

  MomentResult out;
  out.time = sweep.times[time_index];
  out.q = sweep.q;
  out.d = sweep.d;
  out.shift = sweep.shift;
  out.center = sweep.center;
  out.truncation_point = sweep.truncation_points[time_index];
  out.error_bound = sweep.error_bounds[time_index];
  out.stats = sweep.stats;
  out.weighted.resize(max_moment + 1);
  contract_panel(sweep.moments[time_index], max_moment + 1, initial.data(),
                 out.weighted.data());
  return out;
}

}  // namespace

MomentResult contract_sweep(const RetainedSweep& sweep, std::size_t time_index,
                            std::span<const double> initial,
                            std::size_t max_moment) {
  return contract(sweep, time_index, initial, max_moment, "contract_sweep");
}

MomentResult finalize_from_sweep(const RetainedSweep& sweep,
                                 std::size_t time_index,
                                 std::span<const double> initial,
                                 std::size_t max_moment) {
  MomentResult out =
      contract(sweep, time_index, initial, max_moment, "finalize_from_sweep");
  out.per_state.reserve(max_moment + 1);
  for (std::size_t j = 0; j <= max_moment; ++j) {
    const std::span<const double> v = sweep.moments[time_index].row(j);
    out.per_state.emplace_back(v.begin(), v.end());
  }
  return out;
}

std::vector<MomentResult> RandomizationMomentSolver::solve_multi(
    std::span<const double> times, const MomentSolverOptions& options) const {
  validate_solver_inputs(times, options, "solve_multi");

  const std::int64_t total_t0 = obs::now_ns();
  obs::TraceScope solve_scope("solve_multi", "solver", "times",
                              static_cast<double>(times.size()));

  RetainedSweep sweep = run_sweep(model_, times, options, {}, "solve_multi");
  return detail::finalize_all(sweep, model_.initial(), options.max_moment,
                              total_t0);
}

}  // namespace somrm::core
