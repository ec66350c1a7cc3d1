// somrm/core/sweep.hpp
//
// The one randomization sweep driver, shared by RandomizationMomentSolver
// (core/randomization.hpp) and ImpulseMomentSolver
// (core/impulse_randomization.hpp). Each solver builds its scaled
// operands and picks its truncation rule; everything from there on — the
// reorder, the Poisson windows, the sweep steps and the finalize — runs
// here, once, in core/randomization.cpp.
//
// Not part of the public API — include only from src/core/*.cpp.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/model.hpp"
#include "core/randomization.hpp"
#include "core/scaling.hpp"
#include "linalg/csr.hpp"

namespace somrm::core::detail {

/// A solver's truncation rule: point(qt, n, d, epsilon) is the smallest G
/// that honours epsilon for moment order n, bound(qt, n, d, g) the error
/// bound achieved at truncation point g, and log_prefactor(qt, n, d) the
/// log of the factor P_n with |error of order n| <= P_n * (Poisson mass
/// the sum leaves out below the mode). RandomizationMomentSolver uses
/// Theorem 4 (P_n = 2 n! d^n (qt)^n); ImpulseMomentSolver uses the
/// (4 d qt)^n bound of core/impulse_randomization.hpp. Both give P_0 = 2.
struct TruncationRule {
  std::size_t (*point)(double qt, std::size_t n, double d, double epsilon);
  double (*bound)(double qt, std::size_t n, double d, std::size_t g);
  double (*log_prefactor)(double qt, std::size_t n, double d);
};

/// The one sweep driver of both randomization solvers, from the scaled
/// operands on. Each solver does its own setup: scaling, plus for the
/// impulse solver the d-enlargement and the impulse-moment matrices
/// A~_1..A~_n in @p impulse (empty for the plain solver). This body applies
/// options.reorder to every operand, picks the truncation point and error
/// bound of each time point by @p rule, builds the Poisson windows (left
/// edges cut where @p rule says epsilon cannot see the dropped mass, which
/// is charged to the error bound), runs options.kernel's steps, undoes the
/// reorder and finalizes the retained moment panels. q == 0 takes the Brownian closed form of @p model.
/// @p terminal_weights as for sweep_retained. @p total_t0 is the now_ns()
/// reading taken before the caller's setup, @p caller names the solve in
/// checked-build probe messages.
RetainedSweep sweep_scaled(const SecondOrderMrm& model, ScaledModel scaled,
                           std::vector<linalg::CsrMatrix> impulse,
                           std::span<const double> times,
                           const MomentSolverOptions& options,
                           const TruncationRule& rule,
                           std::span<const double> terminal_weights,
                           std::int64_t total_t0, const char* caller);

/// finalize_from_sweep at every time point of @p sweep, each result
/// carrying the sweep's stats with the finalize and total times (from
/// @p total_t0) filled in. The solve_multi of both solvers returns this.
std::vector<MomentResult> finalize_all(RetainedSweep& sweep,
                                       std::span<const double> initial,
                                       std::size_t max_moment,
                                       std::int64_t total_t0);

}  // namespace somrm::core::detail
