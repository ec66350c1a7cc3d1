// somrm/core/invariants.hpp
//
// Checked-build invariant layer (-DSOMRM_CHECKED=ON).
//
// The paper's headline guarantees (Theorems 3-4) rest on structural
// invariants the solvers assume but — before this layer — never verified:
// the randomized matrices stay sub-stochastic (Lemma 2: Q' stochastic,
// R'h <= h, S'h <= h), the iterates U^(n)(k) stay non-negative and below
// the Lemma-2 majorant 2 k!/(k-n)!, the Theorem-4 truncation bound is
// monotone in G and below epsilon at the chosen G, the Poisson windows'
// left cut stays invisible in that bound, and the finished
// moments are Jensen-consistent (V^(2) >= (V^(1))^2 per state). This
// header provides the probes plus the SOMRM_CHECK / SOMRM_CHECK_FINITE
// macros that gate them.
//
// Mirrors the SOMRM_OBSERVABILITY pattern (see obs/telemetry.hpp):
//  * -DSOMRM_CHECKED=ON compiles the probes in; a violation throws
//    check::InvariantViolation with the failing state index, moment order,
//    and sweep step k in the message. Probes only READ solver data — they
//    never touch the numeric data flow — so checked output is bit-identical
//    to unchecked output for any valid model.
//  * OFF (the default) collapses the whole surface to inline no-ops; call
//    sites need no #if and the optimizer deletes them.
//  * Within a checked build, check::set_enabled(false) is a runtime
//    kill-switch (used by the ON-vs-OFF bit-identity test); the flag is a
//    relaxed atomic so probes inside parallel_for bodies read it racelessly.
//
// Layering: this header depends only on the standard library so the macro
// tier is usable from linalg (csr.cpp, panel.hpp) without a link-time
// dependency on somrm_core. The model-level probes (ScaledModel / Panel
// arguments) are declared here and defined in invariants.cpp, which is
// compiled into somrm_core.

#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>

#ifndef SOMRM_CHECKED
#define SOMRM_CHECKED 0
#endif

#if SOMRM_CHECKED
#include <atomic>
#endif

namespace somrm::linalg {
class Panel;
}
namespace somrm::core {
struct ScaledModel;
}

namespace somrm::check {

/// True when the library was built with -DSOMRM_CHECKED=ON.
constexpr bool kChecked = SOMRM_CHECKED != 0;

/// Thrown by every probe on a violated invariant. Derives from
/// std::logic_error: a firing check means the *code or model data* broke a
/// theorem precondition, not that a request was malformed.
class InvariantViolation : public std::logic_error {
 public:
  explicit InvariantViolation(const std::string& what)
      : std::logic_error(what) {}
};

/// Streams all arguments into one string (full double precision). Used to
/// build diagnostics lazily — macro call sites only evaluate it on failure.
template <typename... Args>
std::string fmt(Args&&... args) {
  std::ostringstream os;
  os.precision(17);
  (os << ... << args);
  return os.str();
}

#if SOMRM_CHECKED

namespace detail {
inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{true};
  return flag;
}
}  // namespace detail

/// Runtime kill-switch within a checked build (defaults to on). The
/// ON-vs-OFF bit-identity test flips this to prove probes never perturb
/// solver output.
inline bool enabled() {
  return detail::enabled_flag().load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

/// Throws InvariantViolation with a uniform prefix naming the check and the
/// source location.
[[noreturn]] inline void fail(const char* check_name, const char* file,
                              int line, const std::string& detail_msg) {
  throw InvariantViolation(fmt("SOMRM_CHECKED violation [", check_name,
                               "] at ", file, ":", line, ": ", detail_msg));
}

/// Every element finite (the NaN/Inf poison sweep). @p what names the
/// array in the diagnostic; the first offending index is reported.
inline void check_finite_span(std::span<const double> v, const char* what,
                              const char* file, int line) {
  if (!enabled()) return;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(v[i]))
      fail("finite", file, line,
           fmt(what, "[", i, "] is not finite (", v[i], ")"));
  }
}

/// Every element >= -tol.
inline void check_nonnegative_span(std::span<const double> v, double tol,
                                   const char* what, const char* file,
                                   int line) {
  if (!enabled()) return;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!(v[i] >= -tol))
      fail("nonnegative", file, line,
           fmt(what, "[", i, "] = ", v[i], " < -", tol));
  }
}

// ---- Model-level probes (defined in invariants.cpp) -----------------------

/// Lemma-2 sub-stochasticity at model build: Q' non-negative with unit row
/// sums, R'/S' diagonals finite, S' non-negative; when
/// @p enforce_reward_bounds (kSafe scaling — the policy Theorem 4 needs)
/// additionally |R'_i| <= 1 and S'_i <= 1. Reports the failing state index.
void check_scaled_model(const core::ScaledModel& scaled,
                        bool enforce_reward_bounds, const char* context);

/// One iterate column U^(j)(k) after a sweep step: finite everywhere
/// (the per-step NaN/Inf poison sweep), non-negative when
/// @p subtraction_free (shift-mode scaling), and — when @p apply_majorant —
/// within the Lemma-2 majorant |U^(j)(k)_i| <= 2 k!/(k-j)! for k >= j
/// (valid for the plain solver; the impulse recursion obeys a different
/// bound, so it passes false). Reports state index i, moment order j, and
/// step k.
void check_sweep_column(std::span<const double> u_j, std::size_t k,
                        std::size_t j, bool subtraction_free,
                        bool apply_majorant, const char* context);

/// Whole-panel version of check_sweep_column for the row-major panel
/// kernels: checks columns j_lo..width-1 of @p u at step @p k, plus (when
/// j_lo == 1) that column 0 still holds the invariant all-ones vector h.
void check_sweep_panel(const linalg::Panel& u, std::size_t k,
                       std::size_t j_lo, bool subtraction_free,
                       bool apply_majorant, const char* context);

/// Theorem-4 truncation-bound sanity at the chosen G: the bound must be
/// monotone non-increasing in G (bound_at_g <= bound_at_g_minus_1) and at
/// most epsilon. Called with the realized bounds so the probe stays
/// independent of how the caller computes them.
void check_truncation_bound(double bound_at_g, double bound_at_g_minus_1,
                            double epsilon, std::size_t g,
                            const char* context);

/// The Poisson windows' left cut: the left term @p left_term (the rule's
/// prefactor times the left mass a window dropped) must stay below 1/4 ulp
/// of the right-tail bound @p right_bound (up to log-space rounding), so
/// that charging it leaves the reported error bound's bits unchanged.
void check_left_cut(double left_term, double right_bound, const char* context);

/// Jensen / moment consistency at finalize: V^(2)_i >= (V^(1)_i)^2 - tol
/// per state, with tol derived from the Theorem-4 budget @p epsilon plus
/// relative rounding slack. Reports the failing state index and both
/// moments.
void check_moment_consistency(std::span<const double> v1,
                              std::span<const double> v2, double epsilon,
                              const char* context);

#else  // SOMRM_CHECKED == 0: the whole surface is an inline no-op.

inline bool enabled() { return false; }
inline void set_enabled(bool) {}

inline void check_finite_span(std::span<const double>, const char*,
                              const char*, int) {}
inline void check_nonnegative_span(std::span<const double>, double,
                                   const char*, const char*, int) {}
inline void check_scaled_model(const core::ScaledModel&, bool, const char*) {}
inline void check_sweep_column(std::span<const double>, std::size_t,
                               std::size_t, bool, bool, const char*) {}
inline void check_sweep_panel(const linalg::Panel&, std::size_t, std::size_t,
                              bool, bool, const char*) {}
inline void check_truncation_bound(double, double, double, std::size_t,
                                   const char*) {}
inline void check_left_cut(double, double, const char*) {}
inline void check_moment_consistency(std::span<const double>,
                                     std::span<const double>, double,
                                     const char*) {}

#endif  // SOMRM_CHECKED

}  // namespace somrm::check

// Condition macro: evaluates @p cond only in checked builds with checks
// enabled; @p detail_expr (anything streamable via check::fmt at the call
// site) is only evaluated on failure.
#if SOMRM_CHECKED
#define SOMRM_CHECK(cond, name, detail_expr)                              \
  do {                                                                    \
    if (::somrm::check::enabled() && !(cond))                             \
      ::somrm::check::fail(name, __FILE__, __LINE__, detail_expr);        \
  } while (0)
#define SOMRM_CHECK_FINITE(values_span, what)                             \
  ::somrm::check::check_finite_span(values_span, what, __FILE__, __LINE__)
#define SOMRM_CHECK_NONNEGATIVE(values_span, tol, what)                   \
  ::somrm::check::check_nonnegative_span(values_span, tol, what, __FILE__, \
                                         __LINE__)
#else
#define SOMRM_CHECK(cond, name, detail_expr) ((void)0)
#define SOMRM_CHECK_FINITE(values_span, what) ((void)0)
#define SOMRM_CHECK_NONNEGATIVE(values_span, tol, what) ((void)0)
#endif
