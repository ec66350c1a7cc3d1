// Bit-identity contracts of the CSR panel kernels and the randomization
// sweeps, asserted with EXPECT_EQ on doubles, never EXPECT_NEAR:
//  * CsrPanelTest — every panel product equals independent SpMVs per
//    column at every width and thread count, also on ragged matrices with
//    the unsorted-column rows a reorder leaves, and windowed row-range
//    products leave everything outside their window untouched;
//  * SweepBitIdentityTest — every sweep (plain, terminal-weighted,
//    impulse) returns the single-thread bits across
//    {thread count} x {sweep kernel} x {reorder policy}.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/impulse_randomization.hpp"
#include "core/randomization.hpp"
#include "ctmc/generator.hpp"
#include "linalg/csr.hpp"
#include "linalg/panel.hpp"
#include "linalg/parallel.hpp"
#include "linalg/reorder.hpp"
#include "linalg/vec.hpp"

namespace somrm::linalg {
namespace {

using core::MomentResult;
using core::MomentSolverOptions;
using core::ReorderPolicy;
using core::SecondOrderMrm;
using core::SweepKernel;

std::uint64_t lcg_next(std::uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return state >> 33;
}

CsrMatrix lcg_matrix(std::size_t rows, std::size_t cols,
                     std::size_t nnz_per_row) {
  CsrBuilder b(rows, cols);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t k = 0; k < nnz_per_row; ++k) {
      const std::size_t j = lcg_next(state) % cols;
      b.add(i, j, (static_cast<double>(lcg_next(state) % 1999) - 999.0) / 311.0);
    }
  return std::move(b).build();
}

// Row i holds 1 + (i * 7 % 6) entries at scattered columns, so row lengths
// genuinely differ from one row to the next.
CsrMatrix ragged_matrix(std::size_t rows, std::size_t cols) {
  CsrBuilder b(rows, cols);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t len = 1 + (i * 7) % 6;
    for (std::size_t k = 0; k < len; ++k) {
      const std::size_t j = lcg_next(state) % cols;
      b.add(i, j, (static_cast<double>(lcg_next(state) % 1999) - 999.0) / 311.0);
    }
  }
  return std::move(b).build();
}

Panel lcg_panel(std::size_t rows, std::size_t width) {
  Panel p(rows, width);
  std::uint64_t state = 0x2545f4914f6cdd1dull;
  for (std::size_t i = 0; i < p.size(); ++i)
    p.data()[i] = (static_cast<double>(lcg_next(state) % 4001) - 2000.0) / 919.0;
  return p;
}

/// Column j of a * x, one SpMV per column: the reference every panel
/// product must reproduce bit for bit.
std::vector<Vec> column_spmvs(const CsrMatrix& a, const Panel& x) {
  std::vector<Vec> ref(x.width(), Vec(a.rows(), 0.0));
  for (std::size_t j = 0; j < x.width(); ++j) a.multiply(x.col(j), ref[j]);
  return ref;
}

/// Restores the default thread count however a test exits, so thread
/// overrides cannot leak across tests.
class ThreadCountRestoringTest : public ::testing::Test {
 protected:
  void TearDown() override { set_num_threads(0); }
};

class CsrPanelTest : public ThreadCountRestoringTest {};
class SweepBitIdentityTest : public ThreadCountRestoringTest {};

TEST_F(CsrPanelTest, PanelProductBitIdenticalAcrossWidthsThreads) {
  // Widths 1..8 hit every fixed-width row kernel, 24 is the widest solver
  // panel (bounds pipeline), and 33 exceeds the 32-column chunk (chunk loop
  // plus a width-1 tail pass). 9,000 rows split into several parallel
  // ranges at every width.
  const std::size_t rows = 9000, cols = 2000;
  const CsrMatrix m = lcg_matrix(rows, cols, 7);
  for (const std::size_t width : {1, 2, 3, 4, 5, 6, 7, 8, 24, 33}) {
    const Panel x = lcg_panel(cols, width);
    const std::vector<Vec> ref = column_spmvs(m, x);
    for (const std::size_t threads : {1, 2, 4, 8}) {
      set_num_threads(threads);
      Panel y(rows, width);
      m.multiply_panel(x, y);
      for (std::size_t j = 0; j < width; ++j)
        ASSERT_EQ(y.col(j), ref[j])
            << "width " << width << " threads " << threads << " column " << j;
    }
  }
}

TEST_F(CsrPanelTest, WindowedAccumulateBitIdenticalAndOutsideUntouched) {
  // multiply_panel_rows with a column window (the fused sweep's shape):
  // src/dst offsets differ, accumulate=true, and only a row subrange runs.
  // Everything outside the window — columns below dst_col, past
  // dst_col+count, rows outside the range — keeps its seed bits exactly.
  const std::size_t n = 1024;
  const CsrMatrix m = lcg_matrix(n, n, 5);
  const Panel x = lcg_panel(n, 10);
  const Panel seed = lcg_panel(n, 12);
  const std::size_t row_begin = 100, row_end = 900;
  const std::size_t src_col = 1, dst_col = 2, count = 7;

  Panel y = seed;
  m.multiply_panel_rows(x, y, row_begin, row_end, src_col, dst_col, count,
                        /*accumulate=*/true);
  const std::vector<Vec> ref = column_spmvs(m, x);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < 12; ++c) {
      const bool inside = r >= row_begin && r < row_end && c >= dst_col &&
                          c < dst_col + count;
      const double want =
          inside ? seed(r, c) + ref[src_col + c - dst_col][r] : seed(r, c);
      ASSERT_EQ(y(r, c), want) << "row " << r << " col " << c;
    }
}

TEST_F(CsrPanelTest, EmptyRowsAndEmptyRangeAreHandled) {
  // Rows with no stored entries must still write zeros (assign mode), and a
  // zero-length row range must be a no-op in either mode.
  CsrBuilder b(6, 6);
  b.add(0, 1, 2.0);
  b.add(3, 0, -1.5);
  b.add(3, 5, 4.0);
  const CsrMatrix m = std::move(b).build();
  const Panel x = lcg_panel(6, 3);
  Panel y(6, 3, 99.0);
  m.multiply_panel_rows(x, y, 0, 6, 0, 0, 3, /*accumulate=*/false);
  for (std::size_t c = 0; c < 3; ++c)
    for (const std::size_t r : {1, 2, 4, 5}) EXPECT_EQ(y(r, c), 0.0) << r;
  for (const bool accumulate : {false, true}) {
    Panel z = y;
    m.multiply_panel_rows(x, z, 4, 4, 0, 0, 3, accumulate);
    for (std::size_t i = 0; i < z.size(); ++i)
      EXPECT_EQ(z.data()[i], y.data()[i]) << "accumulate " << accumulate;
  }
}

TEST_F(CsrPanelTest, RaggedPanelProductBitIdenticalAcrossWidthsThreads) {
  // Ragged rows, and the same rows after a symmetric permutation, which
  // leaves their columns unsorted (the matrices a reordered sweep
  // multiplies). Widths 1..8 hit every fixed-width kernel; 11 exercises the
  // generic fallback.
  const CsrMatrix ragged = ragged_matrix(2500, 2500);
  const CsrMatrix permuted =
      permute_symmetric(ragged, rcm_permutation(ragged));
  ASSERT_FALSE(permuted.columns_sorted());
  for (const CsrMatrix* a : {&ragged, &permuted})
    for (const std::size_t width : {1, 2, 3, 4, 5, 6, 7, 8, 11}) {
      const Panel x = lcg_panel(2500, width);
      const std::vector<Vec> ref = column_spmvs(*a, x);
      for (const std::size_t threads : {1, 4}) {
        set_num_threads(threads);
        Panel y(2500, width);
        a->multiply_panel(x, y);
        for (std::size_t j = 0; j < width; ++j)
          ASSERT_EQ(y.col(j), ref[j])
              << (a == &ragged ? "sorted" : "unsorted") << " w=" << width
              << " t=" << threads << " column " << j;
      }
    }
}

TEST_F(CsrPanelTest, RaggedPanelRowsMatchSpmvsOnArbitraryWindows) {
  // Row ranges of any offset and length, column windows (src_col, dst_col,
  // count) as the sweep uses them, and both accumulate modes, on ragged
  // rows: inside the window each cell is its SpMV entry (plus the seed when
  // accumulating), outside it keeps the seed.
  const CsrMatrix a = ragged_matrix(90, 90);
  const std::size_t width = 6;
  const Panel x = lcg_panel(90, width);
  const Panel seed = lcg_panel(90, width);
  const std::vector<Vec> ref = column_spmvs(a, x);
  const struct {
    std::size_t r0, r1, src, dst, count;
  } cases[] = {{0, 90, 0, 0, 6}, {3, 29, 1, 1, 5}, {17, 18, 2, 0, 3},
               {5, 83, 0, 2, 4}, {88, 90, 1, 1, 1}};
  for (const auto& c : cases)
    for (const bool accumulate : {false, true}) {
      Panel y = seed;
      a.multiply_panel_rows(x, y, c.r0, c.r1, c.src, c.dst, c.count,
                            accumulate);
      for (std::size_t r = 0; r < 90; ++r)
        for (std::size_t col = 0; col < width; ++col) {
          const bool inside = r >= c.r0 && r < c.r1 && col >= c.dst &&
                              col < c.dst + c.count;
          const double product = inside ? ref[c.src + col - c.dst][r] : 0.0;
          const double want =
              !inside ? seed(r, col)
                      : (accumulate ? seed(r, col) + product : product);
          ASSERT_EQ(y(r, col), want)
              << "rows [" << c.r0 << "," << c.r1 << ") acc=" << accumulate
              << " cell " << r << "," << col;
        }
    }
}

// ---------------------------------------------------------------------------
// Solver-level contract: every sweep returns the single-thread,
// unreordered bits at every thread count, sweep kernel and reorder policy.
// ---------------------------------------------------------------------------

// 4,096 states: parallel_for cuts ranges of at least 1,024 rows, so 2 and 4
// threads really split the sweep. State i has 1 + (i % 4) outgoing rates to
// scattered targets plus a chain backbone, so rows are ragged and RCM has
// real work to do.
constexpr std::size_t kStates = 4096;

SecondOrderMrm ragged_model(std::size_t n) {
  std::vector<Triplet> rates;
  std::uint64_t state = 0x853c49e6748fea9bull;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t deg = 1 + i % 4;
    for (std::size_t k = 0; k < deg; ++k) {
      std::size_t j = lcg_next(state) % n;
      if (j == i) j = (j + 1) % n;
      rates.push_back({i, j, 0.5 + static_cast<double>(lcg_next(state) % 17) * 0.25});
    }
    rates.push_back({i, (i + 1) % n, 1.0 + 0.125 * static_cast<double>(i % 32)});
  }
  auto gen = ctmc::Generator::from_rates(n, rates);
  Vec drifts(n), vars(n), initial(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    drifts[i] = 0.5 * static_cast<double>(i % 23);
    vars[i] = 0.3 * static_cast<double>(i % 5);
  }
  initial[0] = 0.25;
  initial[n / 2] = 0.75;
  return SecondOrderMrm(std::move(gen), std::move(drifts), std::move(vars),
                        std::move(initial));
}

/// Impulses of mixed sign and variance on every transition of the ragged
/// model, so a reorder that permuted Q' but not the impulse matrices would
/// change the moments.
core::SecondOrderImpulseMrm ragged_impulse_model(std::size_t n) {
  const SecondOrderMrm base = ragged_model(n);
  const CsrMatrix& q = base.generator().matrix();
  std::vector<Triplet> means, vars;
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t k = q.row_ptr()[r]; k < q.row_ptr()[r + 1]; ++k) {
      const std::size_t c = q.col_idx()[k];
      if (c == r) continue;
      means.push_back({r, c, 0.1 * static_cast<double>((r + c) % 5) - 0.2});
      vars.push_back({r, c, 0.05 * static_cast<double>(r % 3)});
    }
  return core::SecondOrderImpulseMrm(base,
                                     CsrMatrix::from_triplets(n, n, means),
                                     CsrMatrix::from_triplets(n, n, vars));
}

void expect_same_moments(const std::vector<MomentResult>& got,
                         const std::vector<MomentResult>& ref,
                         const std::string& label) {
  ASSERT_EQ(got.size(), ref.size()) << label;
  for (std::size_t ti = 0; ti < ref.size(); ++ti) {
    ASSERT_EQ(got[ti].weighted, ref[ti].weighted) << label << " time " << ti;
    ASSERT_EQ(got[ti].per_state, ref[ti].per_state) << label << " time " << ti;
  }
}

MomentSolverOptions base_options() {
  MomentSolverOptions opts;
  opts.max_moment = 3;
  opts.epsilon = 1e-10;
  return opts;
}

/// Calls @p solve(opts, label) for every (threads, kernel, reorder)
/// combination, with the thread count already set.
template <typename Solve>
void for_each_sweep_config(Solve&& solve) {
  for (const std::size_t threads : {1, 2, 4})
    for (const SweepKernel kernel :
         {SweepKernel::kPanel, SweepKernel::kFusedVectors})
      for (const ReorderPolicy reorder :
           {ReorderPolicy::kNone, ReorderPolicy::kRcm}) {
        set_num_threads(threads);
        MomentSolverOptions opts = base_options();
        opts.kernel = kernel;
        opts.reorder = reorder;
        solve(opts,
              "threads " + std::to_string(threads) + " kernel " +
                  (kernel == SweepKernel::kPanel ? "panel" : "fused_vectors") +
                  " reorder " + (reorder == ReorderPolicy::kRcm ? "rcm" : "none"));
      }
}

TEST_F(SweepBitIdentityTest, SolverBitIdenticalAcrossThreadsKernelsReorders) {
  const core::RandomizationMomentSolver solver(ragged_model(kStates));
  const std::vector<double> times = {0.3, 1.1};
  set_num_threads(1);
  const auto ref = solver.solve_multi(times, base_options());
  EXPECT_EQ(ref[0].stats.reorder, "none");
  for_each_sweep_config([&](const MomentSolverOptions& opts,
                            const std::string& label) {
    const auto got = solver.solve_multi(times, opts);
    expect_same_moments(got, ref, label);
    EXPECT_EQ(got[0].stats.reorder,
              opts.reorder == ReorderPolicy::kRcm ? "rcm" : "none")
        << label;
  });
}

TEST_F(SweepBitIdentityTest, TerminalWeightedBitIdenticalAcrossThreadsKernelsReorders) {
  const core::RandomizationMomentSolver solver(ragged_model(kStates));
  Vec weights(kStates);
  for (std::size_t i = 0; i < kStates; ++i)
    weights[i] = 0.25 + static_cast<double>(i % 7);
  set_num_threads(1);
  const auto ref = solver.solve_terminal_weighted(1.3, weights, base_options());
  for_each_sweep_config([&](const MomentSolverOptions& opts,
                            const std::string& label) {
    expect_same_moments({solver.solve_terminal_weighted(1.3, weights, opts)},
                        {ref}, label);
  });
}

TEST_F(SweepBitIdentityTest, ImpulseSolverBitIdenticalAcrossThreadsKernelsReorders) {
  const core::ImpulseMomentSolver solver(ragged_impulse_model(kStates));
  const std::vector<double> times = {0.4, 0.9};
  set_num_threads(1);
  const auto ref = solver.solve_multi(times, base_options());
  EXPECT_EQ(ref[0].stats.reorder, "none");
  for_each_sweep_config([&](const MomentSolverOptions& opts,
                            const std::string& label) {
    const auto got = solver.solve_multi(times, opts);
    expect_same_moments(got, ref, label);
    EXPECT_EQ(got[0].stats.reorder,
              opts.reorder == ReorderPolicy::kRcm ? "rcm" : "none")
        << label;
  });
}

}  // namespace
}  // namespace somrm::linalg
