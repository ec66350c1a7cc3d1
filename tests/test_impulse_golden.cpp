// Golden bits for the impulse-reward solver: weighted moments and the
// truncation point of fixed solves, pinned as hexfloats, plus a WordHash
// digest over every per-state moment vector.
//
// The table was captured from the implementation in which the impulse
// solver ran a sweep driver of its own. Its sweep now runs through the
// plain solver's driver; these tests pin that no output bit moved. Both
// sweep kernels are checked against the one table, at 1, 2 and 4 threads.
// The cases cover the model of
// ImpulseSolverTest.PanelKernelBitIdenticalToLegacyKernel, a negative
// impulse mean (the recursion then has signed terms), negative drifts (the
// shift transform), a centering offset, max_moment = 9 (width 10), t = 0
// and the degenerate q = 0 closed form. The ON-OFF models have 2,501
// states, enough for the sweep to split across threads. error_bound is not
// pinned here.
//
// To re-capture after a deliberate numeric change, run
//   SOMRM_GOLDEN_PRINT=1 build/tests/test_impulse_golden
// and paste the printed rows over kGolden.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/impulse_randomization.hpp"
#include "linalg/parallel.hpp"
#include "models/onoff.hpp"
#include "support/word_hash.hpp"

namespace somrm {
namespace {

using core::ImpulseMomentSolver;
using core::MomentResult;
using core::MomentSolverOptions;
using core::SecondOrderImpulseMrm;
using core::SweepKernel;
using linalg::CsrMatrix;
using linalg::Triplet;
using linalg::Vec;

struct Case {
  const char* name;
  SecondOrderImpulseMrm model;
  std::vector<double> times;
  MomentSolverOptions opts;
};

/// The 2-state chain of PanelKernelBitIdenticalToLegacyKernel.
SecondOrderImpulseMrm legacy() {
  auto gen = ctmc::Generator::from_rates(
      2, std::vector<Triplet>{{0, 1, 2.0}, {1, 0, 2.0}});
  core::SecondOrderMrm base(std::move(gen), Vec{1.0, -0.5}, Vec{0.3, 0.1},
                            Vec{1.0, 0.0});
  return SecondOrderImpulseMrm::uniform_impulse(std::move(base), 0.7, 0.2);
}

/// ON-OFF multiplexer with 2,500 sources and one impulse on every
/// transition.
SecondOrderImpulseMrm onoff(double capacity, double mean, double variance) {
  models::OnOffMultiplexerParams p;
  p.num_sources = 2500;
  p.capacity = capacity;
  p.rate_variance = 1.5;
  return SecondOrderImpulseMrm::uniform_impulse(
      models::make_onoff_multiplexer(p), mean, variance);
}

/// Ring with chords, drifts in {-1, 0, 1, 2}, mixed zero/positive
/// variances, and impulses of mixed sign and variance per transition.
SecondOrderImpulseMrm ring(std::size_t n) {
  std::vector<Triplet> rates, means, vars;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t next = (i + 1) % n;
    rates.push_back({i, next, 1.0 + 0.3 * static_cast<double>(i % 5)});
    means.push_back({i, next, 0.3 * static_cast<double>(i % 3) - 0.4});
    vars.push_back({i, next, 0.15 * static_cast<double>(i % 2)});
    if (i % 3 == 0) {
      rates.push_back({i, (i + 2) % n, 0.7});
      means.push_back({i, (i + 2) % n, 0.6});
    }
  }
  Vec drifts(n, 0.0);
  Vec variances(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    drifts[i] = static_cast<double>(i % 4) - 1.0;
    variances[i] = (i % 2 == 0) ? 0.5 : 0.0;
  }
  core::SecondOrderMrm base(ctmc::Generator::from_rates(n, rates), drifts,
                            variances, linalg::unit_vec(n, 0));
  return SecondOrderImpulseMrm(std::move(base),
                               CsrMatrix::from_triplets(n, n, means),
                               CsrMatrix::from_triplets(n, n, vars));
}

/// No transitions at all: q = 0, the Brownian closed form.
SecondOrderImpulseMrm frozen(std::size_t n) {
  Vec drifts(n, 0.0);
  Vec variances(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    drifts[i] = 0.75 * static_cast<double>(i) - 1.0;
    variances[i] = 0.25 * static_cast<double>(i % 3);
  }
  core::SecondOrderMrm base(ctmc::Generator::from_rates(n, {}), drifts,
                            variances, linalg::unit_vec(n, 1));
  return SecondOrderImpulseMrm(std::move(base),
                               CsrMatrix::from_triplets(n, n, {}),
                               CsrMatrix::from_triplets(n, n, {}));
}

MomentSolverOptions options(std::size_t max_moment, double epsilon,
                            double center = 0.0) {
  MomentSolverOptions o;
  o.max_moment = max_moment;
  o.epsilon = epsilon;
  o.center = center;
  return o;
}

std::vector<Case> cases() {
  std::vector<Case> out;
  out.push_back({"legacy", legacy(), {0.3, 1.1}, options(3, 1e-10)});
  out.push_back({"onoff_negative_mean", onoff(2500.0, -0.4, 0.3),
                 {0.001, 0.002, 0.004}, options(4, 1e-9)});
  out.push_back({"onoff_shift", onoff(1500.0, 0.5, 0.1),
                 {0.001, 0.002, 0.004}, options(4, 1e-9)});
  out.push_back({"onoff_wide", onoff(1500.0, -0.2, 0.05),
                 {0.0, 0.001, 0.003}, options(9, 1e-9)});
  out.push_back({"ring_centered", ring(24), {0.0, 0.6, 1.1},
                 options(3, 1e-9, 0.8)});
  out.push_back({"degenerate", frozen(6), {0.0, 0.5, 2.0}, options(3, 1e-9)});
  return out;
}

struct Golden {
  const char* name;
  std::size_t time_index;
  std::size_t truncation_point;
  std::vector<double> weighted;
  const char* per_state_digest;
};

// clang-format off
const std::vector<Golden> kGolden = {
    {"legacy", 0, 15, {0x1.ffffffffffffep-1, 0x1.40867db553214p-1, 0x1.a0333a90dd956p-1, 0x1.6d318af558639p+0}, "bab90e5c6ed39be720019f9a4c812cff"},
    {"legacy", 1, 23, {0x1p+0, 0x1.00067cef1df24p+1, 0x1.6e5645dec94e2p+2, 0x1.3e3957edf7b6ap+4}, "ce86a2cc5878abed108b296cc2251de8"},
    {"onoff_negative_mean", 0, 50, {0x1.0000000000006p+0, -0x1.02ae8671cc68fp-1, 0x1.dbbf8f11a07f4p+1, -0x1.1257e669393d3p+3, 0x1.a17d0a7baf224p+5}, "696c7cdf9f0014d824ed466ae6699880"},
    {"onoff_negative_mean", 1, 73, {0x1.fffffffffffd5p-1, -0x1.0559db1b7abf1p+0, 0x1.ff3e77a0ff2a9p+2, -0x1.cc47d27f5fb4fp+4, 0x1.c0d0931310106p+7}, "17f06780eaeb20cf9f0b5511cc374a48"},
    {"onoff_negative_mean", 2, 112, {0x1.fffffffffff73p-1, -0x1.0aa7002ef363dp+1, 0x1.252951c8a3201p+4, -0x1.b5b51aa9ecf4dp+6, 0x1.11f5ace01480bp+10}, "f684f528f228cca87a72319e07bdc3fe"},
    {"onoff_shift", 0, 49, {0x1.0000000000006p+0, 0x1.4fe159ff7dbbep+2, 0x1.e2c445305fca8p+4, 0x1.780edf49f2091p+7, 0x1.3ad4d4f5f48bdp+10}, "dc835aaafdf590ef98d697111ecee3ca"},
    {"onoff_shift", 1, 72, {0x1.fffffffffffd5p-1, 0x1.4fc2d8810f158p+3, 0x1.cd7435121d9dbp+6, 0x1.4b4da76e0c294p+10, 0x1.efbc4c61e355ap+13}, "377dd798bd00ab37b93fd7888f88cb4a"},
    {"onoff_shift", 2, 111, {0x1.fffffffffff73p-1, 0x1.4f8642470bf81p+4, 0x1.c25547c0d7936p+8, 0x1.353e1dbc8cf7ap+13, 0x1.b245957836625p+17}, "e4dd91b36f448f48fecd2209e013c9c5"},
    {"onoff_wide", 0, 0, {0x1p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0}, "ea7be5c1fb08625ca0bf97dad6ac3b7f"},
    {"onoff_wide", 1, 64, {0x1.0000000000006p+0, -0x1.26399e7c2ca8p-8, 0x1.5d933d4246a7p-1, -0x1.324d02cce35d8p-2, 0x1.90e909b0fef6p+0, -0x1.0d97a76967c47p+1, 0x1.d92835a7792fp+2, -0x1.16c5af4032d3p+4, 0x1.d7d9048fccba9p+5, -0x1.74ddd2c7b74b6p+7}, "7025420d0439070c5a64cfb6996a30fc"},
    {"onoff_wide", 2, 116, {0x1.fffffffffffa7p-1, -0x1.497738c0da1cp-5, 0x1.0c48f9cd01048p+1, -0x1.26e53a648765p+0, 0x1.babdfdb3dd14p+3, -0x1.5e3ccb74ecdep+4, 0x1.4e33b2928ffe4p+7, -0x1.e9943d7feaccp+8, 0x1.89e3396bb9892p+11, -0x1.a4dfedcc87736p+13}, "654da9dc8102476c734bd9d2ced52172"},
    {"ring_centered", 0, 0, {0x1p+0, 0x0p+0, 0x0p+0, 0x0p+0}, "ee4fde56c953005c5beeb4c8046d2a93"},
    {"ring_centered", 1, 20, {0x1.ffffffffffff9p-1, -0x1.6be3c34bcdd9dp-1, 0x1.38daa10732318p+0, -0x1.7a9a2fe81299bp+0}, "57b7d030f55ec89b8f377161c9ba9f02"},
    {"ring_centered", 2, 26, {0x1p+0, -0x1.fa10ab24ebc73p-1, 0x1.3a41f42cfaefdp+1, -0x1.25417fdd83f54p+2}, "0e913ff967bf7ec237b5c12c55ca9352"},
    {"degenerate", 0, 0, {0x1p+0, 0x0p+0, 0x0p+0, 0x0p+0}, "98efee9936d1fc81ef56c92fef322729"},
    {"degenerate", 1, 0, {0x1p+0, -0x1p-3, 0x1.2p-3, -0x1.9p-5}, "cce3c1f407e0becab8e818c63f098090"},
    {"degenerate", 2, 0, {0x1p+0, -0x1p-1, 0x1.8p-1, -0x1.cp-1}, "2b7c1994a0a80e588efbf19342cd0480"},
};
// clang-format on

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// WordHash over every per-state moment vector, in order.
std::string per_state_digest(const MomentResult& r) {
  support::WordHash h;
  h.word(r.per_state.size());
  for (const Vec& v : r.per_state) h.doubles(v);
  return h.hex();
}

void print_golden(const std::string& name, std::size_t ti,
                  const MomentResult& r) {
  std::printf("    {\"%s\", %zu, %zu, {", name.c_str(), ti,
              r.truncation_point);
  for (std::size_t j = 0; j < r.weighted.size(); ++j)
    std::printf("%s%a", j == 0 ? "" : ", ", r.weighted[j]);
  std::printf("}, \"%s\"},\n", per_state_digest(r).c_str());
}

class ImpulseGoldenTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { linalg::set_num_threads(GetParam()); }
  void TearDown() override { linalg::set_num_threads(0); }
};

TEST_P(ImpulseGoldenTest, SolvesReproduceCapturedBits) {
  const bool print = std::getenv("SOMRM_GOLDEN_PRINT") != nullptr;
  for (const SweepKernel kernel :
       {SweepKernel::kPanel, SweepKernel::kFusedVectors}) {
    const char* kernel_name =
        kernel == SweepKernel::kPanel ? "panel" : "fused_vectors";
    std::size_t next = 0;
    for (const Case& c : cases()) {
      MomentSolverOptions opts = c.opts;
      opts.kernel = kernel;
      const std::vector<MomentResult> results =
          ImpulseMomentSolver(c.model).solve_multi(c.times, opts);
      ASSERT_EQ(results.size(), c.times.size());
      for (std::size_t ti = 0; ti < results.size(); ++ti) {
        const MomentResult& r = results[ti];
        if (print) {
          if (kernel == SweepKernel::kPanel) print_golden(c.name, ti, r);
          continue;
        }
        ASSERT_LT(next, kGolden.size()) << "golden table too short";
        const Golden& g = kGolden[next++];
        ASSERT_EQ(std::string(g.name), c.name);
        ASSERT_EQ(g.time_index, ti);
        SCOPED_TRACE(std::string(g.name) + " time " + std::to_string(ti) +
                     " kernel " + kernel_name);
        EXPECT_EQ(r.truncation_point, g.truncation_point);
        ASSERT_EQ(r.weighted.size(), g.weighted.size());
        for (std::size_t j = 0; j < g.weighted.size(); ++j)
          EXPECT_TRUE(same_bits(r.weighted[j], g.weighted[j]))
              << "moment " << j << ": " << r.weighted[j] << " vs "
              << g.weighted[j];
        EXPECT_EQ(per_state_digest(r), g.per_state_digest);
      }
    }
    if (!print) {
      EXPECT_EQ(next, kGolden.size()) << "golden table too long";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ImpulseGoldenTest,
                         ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace somrm
