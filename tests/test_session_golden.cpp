// Golden bits for SolveSession answers: weighted moments, truncation point
// and error bound of a fixed query set, pinned as hexfloats.
//
// The table was captured from the implementation that kept raw Poisson-
// weighted accumulators in every retained sweep and ran the j! d^j factor
// chain and the drift-shift undo on each query. The sweep now finalizes its
// panels once; these tests pin that the served bits did not move. The cases
// cover plain and terminal-weighted sweeps, drifts without a shift, with a
// shift (ON-OFF with capacity < sources) and with a centering offset, the
// degenerate q = 0 closed form, t = 0, orders below the session max, the
// default and a custom initial vector, through query() and query_batch(),
// at 1, 2 and 4 threads. The ON-OFF models have 2,501 states, enough for
// the sweep to split across threads.
//
// To re-capture after a deliberate numeric change, run
//   SOMRM_GOLDEN_PRINT=1 build/tests/test_session_golden
// and paste the printed rows over kGolden.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/solve_session.hpp"
#include "linalg/parallel.hpp"
#include "models/onoff.hpp"

namespace somrm {
namespace {

using core::MomentResult;
using core::MomentSolverOptions;
using core::SessionQuery;
using core::SolveSession;
using linalg::Vec;

struct Case {
  const char* name;
  core::SecondOrderMrm model;
  std::vector<double> times;
  MomentSolverOptions opts;
};

core::SecondOrderMrm onoff(double capacity) {
  models::OnOffMultiplexerParams p;
  p.num_sources = 2500;
  p.capacity = capacity;
  p.rate_variance = 1.5;
  return models::make_onoff_multiplexer(p);
}

/// Ring with chords, drifts in {-1, 0, 1, 2}, mixed zero/positive variances.
core::SecondOrderMrm ring(std::size_t n) {
  std::vector<linalg::Triplet> rates;
  for (std::size_t i = 0; i < n; ++i) {
    rates.push_back({i, (i + 1) % n, 1.0 + 0.3 * static_cast<double>(i % 5)});
    if (i % 3 == 0) rates.push_back({i, (i + 2) % n, 0.7});
  }
  Vec drifts(n, 0.0);
  Vec variances(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    drifts[i] = static_cast<double>(i % 4) - 1.0;
    variances[i] = (i % 2 == 0) ? 0.5 : 0.0;
  }
  return core::SecondOrderMrm(ctmc::Generator::from_rates(n, rates), drifts,
                              variances, linalg::unit_vec(n, 0));
}

/// No transitions at all: q = 0, the Brownian closed form.
core::SecondOrderMrm frozen(std::size_t n) {
  Vec drifts(n, 0.0);
  Vec variances(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    drifts[i] = 0.75 * static_cast<double>(i) - 1.0;
    variances[i] = 0.25 * static_cast<double>(i % 3);
  }
  return core::SecondOrderMrm(ctmc::Generator::from_rates(n, {}), drifts,
                              variances, linalg::unit_vec(n, 1));
}

MomentSolverOptions options(std::size_t max_moment, double center = 0.0) {
  MomentSolverOptions o;
  o.max_moment = max_moment;
  o.epsilon = 1e-9;
  o.center = center;
  return o;
}

std::vector<Case> cases() {
  std::vector<Case> out;
  out.push_back({"onoff_noshift", onoff(2500.0), {0.001, 0.002, 0.004},
                 options(4)});
  out.push_back({"onoff_shift", onoff(1500.0), {0.001, 0.002, 0.004},
                 options(4)});
  out.push_back({"onoff_centered", onoff(1500.0), {0.001, 0.002, 0.004},
                 options(3, 400.0)});
  out.push_back({"ring_shift", ring(24), {0.0, 0.6, 1.1}, options(4)});
  out.push_back({"degenerate", frozen(6), {0.0, 0.5, 2.0}, options(3)});
  return out;
}

Vec custom_pi(std::size_t n) {
  Vec pi(n, 0.0);
  double total = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    pi[s] = 1.0 + static_cast<double>((s * 7) % 11);
    total += pi[s];
  }
  for (double& p : pi) p /= total;
  return pi;
}

Vec weights(std::size_t n) {
  Vec w(n, 0.0);
  for (std::size_t s = 0; s < n; ++s)
    w[s] = 0.25 * static_cast<double>((s * 5) % 9);
  if (n > 0) w[0] = 1.5;
  return w;
}

/// Every time point x {session max, order 1} x {model pi, custom pi} x
/// {plain, weighted}.
std::vector<SessionQuery> queries(const Case& c) {
  const std::size_t n = c.model.num_states();
  std::vector<SessionQuery> out;
  for (std::size_t ti = 0; ti < c.times.size(); ++ti)
    for (const std::size_t order : {SessionQuery::kSessionMax, std::size_t{1}})
      for (const bool own_pi : {true, false})
        for (const bool weighted : {false, true}) {
          SessionQuery q;
          q.time_index = ti;
          q.max_moment = order;
          if (!own_pi) q.initial = custom_pi(n);
          if (weighted) q.terminal_weights = weights(n);
          out.push_back(std::move(q));
        }
  return out;
}

struct Golden {
  const char* name;
  std::size_t query;
  std::size_t truncation_point;
  double error_bound;
  std::vector<double> weighted;
};

// clang-format off
const std::vector<Golden> kGolden = {
    {"onoff_noshift", 0, 46, 0x1.68337d078675dp-31, {0x1.0000000000006p+0, 0x1.3f8567fdf6edep+1, 0x1.8f29bb20a5ea4p+2, 0x1.f31a8a8665ce3p+3, 0x1.38501618d87d5p+5}},
    {"onoff_noshift", 1, 46, 0x1.68337d078675dp-31, {0x1.0c56a2129a58p+0, 0x1.4ef0f7dd7e682p+1, 0x1.a26fcf66ef81ap+2, 0x1.05992ed664054p+4, 0x1.475f8e36620bap+5}},
    {"onoff_noshift", 2, 46, 0x1.68337d078675dp-31, {0x1.000000000000dp+0, 0x1.401df0debc61ep+0, 0x1.fa5050e2d820ep+1, 0x1.132b1560c502cp+3, 0x1.0c927fd254e13p+5}},
    {"onoff_noshift", 3, 46, 0x1.68337d078675dp-31, {0x1.000091739a10dp+0, 0x1.40198e7570c1bp+0, 0x1.fa4f2d5f5dc4p+1, 0x1.1327a917d94dbp+3, 0x1.0c9369deca72ap+5}},
    {"onoff_noshift", 4, 46, 0x1.68337d078675dp-31, {0x1.0000000000006p+0, 0x1.3f8567fdf6edep+1}},
    {"onoff_noshift", 5, 46, 0x1.68337d078675dp-31, {0x1.0c56a2129a58p+0, 0x1.4ef0f7dd7e682p+1}},
    {"onoff_noshift", 6, 46, 0x1.68337d078675dp-31, {0x1.000000000000dp+0, 0x1.401df0debc61ep+0}},
    {"onoff_noshift", 7, 46, 0x1.68337d078675dp-31, {0x1.000091739a10dp+0, 0x1.40198e7570c1bp+0}},
    {"onoff_noshift", 8, 69, 0x1.d7bb1531e4d66p-32, {0x1.fffffffffffd5p-1, 0x1.3f0b62043c5c4p+2, 0x1.8df92ec9e57edp+4, 0x1.f0dff49367a18p+6, 0x1.367485eef89c8p+9}},
    {"onoff_noshift", 9, 69, 0x1.d7bb1531e4d66p-32, {0x1.025a7626da804p+0, 0x1.41f97e796b275p+2, 0x1.91a03c7f764c6p+4, 0x1.f56eee93cdb27p+6, 0x1.394d9922950bbp+9}},
    {"onoff_noshift", 10, 69, 0x1.d7bb1531e4d66p-32, {0x1.000000000000bp+0, 0x1.4046a748323dap+1, 0x1.82092f4ee80cbp+3, 0x1.8fc682a22271bp+5, 0x1.1266949b49278p+8}},
    {"onoff_noshift", 11, 69, 0x1.d7bb1531e4d66p-32, {0x1.00004d62f01d9p+0, 0x1.4046d39be2af6p+1, 0x1.82099eae29b98p+3, 0x1.8fc6c85c96b0bp+5, 0x1.1266e75037744p+8}},
    {"onoff_noshift", 12, 69, 0x1.d7bb1531e4d66p-32, {0x1.fffffffffffd5p-1, 0x1.3f0b62043c5c4p+2}},
    {"onoff_noshift", 13, 69, 0x1.d7bb1531e4d66p-32, {0x1.025a7626da804p+0, 0x1.41f97e796b275p+2}},
    {"onoff_noshift", 14, 69, 0x1.d7bb1531e4d66p-32, {0x1.000000000000bp+0, 0x1.4046a748323dap+1}},
    {"onoff_noshift", 15, 69, 0x1.d7bb1531e4d66p-32, {0x1.00004d62f01d9p+0, 0x1.4046d39be2af6p+1}},
    {"onoff_noshift", 16, 107, 0x1.0381c20e6a89p-31, {0x1.fffffffffff73p-1, 0x1.3e19091c2ff13p+3, 0x1.8b9dac7cdf738p+6, 0x1.ec77c4230944p+9, 0x1.32ca54d638ba1p+13}},
    {"onoff_noshift", 17, 107, 0x1.0381c20e6a89p-31, {0x1.ffd57930016acp-1, 0x1.3dfea7d97705bp+3, 0x1.8b7ce8cb55dafp+6, 0x1.ec4f06b69ef0ep+9, 0x1.32b0f96f04f18p+13}},
    {"onoff_noshift", 18, 107, 0x1.0381c20e6a89p-31, {0x1.fffffffffff62p-1, 0x1.409782f48a5bfp+2, 0x1.458351b61637ep+5, 0x1.43942917c2c7ep+8, 0x1.710203658c8c8p+11}},
    {"onoff_noshift", 19, 107, 0x1.0381c20e6a89p-31, {0x1.0000006ab2148p+0, 0x1.4097824d437fap+2, 0x1.4583512d7f6fdp+5, 0x1.439428037f8fcp+8, 0x1.7102023d1373dp+11}},
    {"onoff_noshift", 20, 107, 0x1.0381c20e6a89p-31, {0x1.fffffffffff73p-1, 0x1.3e19091c2ff13p+3}},
    {"onoff_noshift", 21, 107, 0x1.0381c20e6a89p-31, {0x1.ffd57930016acp-1, 0x1.3dfea7d97705bp+3}},
    {"onoff_noshift", 22, 107, 0x1.0381c20e6a89p-31, {0x1.fffffffffff62p-1, 0x1.409782f48a5bfp+2}},
    {"onoff_noshift", 23, 107, 0x1.0381c20e6a89p-31, {0x1.0000006ab2148p+0, 0x1.4097824d437fap+2}},
    {"onoff_shift", 0, 46, 0x1.68337d078675dp-31, {0x1.0000000000006p+0, 0x1.7f0acffbeddb6p+0, 0x1.1f48a6455df8fp+1, 0x1.afffff4f9884bp+1, 0x1.459bef5b8b1aep+2}},
    {"onoff_shift", 1, 46, 0x1.68337d078675dp-31, {0x1.0c56a2129a58p+0, 0x1.918b4da862784p+0, 0x1.2d29001c2f5fp+1, 0x1.c4d230d8b12c6p+1, 0x1.553c198016d8cp+2}},
    {"onoff_shift", 2, 46, 0x1.68337d078675dp-31, {0x1.000000000000dp+0, 0x1.0077c37af183bp-2, 0x1.3a3260041bc09p+1, -0x1.085ecf5d67294p-1, 0x1.2e83955592bedp+4}},
    {"onoff_shift", 3, 46, 0x1.68337d078675dp-31, {0x1.000091739a10dp+0, 0x1.0063f4075abe8p-2, 0x1.3a35e7a3ba0abp+1, -0x1.08a35b215fd64p-1, 0x1.2e8c890f460acp+4}},
    {"onoff_shift", 4, 46, 0x1.68337d078675dp-31, {0x1.0000000000006p+0, 0x1.7f0acffbeddb6p+0}},
    {"onoff_shift", 5, 46, 0x1.68337d078675dp-31, {0x1.0c56a2129a58p+0, 0x1.918b4da862784p+0}},
    {"onoff_shift", 6, 46, 0x1.68337d078675dp-31, {0x1.000000000000dp+0, 0x1.0077c37af183bp-2}},
    {"onoff_shift", 7, 46, 0x1.68337d078675dp-31, {0x1.000091739a10dp+0, 0x1.0063f4075abe8p-2}},
    {"onoff_shift", 8, 69, 0x1.d7bb1531e4d66p-32, {0x1.fffffffffffd5p-1, 0x1.7e16c40878b9ep+1, 0x1.1ddb998b52447p+3, 0x1.accadf9ef2a27p+4, 0x1.4264df8f70183p+6}},
    {"onoff_shift", 9, 69, 0x1.d7bb1531e4d66p-32, {0x1.025a7626da804p+0, 0x1.819886cbfbce6p+1, 0x1.207ab71f838a4p+3, 0x1.b0b98fab4535ap+4, 0x1.455a6009e0e57p+6}},
    {"onoff_shift", 10, 69, 0x1.d7bb1531e4d66p-32, {0x1.000000000000bp+0, 0x1.011a9d20c8fc5p-1, 0x1.8385100d6b9cp+2, -0x1.89236f09f8f19p-2, 0x1.90552e8920ba2p+6}},
    {"onoff_shift", 11, 69, 0x1.d7bb1531e4d66p-32, {0x1.00004d62f01d9p+0, 0x1.011a18e3ca479p-1, 0x1.8385e3877e2ffp+2, -0x1.894d263cf37ffp-2, 0x1.90569795d98d7p+6}},
    {"onoff_shift", 12, 69, 0x1.d7bb1531e4d66p-32, {0x1.fffffffffffd5p-1, 0x1.7e16c40878b9ep+1}},
    {"onoff_shift", 13, 69, 0x1.d7bb1531e4d66p-32, {0x1.025a7626da804p+0, 0x1.819886cbfbce6p+1}},
    {"onoff_shift", 14, 69, 0x1.d7bb1531e4d66p-32, {0x1.000000000000bp+0, 0x1.011a9d20c8fc5p-1}},
    {"onoff_shift", 15, 69, 0x1.d7bb1531e4d66p-32, {0x1.00004d62f01d9p+0, 0x1.011a18e3ca479p-1}},
    {"onoff_shift", 16, 107, 0x1.0381c20e6a89p-31, {0x1.fffffffffff73p-1, 0x1.7c3212385fe6cp+2, 0x1.1b0946c15f027p+5, 0x1.a67820f37830bp+7, 0x1.3c147e4e5882p+10}},
    {"onoff_shift", 17, 107, 0x1.0381c20e6a89p-31, {0x1.ffd57930016acp-1, 0x1.7c12931aed56p+2, 0x1.1af1e02fbe053p+5, 0x1.a6553f56dd585p+7, 0x1.3bfa69fa45488p+10}},
    {"onoff_shift", 18, 107, 0x1.0381c20e6a89p-31, {0x1.fffffffffff62p-1, 0x1.025e0bd22980ep+0, 0x1.09d79d8317b3bp+4, 0x1.781a17c12731cp+3, 0x1.474ba9338c884p+9}},
    {"onoff_shift", 19, 107, 0x1.0381c20e6a89p-31, {0x1.0000006ab2148p+0, 0x1.025e078a45ad7p+0, 0x1.09d79e2b29f5ap+4, 0x1.7819fbd0d0512p+3, 0x1.474bab841ffcp+9}},
    {"onoff_shift", 20, 107, 0x1.0381c20e6a89p-31, {0x1.fffffffffff73p-1, 0x1.7c3212385fe6cp+2}},
    {"onoff_shift", 21, 107, 0x1.0381c20e6a89p-31, {0x1.ffd57930016acp-1, 0x1.7c12931aed56p+2}},
    {"onoff_shift", 22, 107, 0x1.0381c20e6a89p-31, {0x1.fffffffffff62p-1, 0x1.025e0bd22980ep+0}},
    {"onoff_shift", 23, 107, 0x1.0381c20e6a89p-31, {0x1.0000006ab2148p+0, 0x1.025e078a45ad7p+0}},
    {"onoff_centered", 0, 43, 0x1.0d4218b28b1aap-31, {0x1.ffffffffffff8p-1, 0x1.18a469958771dp+0, 0x1.351802508cf75p+0, 0x1.55fec305177bfp+0}},
    {"onoff_centered", 1, 43, 0x1.0d4218b28b1aap-31, {0x1.0c56a2129a576p+0, 0x1.2635733a8b1eap+0, 0x1.4404e643ffa75p+0, 0x1.666cdea2bfc89p+0}},
    {"onoff_centered", 2, 43, 0x1.0d4218b28b1aap-31, {0x1.000000000000cp+0, -0x1.3243ac3d5029ep-3, 0x1.3507adbf7e748p+1, -0x1.b3eec23e60369p+1}},
    {"onoff_centered", 3, 43, 0x1.0d4218b28b1aap-31, {0x1.000091739a104p+0, -0x1.326d1c966ab55p-3, 0x1.350d3c271e8cdp+1, -0x1.b40556798b96dp+1}},
    {"onoff_centered", 4, 43, 0x1.0d4218b28b1aap-31, {0x1.ffffffffffff8p-1, 0x1.18a469958771dp+0}},
    {"onoff_centered", 5, 43, 0x1.0d4218b28b1aap-31, {0x1.0c56a2129a576p+0, 0x1.2635733a8b1eap+0}},
    {"onoff_centered", 6, 43, 0x1.0d4218b28b1aap-31, {0x1.000000000000cp+0, -0x1.3243ac3d5029ep-3}},
    {"onoff_centered", 7, 43, 0x1.0d4218b28b1aap-31, {0x1.000091739a104p+0, -0x1.326d1c966ab55p-3}},
    {"onoff_centered", 8, 64, 0x1.0b4ae301cfad5p-30, {0x1.fffffffffffc9p-1, 0x1.17b05da212522p+1, 0x1.3301259f39b3bp+2, 0x1.528b7dba3f116p+3}},
    {"onoff_centered", 9, 64, 0x1.0b4ae301cfad5p-30, {0x1.025a7626da7ffp+0, 0x1.1a4124560acd4p+1, 0x1.35d190316ad1p+2, 0x1.55a68e8d2615dp+3}},
    {"onoff_centered", 10, 64, 0x1.0b4ae301cfad5p-30, {0x1.000000000000bp+0, -0x1.30fdf8f1a135dp-2, 0x1.790f199639286p+2, -0x1.ced740bdd361ap+3}},
    {"onoff_centered", 11, 64, 0x1.0b4ae301cfad5p-30, {0x1.00004d62f01d6p+0, -0x1.30fff90e9f03cp-2, 0x1.791013e4a51a2p+2, -0x1.ced9a10f5d844p+3}},
    {"onoff_centered", 12, 64, 0x1.0b4ae301cfad5p-30, {0x1.fffffffffffc9p-1, 0x1.17b05da212522p+1}},
    {"onoff_centered", 13, 64, 0x1.0b4ae301cfad5p-30, {0x1.025a7626da7ffp+0, 0x1.1a4124560acd4p+1}},
    {"onoff_centered", 14, 64, 0x1.0b4ae301cfad5p-30, {0x1.000000000000bp+0, -0x1.30fdf8f1a135dp-2}},
    {"onoff_centered", 15, 64, 0x1.0b4ae301cfad5p-30, {0x1.00004d62f01d6p+0, -0x1.30fff90e9f03cp-2}},
    {"onoff_centered", 16, 101, 0x1.2643ccb594bap-31, {0x1.fffffffffff72p-1, 0x1.15cbabd1f981fp+2, 0x1.2ee0417e9a40fp+4, 0x1.4bc2ec9c67737p+6}},
    {"onoff_centered", 17, 101, 0x1.2643ccb594bap-31, {0x1.ffd57930016abp-1, 0x1.15b4ae115373ep+2, 0x1.2ec73fe7621eep+4, 0x1.4ba790d5e58cep+6}},
    {"onoff_centered", 18, 101, 0x1.2643ccb594bap-31, {0x1.fffffffffff62p-1, -0x1.2e771b8ee0246p-1, 0x1.fe41ee9da3ea4p+3, -0x1.0160bc35ee767p+6}},
    {"onoff_centered", 19, 101, 0x1.2643ccb594bap-31, {0x1.0000006ab2147p+0, -0x1.2e77257414e72p-1, 0x1.fe41f1c64813bp+3, -0x1.0160c107feaccp+6}},
    {"onoff_centered", 20, 101, 0x1.2643ccb594bap-31, {0x1.fffffffffff72p-1, 0x1.15cbabd1f981fp+2}},
    {"onoff_centered", 21, 101, 0x1.2643ccb594bap-31, {0x1.ffd57930016abp-1, 0x1.15b4ae115373ep+2}},
    {"onoff_centered", 22, 101, 0x1.2643ccb594bap-31, {0x1.fffffffffff62p-1, -0x1.2e771b8ee0246p-1}},
    {"onoff_centered", 23, 101, 0x1.2643ccb594bap-31, {0x1.0000006ab2147p+0, -0x1.2e77257414e72p-1}},
    {"ring_shift", 0, 0, 0x0p+0, {0x1p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0}},
    {"ring_shift", 1, 0, 0x0p+0, {0x1.8p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0}},
    {"ring_shift", 2, 0, 0x0p+0, {0x1p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0}},
    {"ring_shift", 3, 0, 0x0p+0, {0x1.0ae4c415c9882p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0}},
    {"ring_shift", 4, 0, 0x0p+0, {0x1p+0, 0x0p+0}},
    {"ring_shift", 5, 0, 0x0p+0, {0x1.8p+0, 0x0p+0}},
    {"ring_shift", 6, 0, 0x0p+0, {0x1p+0, 0x0p+0}},
    {"ring_shift", 7, 0, 0x0p+0, {0x1.0ae4c415c9882p+0, 0x0p+0}},
    {"ring_shift", 8, 21, 0x1.6530eb63f46bdp-32, {0x1.ffffffffffffcp-1, -0x1.f8355ad7e15dcp-3, 0x1.c8e0b78cc5b83p-2, -0x1.29c887daf9f58p-2, 0x1.32e33e3060aaap-1}},
    {"ring_shift", 9, 21, 0x1.6530eb63f46bdp-32, {0x1.19d38703ba099p+0, -0x1.6d07d570d0559p-2, 0x1.10adcedf4b12fp-1, -0x1.b5382a4a89acp-2, 0x1.7f0fab1ad5f1p-1}},
    {"ring_shift", 10, 21, 0x1.6530eb63f46bdp-32, {0x1.ffffffffffffdp-1, 0x1.39378db958979p-2, 0x1.0885616cbba0fp-1, 0x1.5f7e3e22ac295p-2, 0x1.5753278e1c67dp-1}},
    {"ring_shift", 11, 21, 0x1.6530eb63f46bdp-32, {0x1.09ba3979db27fp+0, 0x1.6e7acbebfc0b6p-2, 0x1.2193abb47441ap-1, 0x1.ab40555c43194p-2, 0x1.79735e08a3d93p-1}},
    {"ring_shift", 12, 21, 0x1.6530eb63f46bdp-32, {0x1.ffffffffffffcp-1, -0x1.f8355ad7e15dcp-3}},
    {"ring_shift", 13, 21, 0x1.6530eb63f46bdp-32, {0x1.19d38703ba099p+0, -0x1.6d07d570d0559p-2}},
    {"ring_shift", 14, 21, 0x1.6530eb63f46bdp-32, {0x1.ffffffffffffdp-1, 0x1.39378db958979p-2}},
    {"ring_shift", 15, 21, 0x1.6530eb63f46bdp-32, {0x1.09ba3979db27fp+0, 0x1.6e7acbebfc0b6p-2}},
    {"ring_shift", 16, 27, 0x1.254618d41b79bp-31, {0x1.0000000000001p+0, -0x1.0f7c7e323a92cp-3, 0x1.cd1b110d61834p-1, -0x1.7ab2ee5615c7cp-2, 0x1.373a64e9a6f2ap+1}},
    {"ring_shift", 17, 27, 0x1.254618d41b79bp-31, {0x1.081606247f769p+0, -0x1.8c2dac6939b0cp-3, 0x1.024aba6b4f435p+0, -0x1.1b7a44f84feaep-1, 0x1.6ddb548c9c232p+1}},
    {"ring_shift", 18, 27, 0x1.254618d41b79bp-31, {0x1.0000000000002p+0, 0x1.13638585ec7p-1, 0x1.3fc10a471f93fp+0, 0x1.85514adbb687dp+0, 0x1.fc10f620c073ep+1}},
    {"ring_shift", 19, 27, 0x1.254618d41b79bp-31, {0x1.0754d6fbd27cp+0, 0x1.29c5eaffd0de7p-1, 0x1.518accb4713cfp+0, 0x1.b64f9298163ebp+0, 0x1.122e85443ec06p+2}},
    {"ring_shift", 20, 27, 0x1.254618d41b79bp-31, {0x1.0000000000001p+0, -0x1.0f7c7e323a92cp-3}},
    {"ring_shift", 21, 27, 0x1.254618d41b79bp-31, {0x1.081606247f769p+0, -0x1.8c2dac6939b0cp-3}},
    {"ring_shift", 22, 27, 0x1.254618d41b79bp-31, {0x1.0000000000002p+0, 0x1.13638585ec7p-1}},
    {"ring_shift", 23, 27, 0x1.254618d41b79bp-31, {0x1.0754d6fbd27cp+0, 0x1.29c5eaffd0de7p-1}},
    {"degenerate", 0, 0, 0x0p+0, {0x1p+0, 0x0p+0, 0x0p+0, 0x0p+0}},
    {"degenerate", 1, 0, 0x0p+0, {0x1.4p+0, 0x0p+0, 0x0p+0, 0x0p+0}},
    {"degenerate", 2, 0, 0x0p+0, {0x1.fffffffffffffp-1, 0x0p+0, 0x0p+0, 0x0p+0}},
    {"degenerate", 3, 0, 0x0p+0, {0x1.1c3c3c3c3c3c4p+0, 0x0p+0, 0x0p+0, 0x0p+0}},
    {"degenerate", 4, 0, 0x0p+0, {0x1p+0, 0x0p+0}},
    {"degenerate", 5, 0, 0x0p+0, {0x1.4p+0, 0x0p+0}},
    {"degenerate", 6, 0, 0x0p+0, {0x1.fffffffffffffp-1, 0x0p+0}},
    {"degenerate", 7, 0, 0x0p+0, {0x1.1c3c3c3c3c3c4p+0, 0x0p+0}},
    {"degenerate", 8, 0, 0x0p+0, {0x1p+0, -0x1p-3, 0x1.2p-3, -0x1.9p-5}},
    {"degenerate", 9, 0, 0x0p+0, {0x1.4p+0, -0x1.4p-3, 0x1.68p-3, -0x1.f4p-5}},
    {"degenerate", 10, 0, 0x0p+0, {0x1.fffffffffffffp-1, 0x1.0787878787878p-1, 0x1.3f87878787878p-1, 0x1.61e1e1e1e1e1ep-1}},
    {"degenerate", 11, 0, 0x0p+0, {0x1.1c3c3c3c3c3c4p+0, 0x1.225a5a5a5a5a6p-1, 0x1.651e1e1e1e1e2p-1, 0x1.9d10f0f0f0f0fp-1}},
    {"degenerate", 12, 0, 0x0p+0, {0x1p+0, -0x1p-3}},
    {"degenerate", 13, 0, 0x0p+0, {0x1.4p+0, -0x1.4p-3}},
    {"degenerate", 14, 0, 0x0p+0, {0x1.fffffffffffffp-1, 0x1.0787878787878p-1}},
    {"degenerate", 15, 0, 0x0p+0, {0x1.1c3c3c3c3c3c4p+0, 0x1.225a5a5a5a5a6p-1}},
    {"degenerate", 16, 0, 0x0p+0, {0x1p+0, -0x1p-1, 0x1.8p-1, -0x1.cp-1}},
    {"degenerate", 17, 0, 0x0p+0, {0x1.4p+0, -0x1.4p-1, 0x1.ep-1, -0x1.18p+0}},
    {"degenerate", 18, 0, 0x0p+0, {0x1.fffffffffffffp-1, 0x1.0787878787878p+1, 0x1.1696969696969p+3, 0x1.1d0f0f0f0f0f1p+5}},
    {"degenerate", 19, 0, 0x0p+0, {0x1.1c3c3c3c3c3c4p+0, 0x1.225a5a5a5a5a6p+1, 0x1.4069696969697p+3, 0x1.5445a5a5a5a5ap+5}},
    {"degenerate", 20, 0, 0x0p+0, {0x1p+0, -0x1p-1}},
    {"degenerate", 21, 0, 0x0p+0, {0x1.4p+0, -0x1.4p-1}},
    {"degenerate", 22, 0, 0x0p+0, {0x1.fffffffffffffp-1, 0x1.0787878787878p+1}},
    {"degenerate", 23, 0, 0x0p+0, {0x1.1c3c3c3c3c3c4p+0, 0x1.225a5a5a5a5a6p+1}},
};
// clang-format on

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void print_golden(const std::string& name, std::size_t qi,
                  const MomentResult& r) {
  std::printf("    {\"%s\", %zu, %zu, %a, {", name.c_str(), qi,
              r.truncation_point, r.error_bound);
  for (std::size_t j = 0; j < r.weighted.size(); ++j)
    std::printf("%s%a", j == 0 ? "" : ", ", r.weighted[j]);
  std::printf("}},\n");
}

void expect_golden(const Golden& g, const MomentResult& r, const char* path) {
  SCOPED_TRACE(std::string(g.name) + " query " + std::to_string(g.query) +
               " via " + path);
  EXPECT_EQ(r.truncation_point, g.truncation_point);
  EXPECT_TRUE(same_bits(r.error_bound, g.error_bound))
      << r.error_bound << " vs " << g.error_bound;
  ASSERT_EQ(r.weighted.size(), g.weighted.size());
  for (std::size_t j = 0; j < g.weighted.size(); ++j)
    EXPECT_TRUE(same_bits(r.weighted[j], g.weighted[j]))
        << "moment " << j << ": " << r.weighted[j] << " vs " << g.weighted[j];
}

class SessionGoldenTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { linalg::set_num_threads(GetParam()); }
  void TearDown() override { linalg::set_num_threads(0); }
};

TEST_P(SessionGoldenTest, AnswersReproduceCapturedBits) {
  const bool print = std::getenv("SOMRM_GOLDEN_PRINT") != nullptr;
  std::size_t next = 0;
  for (const Case& c : cases()) {
    const std::vector<SessionQuery> qs = queries(c);
    const SolveSession session(c.model, c.times, c.opts,
                               std::make_shared<core::SweepCache>());
    const std::vector<MomentResult> batch = session.query_batch(qs);
    for (std::size_t qi = 0; qi < qs.size(); ++qi) {
      if (print) {
        print_golden(c.name, qi, batch[qi]);
        continue;
      }
      ASSERT_LT(next, kGolden.size()) << "golden table too short";
      const Golden& g = kGolden[next++];
      ASSERT_EQ(std::string(g.name), c.name);
      ASSERT_EQ(g.query, qi);
      expect_golden(g, batch[qi], "query_batch");
      expect_golden(g, session.query(qs[qi]), "query");
    }
  }
  if (!print) {
    EXPECT_EQ(next, kGolden.size()) << "golden table too long";
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SessionGoldenTest,
                         ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace somrm
