// Tests for the batched query engine (core/solve_session.hpp): bit-identity
// of SolveSession batches against independent solver calls across thread
// counts and kernels, SweepCache counters / LRU eviction / request
// coalescing, cross-session cache sharing keyed by model content, t = 0
// through the session path, and query/grid validation.
//
// The bit-identity suite is the acceptance check of the batched engine: a
// 64-query batch mixing default and custom initial vectors, plain and
// terminal-weighted queries, and every order up to the session max must
// reproduce the corresponding independent solve / solve_terminal_weighted
// results EXACTLY (==, not near), at 1, 2, 4 and 8 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/randomization.hpp"
#include "core/solve_session.hpp"
#include "linalg/parallel.hpp"
#include "obs/export.hpp"

namespace somrm {
namespace {

using core::MomentResult;
using core::MomentSolverOptions;
using core::RetainedSweep;
using core::SessionQuery;
using core::SolveSession;
using core::SweepCache;
using linalg::Triplet;
using linalg::Vec;

/// A small irregular chain: ring transitions plus a few chords, drifts of
/// both signs and mixed zero/positive variances, so the shift transform,
/// the second-order term and the Jensen probe all engage.
core::SecondOrderMrm make_model(std::size_t n) {
  std::vector<Triplet> rates;
  for (std::size_t i = 0; i < n; ++i) {
    rates.push_back({i, (i + 1) % n, 1.0 + 0.3 * static_cast<double>(i % 5)});
    if (i % 3 == 0) rates.push_back({i, (i + 2) % n, 0.7});
  }
  Vec drifts(n, 0.0);
  Vec variances(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    drifts[i] = static_cast<double>(i % 4) - 1.0;  // in {-1, 0, 1, 2}
    variances[i] = (i % 2 == 0) ? 0.5 : 0.0;
  }
  return core::SecondOrderMrm(ctmc::Generator::from_rates(n, rates), drifts,
                              variances, linalg::unit_vec(n, 0));
}

/// Deterministic strictly positive distribution, distinct per seed.
Vec make_pi(std::size_t n, std::size_t seed) {
  Vec pi(n, 0.0);
  double total = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    pi[s] = 1.0 + static_cast<double>((seed * 7 + s * 3) % 11);
    total += pi[s];
  }
  for (std::size_t s = 0; s < n; ++s) pi[s] /= total;
  return pi;
}

Vec make_weights(std::size_t n, std::size_t seed) {
  Vec w(n, 0.0);
  for (std::size_t s = 0; s < n; ++s)
    w[s] = static_cast<double>((seed * 5 + s) % 4);  // some zeros, max 3
  return w;
}

/// Exact (bitwise) equality of a session result against the first
/// `order + 1` entries of an independent solve at the session max. Session
/// results carry no per_state; expect_panels_match_solves checks the
/// panels once per sweep.
void expect_bit_identical_prefix(const MomentResult& got,
                                 const MomentResult& want,
                                 std::size_t order) {
  ASSERT_EQ(got.weighted.size(), order + 1);
  EXPECT_TRUE(got.per_state.empty());
  ASSERT_GE(want.weighted.size(), order + 1);
  for (std::size_t j = 0; j <= order; ++j)
    EXPECT_EQ(got.weighted[j], want.weighted[j]) << "moment " << j;
  EXPECT_EQ(got.time, want.time);
  EXPECT_EQ(got.truncation_point, want.truncation_point);
  EXPECT_EQ(got.error_bound, want.error_bound);
}

/// Every sweep the session cached, checked once: finalize_from_sweep's
/// per-state panels at every time point equal solve_multi's (plain sweep)
/// or solve_terminal_weighted's (weighted sweeps, one per vector in
/// @p weights) bit for bit.
void expect_panels_match_solves(const SolveSession& session,
                                const std::vector<Vec>& weights) {
  const core::RandomizationMomentSolver solver(session.model());
  const auto& times = session.times();
  const auto& opts = session.options();
  const auto entries = session.cache()->entries_snapshot();
  ASSERT_EQ(entries.size(), weights.size() + 1);
  for (const auto& [key, sweep] : entries) {
    const Vec* w = nullptr;
    for (const Vec& cand : weights)
      if (key == session.sweep_key(cand)) w = &cand;
    if (w == nullptr) {
      ASSERT_EQ(key, session.sweep_key({}));
    }
    const std::vector<MomentResult> plain =
        w ? std::vector<MomentResult>{} : solver.solve_multi(times, opts);
    for (std::size_t ti = 0; ti < times.size(); ++ti) {
      const MomentResult want =
          w ? solver.solve_terminal_weighted(times[ti], *w, opts) : plain[ti];
      const MomentResult got = core::finalize_from_sweep(
          *sweep, ti, session.model().initial(), opts.max_moment);
      SCOPED_TRACE((w ? "weighted sweep, t index " : "plain sweep, t index ") +
                   std::to_string(ti));
      ASSERT_EQ(got.per_state.size(), want.per_state.size());
      for (std::size_t j = 0; j < want.per_state.size(); ++j)
        EXPECT_EQ(got.per_state[j], want.per_state[j]) << "moment " << j;
      EXPECT_EQ(got.weighted, want.weighted);
    }
  }
}

struct MixedBatch {
  std::vector<SessionQuery> queries;
  std::vector<std::size_t> orders;  // resolved order per query
};

/// 64 queries cycling the time grid and mixing: default pi vs two custom
/// pis, plain vs two distinct terminal-weight vectors, every order 1..max
/// plus the kSessionMax sentinel.
MixedBatch make_mixed_batch(std::size_t n, std::size_t grid_size,
                            std::size_t max_moment) {
  MixedBatch out;
  for (std::size_t i = 0; i < 64; ++i) {
    SessionQuery q;
    q.time_index = i % grid_size;
    if (i % 7 == 0) {
      q.max_moment = SessionQuery::kSessionMax;
      out.orders.push_back(max_moment);
    } else {
      q.max_moment = 1 + i % max_moment;
      out.orders.push_back(q.max_moment);
    }
    if (i % 3 == 1) q.initial = make_pi(n, i % 2);
    if (i % 4 == 1) q.terminal_weights = make_weights(n, 1);
    if (i % 4 == 3) q.terminal_weights = make_weights(n, 2);
    out.queries.push_back(std::move(q));
  }
  return out;
}

void run_batch_vs_independent(core::SweepKernel kernel) {
  const std::size_t n = 24;
  const auto model = make_model(n);
  const std::vector<double> times{0.25, 0.6, 1.1};
  MomentSolverOptions opts;
  opts.max_moment = 4;
  opts.epsilon = 1e-9;
  opts.kernel = kernel;

  const auto batch = make_mixed_batch(n, times.size(), opts.max_moment);
  const SolveSession session(model, times, opts,
                             std::make_shared<SweepCache>());
  const auto results = session.query_batch(batch.queries);
  ASSERT_EQ(results.size(), batch.queries.size());

  for (std::size_t i = 0; i < batch.queries.size(); ++i) {
    const SessionQuery& q = batch.queries[i];
    const auto solver_model =
        q.initial.empty() ? model : model.with_initial(q.initial);
    const core::RandomizationMomentSolver solver(solver_model);
    const double t = times[q.time_index];
    const MomentResult want =
        q.terminal_weights.empty()
            ? solver.solve(t, opts)
            : solver.solve_terminal_weighted(t, q.terminal_weights, opts);
    SCOPED_TRACE("query " + std::to_string(i));
    expect_bit_identical_prefix(results[i], want, batch.orders[i]);
  }

  // 3 distinct weight vectors (none, w1, w2) -> exactly 3 sweeps ran.
  EXPECT_EQ(session.cache_stats().misses, 3u);
  EXPECT_EQ(session.cache_stats().hits, 61u);
  expect_panels_match_solves(session,
                             {make_weights(n, 1), make_weights(n, 2)});
}

class SolveSessionThreadsTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { linalg::set_num_threads(GetParam()); }
  void TearDown() override { linalg::set_num_threads(0); }
};

TEST_P(SolveSessionThreadsTest, BatchOf64BitIdenticalToIndependentSolves) {
  run_batch_vs_independent(core::SweepKernel::kPanel);
}

TEST_P(SolveSessionThreadsTest, LegacyKernelBitIdentical) {
  run_batch_vs_independent(core::SweepKernel::kFusedVectors);
}

INSTANTIATE_TEST_SUITE_P(Threads, SolveSessionThreadsTest,
                         ::testing::Values(1, 2, 4, 8));

// ---------------------------------------------------------------------------
// Cache counters, eviction, sharing
// ---------------------------------------------------------------------------

TEST(SweepCacheTest, CountersTrackHitsMissesAndDistinctWeights) {
  const auto model = make_model(12);
  const std::vector<double> times{0.5, 1.0};
  MomentSolverOptions opts;
  opts.max_moment = 3;
  const auto cache = std::make_shared<SweepCache>();
  const SolveSession session(model, times, opts, cache);

  SessionQuery plain;
  const auto r0 = session.query(plain);
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->stats().hits, 0u);
  EXPECT_EQ(r0.stats.cache_misses, 1u);

  // Same sweep again: a hit, even with a different pi, time and order.
  SessionQuery q2;
  q2.time_index = 1;
  q2.max_moment = 1;
  q2.initial = make_pi(12, 3);
  const auto r2 = session.query(q2);
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->stats().hits, 1u);
  EXPECT_EQ(r2.stats.cache_hits, 1u);

  // A distinct terminal-weight vector needs its own sweep.
  SessionQuery qw;
  qw.terminal_weights = make_weights(12, 1);
  session.query(qw);
  EXPECT_EQ(cache->stats().misses, 2u);
  session.query(qw);
  EXPECT_EQ(cache->stats().hits, 2u);
  EXPECT_EQ(cache->stats().entries, 2u);
  EXPECT_GT(cache->stats().bytes, 0u);
}

TEST(SweepCacheTest, LruEvictionKeepsNewestUnderByteBudget) {
  const auto model = make_model(12);
  const std::vector<double> times{0.5};
  MomentSolverOptions opts;
  opts.max_moment = 2;
  const auto cache = std::make_shared<SweepCache>();
  const SolveSession session(model, times, opts, cache);

  SessionQuery plain;
  session.query(plain);
  const std::size_t one_entry_bytes = cache->stats().bytes;
  ASSERT_GT(one_entry_bytes, 0u);

  // Budget fits exactly one retained sweep: the second (weighted) sweep
  // must evict the first, never itself.
  cache->set_byte_budget(one_entry_bytes);
  SessionQuery qw;
  qw.terminal_weights = make_weights(12, 2);
  session.query(qw);
  EXPECT_EQ(cache->stats().evictions, 1u);
  EXPECT_EQ(cache->stats().entries, 1u);

  // The weighted sweep survived (hit); the plain one recomputes (miss).
  const std::size_t misses_before = cache->stats().misses;
  session.query(qw);
  EXPECT_EQ(cache->stats().misses, misses_before);
  session.query(plain);
  EXPECT_EQ(cache->stats().misses, misses_before + 1);
}

TEST(SweepCacheTest, ConcurrentMissesCoalesceToOneCompute) {
  SweepCache cache;
  std::atomic<int> computes{0};
  std::atomic<bool> release{false};
  const auto compute = [&] {
    ++computes;
    while (!release.load()) std::this_thread::yield();
    return RetainedSweep{};
  };

  SweepCache::EntryPtr a, b;
  std::thread first([&] { a = cache.get_or_compute("k", compute); });
  // Wait until the second caller has actually joined the in-flight compute
  // (its coalesced counter bumps BEFORE it blocks on the shared future),
  // then release; fall back to releasing after 5 s so a bug cannot hang
  // the suite.
  std::thread second;
  while (computes.load() == 0) std::this_thread::yield();
  second = std::thread([&] { b = cache.get_or_compute("k", compute); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (cache.stats().coalesced == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  release = true;
  first.join();
  second.join();

  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().coalesced, 1u);
  EXPECT_EQ(a.get(), b.get());
}

TEST(SweepCacheTest, FailedComputeIsRetryable) {
  SweepCache cache;
  EXPECT_THROW(cache.get_or_compute(
                   "bad", []() -> RetainedSweep {
                     throw std::runtime_error("sweep failed");
                   }),
               std::runtime_error);
  // The key was left uncached; the next call computes successfully.
  const auto entry =
      cache.get_or_compute("bad", [] { return RetainedSweep{}; });
  EXPECT_NE(entry, nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(SolveSessionTest, SessionsShareCacheByModelContentNotObject) {
  const std::vector<double> times{0.5, 1.0};
  MomentSolverOptions opts;
  opts.max_moment = 2;
  const auto cache = std::make_shared<SweepCache>();

  const SolveSession s1(make_model(12), times, opts, cache);
  s1.query(SessionQuery{});
  EXPECT_EQ(cache->stats().misses, 1u);

  // A distinct model OBJECT with bitwise-equal content and a different
  // initial vector shares the entry: the key hashes the generator, drifts
  // and variances only.
  const SolveSession s2(
      make_model(12).with_initial(make_pi(12, 5)), times, opts, cache);
  EXPECT_EQ(s2.base_key(), s1.base_key());
  s2.query(SessionQuery{});
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->stats().hits, 1u);

  // Perturbing one drift changes the content hash -> fresh sweep.
  auto other = make_model(12);
  Vec drifts = other.drifts();
  drifts[3] += 0.125;
  const SolveSession s3(
      core::SecondOrderMrm(other.generator(), drifts, other.variances(),
                           other.initial()),
      times, opts, cache);
  EXPECT_NE(s3.base_key(), s1.base_key());
  s3.query(SessionQuery{});
  EXPECT_EQ(cache->stats().misses, 2u);
}

// ---------------------------------------------------------------------------
// t = 0 through the session path
// ---------------------------------------------------------------------------

TEST(SolveSessionTest, TimeZeroOnGridIsExact) {
  const auto model = make_model(10);
  const std::vector<double> times{0.0, 0.5};
  MomentSolverOptions opts;
  opts.max_moment = 3;
  const SolveSession session(model, times, opts,
                             std::make_shared<SweepCache>());

  SessionQuery q0;  // default pi = unit vector -> exact values
  const auto r = session.query(q0);
  EXPECT_EQ(r.time, 0.0);
  EXPECT_EQ(r.weighted[0], 1.0);
  for (std::size_t j = 1; j <= 3; ++j)
    EXPECT_EQ(r.weighted[j], 0.0) << "moment " << j;

  // And bit-identical to the independent t = 0 solve, weighted included.
  const core::RandomizationMomentSolver solver(model);
  expect_bit_identical_prefix(r, solver.solve(0.0, opts), 3);

  SessionQuery qw;
  qw.terminal_weights = make_weights(10, 1);
  const auto rw = session.query(qw);
  expect_bit_identical_prefix(
      rw, solver.solve_terminal_weighted(0.0, qw.terminal_weights, opts), 3);
  expect_panels_match_solves(session, {qw.terminal_weights});
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

TEST(SolveSessionTest, RejectsInvalidQueries) {
  const auto model = make_model(8);
  const SolveSession session(model, {0.5, 1.0}, {},
                             std::make_shared<SweepCache>());

  SessionQuery bad_time;
  bad_time.time_index = 2;
  EXPECT_THROW(session.query(bad_time), std::invalid_argument);

  SessionQuery bad_order;
  bad_order.max_moment = session.options().max_moment + 1;
  EXPECT_THROW(session.query(bad_order), std::invalid_argument);

  SessionQuery bad_pi_size;
  bad_pi_size.initial = Vec(7, 1.0 / 7.0);
  EXPECT_THROW(session.query(bad_pi_size), std::invalid_argument);

  SessionQuery bad_pi_negative;
  bad_pi_negative.initial = Vec(8, 0.25);
  bad_pi_negative.initial[0] = -0.5;
  bad_pi_negative.initial[1] = 0.0;  // sums to 1, one negative entry
  EXPECT_THROW(session.query(bad_pi_negative), std::invalid_argument);

  SessionQuery bad_pi_sum;
  bad_pi_sum.initial = Vec(8, 0.25);  // sums to 2
  EXPECT_THROW(session.query(bad_pi_sum), std::invalid_argument);

  // Non-finite entries are named, with the session's prefix.
  for (const auto& [value, message] :
       {std::pair{std::numeric_limits<double>::quiet_NaN(),
                  "SolveSession: query initial probability 3 is NaN"},
        std::pair{std::numeric_limits<double>::infinity(),
                  "SolveSession: query initial probability 3 is +inf"},
        std::pair{-std::numeric_limits<double>::infinity(),
                  "SolveSession: query initial probability 3 is -inf"}}) {
    SessionQuery bad_pi;
    bad_pi.initial = Vec(8, 0.125);
    bad_pi.initial[3] = value;
    try {
      session.query(bad_pi);
      ADD_FAILURE() << "accepted: " << message;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
    EXPECT_THROW(session.admit(bad_pi), std::invalid_argument);
  }

  SessionQuery bad_w_negative;
  bad_w_negative.terminal_weights = Vec(8, 1.0);
  bad_w_negative.terminal_weights[2] = -1.0;
  EXPECT_THROW(session.query(bad_w_negative), std::invalid_argument);

  SessionQuery bad_w_zero;
  bad_w_zero.terminal_weights = Vec(8, 0.0);
  EXPECT_THROW(session.query(bad_w_zero), std::invalid_argument);
}

TEST(SolveSessionTest, RejectsDuplicateOrUnsortedTimeGrid) {
  const auto model = make_model(8);
  EXPECT_THROW(SolveSession(model, {0.5, 0.5}, {}), std::invalid_argument);
  EXPECT_THROW(SolveSession(model, {1.0, 0.5}, {}), std::invalid_argument);
  try {
    const SolveSession s(model, {0.25, 0.25}, {});
    FAIL() << "duplicate grid accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate time point"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Per-query observability: SessionReport records and attribution
// ---------------------------------------------------------------------------

TEST(SessionReportTest, RecordsCarryMonotonicIdsAndCacheAttribution) {
  const auto model = make_model(12);
  const std::vector<double> times{0.5, 1.0};
  MomentSolverOptions opts;
  opts.max_moment = 3;
  const SolveSession session(model, times, opts,
                             std::make_shared<SweepCache>());

  // miss (first plain sweep), hit, hit (same sweep), miss (new weights).
  SessionQuery plain;
  session.query(plain);
  SessionQuery q2;
  q2.time_index = 1;
  q2.max_moment = 1;
  session.query(q2);
  session.query(plain);
  SessionQuery qw;
  qw.terminal_weights = make_weights(12, 1);
  session.query(qw);

  const core::SessionReport rep = session.report();
  EXPECT_EQ(rep.queries, 4u);
  EXPECT_EQ(rep.dropped_records, 0u);
  ASSERT_EQ(rep.records.size(), 4u);

  // Process-wide IDs: strictly increasing within the session, all >= 1.
  EXPECT_GE(rep.records[0].query_id, 1u);
  for (std::size_t i = 1; i < rep.records.size(); ++i)
    EXPECT_GT(rep.records[i].query_id, rep.records[i - 1].query_id) << i;

  EXPECT_EQ(rep.records[0].cache_outcome, SweepCache::Outcome::kMiss);
  EXPECT_EQ(rep.records[1].cache_outcome, SweepCache::Outcome::kHit);
  EXPECT_EQ(rep.records[2].cache_outcome, SweepCache::Outcome::kHit);
  EXPECT_EQ(rep.records[3].cache_outcome, SweepCache::Outcome::kMiss);
  EXPECT_EQ(rep.cache.misses, 2u);
  EXPECT_EQ(rep.cache.hits, 2u);

  // Resolved orders and grid indices round-trip into the records.
  EXPECT_EQ(rep.records[0].max_moment, opts.max_moment);  // kSessionMax
  EXPECT_EQ(rep.records[1].max_moment, 1u);
  EXPECT_EQ(rep.records[1].time_index, 1u);

  // The plain queries share one sweep key; the weighted one differs.
  for (const core::QueryRecord& r : rep.records)
    EXPECT_FALSE(r.sweep_key.empty()) << "query_id " << r.query_id;
  EXPECT_EQ(rep.records[0].sweep_key, rep.records[1].sweep_key);
  EXPECT_EQ(rep.records[0].sweep_key, rep.records[2].sweep_key);
  EXPECT_NE(rep.records[0].sweep_key, rep.records[3].sweep_key);

  if (obs::kEnabled) {
    for (const core::QueryRecord& r : rep.records) {
      EXPECT_GT(r.latency_ns, 0) << "query_id " << r.query_id;
      EXPECT_GE(r.latency_ns, r.finalize_ns) << "query_id " << r.query_id;
    }
    // Exact order statistics over 4 records: p50 is the 2nd smallest,
    // p90/p99/p999 the largest.
    std::vector<std::int64_t> lat;
    for (const core::QueryRecord& r : rep.records)
      lat.push_back(r.latency_ns);
    std::sort(lat.begin(), lat.end());
    EXPECT_EQ(rep.latency_p50_ns, lat[1]);
    EXPECT_EQ(rep.latency_p90_ns, lat[3]);
    EXPECT_EQ(rep.latency_p99_ns, lat[3]);
    EXPECT_EQ(rep.latency_p999_ns, lat[3]);
  } else {
    for (const core::QueryRecord& r : rep.records) {
      EXPECT_EQ(r.latency_ns, 0);
      EXPECT_EQ(r.finalize_ns, 0);
    }
    EXPECT_EQ(rep.latency_p50_ns, 0);
  }
}

TEST(SessionReportTest, BatchRecordsEveryQueryInOrder) {
  const std::size_t n = 24;
  const auto model = make_model(n);
  const std::vector<double> times{0.25, 0.6, 1.1};
  MomentSolverOptions opts;
  opts.max_moment = 4;
  const auto batch = make_mixed_batch(n, times.size(), opts.max_moment);
  const SolveSession session(model, times, opts,
                             std::make_shared<SweepCache>());
  session.query_batch(batch.queries);

  const core::SessionReport rep = session.report();
  EXPECT_EQ(rep.queries, batch.queries.size());
  ASSERT_EQ(rep.records.size(), batch.queries.size());
  std::size_t misses = 0;
  for (std::size_t i = 0; i < rep.records.size(); ++i) {
    EXPECT_EQ(rep.records[i].time_index, batch.queries[i].time_index) << i;
    EXPECT_EQ(rep.records[i].max_moment, batch.orders[i]) << i;
    if (rep.records[i].cache_outcome != SweepCache::Outcome::kHit) ++misses;
  }
  // 3 distinct weight vectors -> exactly 3 non-hit (miss) records.
  EXPECT_EQ(misses, 3u);
}

TEST(SessionReportTest, EmptySessionReportsZeroes) {
  const auto model = make_model(8);
  const SolveSession session(model, {0.5}, {}, std::make_shared<SweepCache>());
  const core::SessionReport rep = session.report();
  EXPECT_EQ(rep.queries, 0u);
  EXPECT_TRUE(rep.records.empty());
  EXPECT_EQ(rep.dropped_records, 0u);
  EXPECT_EQ(rep.latency_p50_ns, 0);
  EXPECT_EQ(rep.latency_p999_ns, 0);
}

TEST(SessionReportTest, QueryResultsBitIdenticalWithMetricsExportEnabled) {
  // The observability path (records, histograms, gauges, export) must not
  // perturb the numeric data flow: EXPECT_EQ, not near.
  const std::size_t n = 16;
  const auto model = make_model(n);
  const std::vector<double> times{0.5, 1.0};
  MomentSolverOptions opts;
  opts.max_moment = 3;

  obs::set_metrics_path("");
  const SolveSession s_plain(model, times, opts,
                             std::make_shared<SweepCache>());
  SessionQuery q;
  q.time_index = 1;
  const MomentResult plain = s_plain.query(q);

  const std::string path = ::testing::TempDir() + "somrm_session_bitident.prom";
  obs::set_metrics_path(path);
  const SolveSession s_metered(model, times, opts,
                               std::make_shared<SweepCache>());
  const MomentResult metered = s_metered.query(q);
  obs::write_metrics();
  obs::set_metrics_path("");
  std::remove(path.c_str());

  ASSERT_EQ(plain.weighted.size(), metered.weighted.size());
  for (std::size_t j = 0; j < plain.weighted.size(); ++j)
    EXPECT_EQ(plain.weighted[j], metered.weighted[j]) << "moment " << j;
}

// ---------------------------------------------------------------------------
// Admission: validate and key once, answer without re-checking
// ---------------------------------------------------------------------------

TEST(AdmittedQueryTest, AnswerMatchesQueryBatchBitForBit) {
  const std::size_t n = 24;
  const std::vector<double> times{0.25, 0.6, 1.1};
  MomentSolverOptions opts;
  opts.max_moment = 4;
  const auto batch = make_mixed_batch(n, times.size(), opts.max_moment);
  const SolveSession session(make_model(n), times, opts,
                             std::make_shared<SweepCache>());

  std::vector<core::AdmittedQuery> admitted;
  for (const SessionQuery& q : batch.queries) {
    admitted.push_back(session.admit(q));
    EXPECT_EQ(admitted.back().sweep_key(), session.sweep_key(q.terminal_weights));
    EXPECT_EQ(admitted.back().order(), batch.orders[admitted.size() - 1]);
  }
  std::vector<core::QueryRecord> records;
  const auto answered = session.answer(admitted, &records);
  const auto direct = session.query_batch(batch.queries);
  ASSERT_EQ(answered.size(), direct.size());
  ASSERT_EQ(records.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    expect_bit_identical_prefix(answered[i], direct[i], batch.orders[i]);
    EXPECT_EQ(records[i].sweep_key, admitted[i].sweep_key());
  }
}

TEST(AdmittedQueryTest, AdmitValidatesAndAnswerRefusesForeignAdmissions) {
  const SolveSession session(make_model(8), {0.5, 1.0}, {},
                             std::make_shared<SweepCache>());
  SessionQuery bad;
  bad.time_index = 2;
  EXPECT_THROW(session.admit(bad), std::invalid_argument);

  // Same states and grid, different drifts: another model, another key.
  auto model = make_model(8);
  Vec drifts = model.drifts();
  drifts[0] += 1.0;
  const SolveSession other(
      core::SecondOrderMrm(model.generator(), drifts, model.variances(),
                           model.initial()),
      {0.5, 1.0}, {}, std::make_shared<SweepCache>());
  const std::vector<core::AdmittedQuery> foreign{other.admit(SessionQuery{})};
  EXPECT_THROW(session.answer(foreign, nullptr), std::invalid_argument);
  EXPECT_EQ(session.cache_stats().misses, 0u);
}

}  // namespace
}  // namespace somrm
