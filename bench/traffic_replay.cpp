// Traffic replay: ~10^6 synthetic queries from many client threads against
// one model, served by the concurrent serve::ServeEngine (key-grouped
// batching over a shared SolveSession), self-checked for bit-identity
// against synchronous SolveSession::query_batch results computed on an
// INDEPENDENT session and cache.
//
// Query mix (deterministic, fixed-seed): the distinct-combination table is
// the cross product of the 5-point time grid, a moment-order mix (session
// max and max-1), --distinct-pi initial vectors, and {plain} union
// --weight-classes terminal-weight vectors. Query i replays combo
// i % combos — the heavy serving shape where millions of requests hash to
// a few hundred distinct (time, order, pi, w) combinations but arrive
// interleaved from every client.
//
// Self-check: the reference result for every combo is computed ONCE by a
// synchronous query_batch on a session that shares nothing with the
// engine. Every replayed query's weighted moments / truncation point /
// error bound must equal its combo's reference exactly. Served results
// carry no per_state, so the full per-state panels are checked once per
// combo at the end of a phase: finalize_from_sweep on the sweep the
// engine's cache holds must equal the same call on the reference
// session's sweep. Any mismatch makes the bench exit non-zero.
//
// Latency is reported twice: the engine's total_ns (submit -> results
// ready on the worker) and the client-observed time from submit until
// .get() returns, which adds delivery and the client's own scheduling.
//
// Warm restart: with --snapshot <path>, the cold phase saves the sweep
// cache on completion, then a SECOND engine + session + cache (a
// simulated process restart) reloads it and replays --warm-queries
// queries. The warm phase must finish with ZERO cache misses and >= 1 hit
// — the snapshot served every query with no sweep run — and its results
// are checked against the same references, which pins the snapshot
// round-trip bit-exactness end to end.
//
// Flags: --states N (default 50000), --queries Q (default 1000000),
// --clients C (default 8), --workers W (engine workers, default
// max(2, C/4)), --moments n (default 4), --epsilon, --window-us (batching
// window, default 200), --max-queue (default 1024), --outstanding
// (pipelined submits per client, default 16), --distinct-pi (default 8),
// --weight-classes (default 2), --snapshot path (enables the warm phase),
// --warm-queries (default min(Q, 10 * combos)), --json / --json-append
// (BenchRecords traffic_replay_cold / traffic_replay_warm carrying
// latency_p50_ms / latency_p99_ms / qps / clients), --metrics-out.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/scaling.hpp"
#include "core/solve_session.hpp"
#include "linalg/parallel.hpp"
#include "linalg/vec.hpp"
#include "models/onoff.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "prob/rng.hpp"
#include "serve/engine.hpp"
#include "serve/snapshot.hpp"

namespace {

using somrm::core::MomentResult;
using somrm::core::SessionQuery;

/// K distinct strictly-positive probability vectors, deterministic across
/// runs (same generator discipline as batched_queries).
std::vector<somrm::linalg::Vec> make_initials(std::size_t k,
                                              std::size_t num_states) {
  somrm::prob::Rng rng(20260806);
  std::vector<somrm::linalg::Vec> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    somrm::linalg::Vec pi(num_states, 0.0);
    for (std::size_t s = 0; s < num_states; ++s)
      pi[s] = rng.uniform01() + 1e-6;
    somrm::linalg::normalize_probability(pi);
    out.push_back(std::move(pi));
  }
  return out;
}

/// K distinct non-negative terminal-weight vectors with max > 0.
std::vector<somrm::linalg::Vec> make_weight_classes(std::size_t k,
                                                    std::size_t num_states) {
  somrm::prob::Rng rng(20260807);
  std::vector<somrm::linalg::Vec> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    somrm::linalg::Vec w(num_states, 0.0);
    for (std::size_t s = 0; s < num_states; ++s)
      w[s] = rng.uniform01() + 0.5;
    out.push_back(std::move(w));
  }
  return out;
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-query check: the pi-contracted moments plus the sweep attribution
/// fields.
bool weighted_identical(const MomentResult& a, const MomentResult& b) {
  return a.weighted == b.weighted &&
         a.truncation_point == b.truncation_point &&
         a.error_bound == b.error_bound;
}

/// Full per-state check, once per combo: finalize_from_sweep on the sweep
/// @p served's cache holds for the combo's key against the same call on
/// @p ref's sweep. A combo whose sweep is missing from either cache counts
/// as a mismatch. Returns the number of mismatching combos.
std::size_t panel_mismatches(const somrm::core::SolveSession& served,
                             const somrm::core::SolveSession& ref,
                             const std::vector<SessionQuery>& combos) {
  const auto by_key = [](const somrm::core::SolveSession& s) {
    std::map<std::string, somrm::core::SweepCache::EntryPtr> out;
    for (auto& [key, entry] : s.cache()->entries_snapshot())
      out.emplace(key, entry);
    return out;
  };
  const auto served_sweeps = by_key(served);
  const auto ref_sweeps = by_key(ref);
  std::size_t mismatches = 0;
  for (const SessionQuery& q : combos) {
    const std::string key = served.sweep_key(q.terminal_weights);
    const auto a = served_sweeps.find(key);
    const auto b = ref_sweeps.find(key);
    if (a == served_sweeps.end() || b == ref_sweeps.end()) {
      ++mismatches;
      continue;
    }
    const MomentResult x = somrm::core::finalize_from_sweep(
        *a->second, q.time_index, q.initial, q.max_moment);
    const MomentResult y = somrm::core::finalize_from_sweep(
        *b->second, q.time_index, q.initial, q.max_moment);
    if (!weighted_identical(x, y) || x.per_state != y.per_state) ++mismatches;
  }
  return mismatches;
}

std::int64_t exact_quantile(const std::vector<std::int64_t>& sorted,
                            double q) {
  if (sorted.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::max<std::size_t>(rank, 1);
  rank = std::min(rank, sorted.size());
  return sorted[rank - 1];
}

struct PhaseOutcome {
  double wall_s = 0.0;
  double p50_ms = 0.0;  ///< engine total_ns
  double p99_ms = 0.0;
  double client_p50_ms = 0.0;  ///< submit -> .get() returned
  double client_p99_ms = 0.0;
  double qps = 0.0;
  std::uint64_t rejected = 0;
  std::uint64_t mismatches = 0;
  somrm::core::SweepCacheStats cache;
  somrm::serve::ServeEngineStats engine;
};

/// Replays @p total queries (combo i % combos.size()) through @p engine
/// from @p clients threads, each pipelining up to @p outstanding submits.
/// Every completed result is weighted-checked against its reference.
PhaseOutcome run_phase(somrm::serve::ServeEngine& engine,
                       const std::vector<SessionQuery>& combos,
                       const std::vector<MomentResult>& refs,
                       std::size_t total, std::size_t clients,
                       std::size_t outstanding) {
  struct InFlight {
    std::size_t idx;
    std::int64_t submit_ns;
    std::future<somrm::serve::ServeResult> result;
  };
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> rejected{0};
  std::vector<std::vector<std::int64_t>> lat(clients);
  std::vector<std::vector<std::int64_t>> client_lat(clients);

  const auto client = [&](std::size_t c) {
    std::deque<InFlight> inflight;
    std::vector<std::int64_t>& my_lat = lat[c];
    std::vector<std::int64_t>& my_client_lat = client_lat[c];
    const auto drain_oldest = [&] {
      InFlight f = std::move(inflight.front());
      inflight.pop_front();
      const somrm::serve::ServeResult r = f.result.get();
      my_client_lat.push_back(steady_now_ns() - f.submit_ns);
      my_lat.push_back(r.total_ns);
      if (!weighted_identical(r.result, refs[f.idx % combos.size()]))
        mismatches.fetch_add(1, std::memory_order_relaxed);
    };
    for (std::size_t i = c; i < total; i += clients) {
      for (;;) {
        try {
          const std::int64_t t0 = steady_now_ns();
          inflight.push_back({i, t0, engine.submit(combos[i % combos.size()])});
          break;
        } catch (const somrm::serve::RejectedError&) {
          // Admission control pushed back: free a slot (or yield when we
          // have none in flight) and retry — clients own backpressure.
          rejected.fetch_add(1, std::memory_order_relaxed);
          if (!inflight.empty())
            drain_oldest();
          else
            std::this_thread::yield();
        }
      }
      if (inflight.size() >= outstanding) drain_oldest();
    }
    while (!inflight.empty()) drain_oldest();
  };

  somrm::bench::Stopwatch sw;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();

  PhaseOutcome out;
  out.wall_s = sw.seconds();
  out.rejected = rejected.load();
  out.mismatches = mismatches.load();
  const auto merged_ms = [total](const std::vector<std::vector<std::int64_t>>&
                                     per_client,
                                 double& p50, double& p99) {
    std::vector<std::int64_t> merged;
    merged.reserve(total);
    for (const auto& v : per_client)
      merged.insert(merged.end(), v.begin(), v.end());
    std::sort(merged.begin(), merged.end());
    p50 = static_cast<double>(exact_quantile(merged, 0.50)) * 1e-6;
    p99 = static_cast<double>(exact_quantile(merged, 0.99)) * 1e-6;
  };
  merged_ms(lat, out.p50_ms, out.p99_ms);
  merged_ms(client_lat, out.client_p50_ms, out.client_p99_ms);
  out.qps = out.wall_s > 0.0 ? static_cast<double>(total) / out.wall_s : 0.0;
  out.cache = engine.session()->cache_stats();
  out.engine = engine.stats();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace somrm;

  bench::print_header("traffic_replay",
                      "concurrent serving engine under synthetic traffic: "
                      "key-grouped batching, admission control, snapshots");

  models::OnOffMultiplexerParams params = models::table2_params();
  params.num_sources = bench::arg_size(argc, argv, "--states", 50000);
  params.capacity = static_cast<double>(params.num_sources);
  const std::size_t total = bench::arg_size(argc, argv, "--queries", 1000000);
  const std::size_t clients = bench::arg_size(argc, argv, "--clients", 8);
  const std::size_t n = bench::arg_size(argc, argv, "--moments", 4);
  const double eps = bench::arg_double(argc, argv, "--epsilon", 1e-9);
  const std::size_t distinct_pi =
      bench::arg_size(argc, argv, "--distinct-pi", 8);
  const std::size_t weight_classes =
      bench::arg_size(argc, argv, "--weight-classes", 2);
  const std::size_t outstanding =
      std::max<std::size_t>(1, bench::arg_size(argc, argv, "--outstanding", 16));
  const std::string snapshot_path =
      bench::arg_string(argc, argv, "--snapshot", "");
  if (clients == 0 || total == 0 || distinct_pi == 0) {
    std::fprintf(stderr, "--clients, --queries, --distinct-pi must be >= 1\n");
    return 2;
  }

  serve::ServeEngineOptions eopts;
  eopts.num_workers = bench::arg_size(argc, argv, "--workers",
                                      std::max<std::size_t>(2, clients / 4));
  eopts.max_queue = bench::arg_size(argc, argv, "--max-queue", 1024);
  eopts.batch_window_ns =
      static_cast<std::int64_t>(bench::arg_size(argc, argv, "--window-us",
                                                200)) *
      1000;

  bench::Stopwatch sw_build;
  const auto model = models::make_onoff_multiplexer(params);
  const auto scaled = core::scale_model(model);
  std::printf("# N = %zu sources (%zu states), q = %s, build %.2f s\n",
              params.num_sources, model.num_states(),
              bench::fmt(scaled.q, 8).c_str(), sw_build.seconds());

  const std::vector<double> times{0.01, 0.02, 0.03, 0.04, 0.05};
  core::MomentSolverOptions opts;
  opts.max_moment = n;
  opts.epsilon = eps;

  // Distinct-combination table: time x order-mix x pi x (plain + weight
  // classes), flattened in a fixed order so query i -> combo i % combos.
  const auto initials = make_initials(distinct_pi, model.num_states());
  const auto weights = make_weight_classes(weight_classes, model.num_states());
  const std::vector<std::size_t> orders =
      n > 1 ? std::vector<std::size_t>{n, n - 1} : std::vector<std::size_t>{n};
  std::vector<SessionQuery> combos;
  combos.reserve(times.size() * orders.size() * distinct_pi *
                 (1 + weight_classes));
  for (std::size_t ti = 0; ti < times.size(); ++ti)
    for (std::size_t order : orders)
      for (std::size_t p = 0; p < distinct_pi; ++p)
        for (std::size_t w = 0; w <= weight_classes; ++w) {
          SessionQuery q;
          q.time_index = ti;
          q.max_moment = order;
          q.initial = initials[p];
          if (w > 0) q.terminal_weights = weights[w - 1];
          combos.push_back(std::move(q));
        }
  std::printf("# %zu queries over %zu distinct combos, %zu clients, "
              "%zu workers, window %lld us, queue bound %zu\n",
              total, combos.size(), clients, eopts.num_workers,
              static_cast<long long>(eopts.batch_window_ns / 1000),
              eopts.max_queue);

  // References: synchronous query_batch on a session + cache the engine
  // never touches. This is the ground truth every replayed query is
  // checked against.
  bench::Stopwatch sw_ref;
  const core::SolveSession ref_session(model, times, opts,
                                       std::make_shared<core::SweepCache>());
  const std::vector<MomentResult> refs = ref_session.query_batch(combos);
  std::printf("# references: %zu synchronous results in %.2f s\n",
              refs.size(), sw_ref.seconds());

  // ---- cold phase ----
  auto cold_session = std::make_shared<core::SolveSession>(
      model, times, opts, std::make_shared<core::SweepCache>());
  serve::ServeEngineOptions cold_opts = eopts;  // no snapshot: cold by design
  auto cold_engine =
      std::make_unique<serve::ServeEngine>(cold_session, cold_opts);
  const PhaseOutcome cold = run_phase(*cold_engine, combos, refs, total,
                                      clients, outstanding);
  const std::size_t full_mismatches =
      panel_mismatches(*cold_session, ref_session, combos);
  std::printf("# cold: %.2f s wall, p50 %.3f ms, p99 %.3f ms (client p50 "
              "%.3f ms, p99 %.3f ms), %.0f q/s; %llu batches (largest %zu), "
              "%llu rejected; cache %zu miss / %zu hit / %zu coalesced; "
              "mismatches %llu+%zu\n",
              cold.wall_s, cold.p50_ms, cold.p99_ms, cold.client_p50_ms,
              cold.client_p99_ms, cold.qps,
              static_cast<unsigned long long>(cold.engine.batches),
              cold.engine.largest_batch,
              static_cast<unsigned long long>(cold.rejected),
              cold.cache.misses, cold.cache.hits, cold.cache.coalesced,
              static_cast<unsigned long long>(cold.mismatches),
              full_mismatches);

  bool failed = cold.mismatches > 0 || full_mismatches > 0;

  // ---- warm phase (simulated restart) ----
  PhaseOutcome warm;
  bool ran_warm = false;
  if (!snapshot_path.empty()) {
    cold_engine->stop();
    {
      serve::ServeEngineOptions save_opts = cold_opts;
      save_opts.snapshot_path = snapshot_path;
      // Borrow the engine's save path without re-running: persist the cold
      // session's cache directly.
      const std::size_t saved =
          serve::save_snapshot(*cold_session->cache(), snapshot_path);
      std::printf("# snapshot: %zu sweep(s) -> %s\n", saved,
                  snapshot_path.c_str());
    }
    cold_engine.reset();

    const std::size_t warm_total = [&] {
      const std::size_t flag =
          bench::arg_size(argc, argv, "--warm-queries", 0);
      if (flag != 0) return flag;
      return std::min(total, 10 * combos.size());
    }();
    auto warm_session = std::make_shared<core::SolveSession>(
        model, times, opts, std::make_shared<core::SweepCache>());
    serve::ServeEngineOptions warm_opts = eopts;
    warm_opts.snapshot_path = snapshot_path;
    serve::ServeEngine warm_engine(warm_session, warm_opts);
    const core::SweepCacheStats preload = warm_session->cache_stats();
    std::printf("# warm start: %zu sweep(s) reloaded\n", preload.entries);

    warm = run_phase(warm_engine, combos, refs, warm_total, clients,
                     outstanding);
    ran_warm = true;
    const std::size_t warm_full =
        panel_mismatches(*warm_session, ref_session, combos);
    std::printf("# warm: %zu queries, %.2f s wall, p50 %.3f ms, p99 %.3f "
                "ms (client p50 %.3f ms, p99 %.3f ms), %.0f q/s; cache %zu "
                "miss / %zu hit; mismatches %llu+%zu\n",
                warm_total, warm.wall_s, warm.p50_ms, warm.p99_ms,
                warm.client_p50_ms, warm.client_p99_ms, warm.qps,
                warm.cache.misses, warm.cache.hits,
                static_cast<unsigned long long>(warm.mismatches), warm_full);
    // The warm contract: every query served from the reloaded snapshot —
    // at least one hit happened before (and instead of) any sweep.
    if (warm.cache.misses != 0 || warm.cache.hits == 0) {
      std::printf("# FAILED: warm phase ran %zu sweep(s) (%zu hits) — "
                  "snapshot did not serve the restart\n",
                  warm.cache.misses, warm.cache.hits);
      failed = true;
    }
    if (warm.mismatches > 0 || warm_full > 0) failed = true;
  }

  bench::print_row({"phase", "queries", "wall_s", "p50_ms", "p99_ms",
                    "client_p50_ms", "client_p99_ms", "qps"});
  const auto print_phase = [](const char* name, std::size_t queries,
                              const PhaseOutcome& ph) {
    bench::print_row({name, std::to_string(queries), bench::fmt(ph.wall_s, 6),
                      bench::fmt(ph.p50_ms, 6), bench::fmt(ph.p99_ms, 6),
                      bench::fmt(ph.client_p50_ms, 6),
                      bench::fmt(ph.client_p99_ms, 6), bench::fmt(ph.qps, 8)});
  };
  print_phase("cold", total, cold);
  if (ran_warm) print_phase("warm", warm.engine.submitted, warm);

  const std::string append_path =
      bench::arg_string(argc, argv, "--json-append", "");
  bench::JsonWriter writer(
      !append_path.empty() ? append_path
                           : bench::arg_string(argc, argv, "--json", ""),
      /*append=*/!append_path.empty());
  const auto make_record = [&](const char* name, const PhaseOutcome& ph,
                               std::size_t queries) {
    bench::BenchRecord rec{};
    rec.bench = name;
    rec.states = model.num_states();
    rec.threads = linalg::num_threads();
    rec.wall_s = ph.wall_s;
    rec.moments = n;
    bench::fill_from_stats(rec, refs.back().stats);
    rec.cache_hits = ph.cache.hits;
    rec.cache_misses = ph.cache.misses;
    rec.cache_evictions = ph.cache.evictions;
    rec.cache_coalesced = ph.cache.coalesced;
    rec.latency_p50_ms = ph.p50_ms;
    rec.latency_p99_ms = ph.p99_ms;
    rec.qps = ph.qps;
    rec.clients = clients;
    (void)queries;
    return rec;
  };
  writer.add(make_record("traffic_replay_cold", cold, total));
  if (ran_warm)
    writer.add(make_record("traffic_replay_warm", warm,
                           warm.engine.submitted));
  writer.write();

  const std::string metrics_out =
      bench::arg_string(argc, argv, "--metrics-out", "");
  if (!metrics_out.empty()) {
    obs::set_metrics_path(metrics_out);
    obs::write_metrics();
  }

  if (failed) {
    std::printf("# FAILED: replay diverged from synchronous query_batch\n");
    return 1;
  }
  std::printf("# bit-identical to synchronous query_batch: yes\n");
  return 0;
}
