// somrm_bench/load.hpp
//
// Load generation against serve::ServeEngine, from inside one process.
//
//  * Open loop: one generator thread submits (callback flavour) on a
//    precomputed arrival schedule whatever the engine's state, so a stall
//    queues later queries. Latency runs from the SCHEDULED send time to the
//    callback, which charges a stall to every query it delays; how late the
//    generator itself ran is reported separately.
//  * Closed loop: kClients threads, each keeping kOutstanding futures in
//    flight and sending the next query only when its oldest one returns —
//    the engine's saturation throughput.
//
// Every completed query is checked bit for bit against its reference
// answer; a rejected, failed or wrong query is a failure and, in the
// latency samples, an infinitely slow query.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/solve_session.hpp"
#include "serve/engine.hpp"

namespace somrm_bench {

inline constexpr std::size_t kClients = 2;
inline constexpr std::size_t kOutstanding = 16;

/// The fields of a query's result the benchmark checks. MomentResult's
/// per-state panel is deliberately not among them.
struct Answer {
  std::vector<double> weighted;
  std::size_t truncation_point = 0;
  double error_bound = 0.0;
};

Answer answer_of(const somrm::core::MomentResult& result);

/// True when @p got carries exactly @p ref's bits and its error bound is
/// within @p epsilon.
bool matches(const somrm::core::MomentResult& got, const Answer& ref,
             double epsilon);

/// The queries a load may send and their reference answers. Queries
/// [0, hot) are the hot mix; [hot, size) carry fresh terminal weights and
/// are cache misses the first time they are sent.
struct QueryTable {
  std::vector<somrm::core::SessionQuery> queries;
  std::vector<Answer> answers;
  std::size_t hot = 0;
};

/// One scheduled send: offset from the phase start, and the query index.
struct Arrival {
  std::int64_t at_ns = 0;
  std::uint32_t query = 0;
};

/// Poisson arrivals at @p rate per second over @p seconds, each a hot
/// query drawn uniformly, merged with @p churn (already sorted).
std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate,
                                      double seconds, std::size_t hot,
                                      const std::vector<Arrival>& churn);

/// Per-query samples of one phase. Times "at" are offsets from the phase
/// start; latencies of failed queries are INT64_MAX. The layer samples
/// (microseconds) cover completed hot queries and come from the engine's
/// own timing fields.
struct PhaseResult {
  std::vector<std::int64_t> hot_latency_ns;
  std::vector<std::int64_t> hot_at_ns;  ///< scheduled (open) / sent (closed)
  std::vector<std::int64_t> churn_latency_ns;
  std::vector<std::int64_t> done_at_ns;  ///< every correct completion
  std::vector<std::int64_t> late_ns;     ///< open loop: send - scheduled
  std::uint64_t attempted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;      ///< engine errors and lost completions
  std::uint64_t mismatched = 0;  ///< wrong bits or error bound above ε
  double window_s = 0.0;         ///< the phase's sending window
  double drain_s = 0.0;  ///< last completion - end of the window
  std::vector<double> submit_us, queue_us, exec_us, deliver_us, batch_size;

  std::uint64_t failures() const { return rejected + failed + mismatched; }
};

/// @p arrivals must lie within [0, @p seconds).
PhaseResult run_open_loop(somrm::serve::ServeEngine& engine,
                          const QueryTable& table,
                          const std::vector<Arrival>& arrivals,
                          double seconds, double epsilon);

/// @p churn (client 0 only) is sent when due, ahead of the next hot query.
PhaseResult run_closed_loop(somrm::serve::ServeEngine& engine,
                            const QueryTable& table, std::uint64_t seed,
                            double seconds, const std::vector<Arrival>& churn,
                            double epsilon);

}  // namespace somrm_bench
