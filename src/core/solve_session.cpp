#include "core/solve_session.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "obs/export.hpp"
#include "obs/histogram.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "support/word_hash.hpp"

namespace somrm::core {

namespace {

/// Content hash of everything the sweep reads from the model: the generator
/// CSR structure and values, drifts, and variances. The initial vector is
/// deliberately EXCLUDED — the retained panels are pi-independent, so
/// models differing only in pi must share cache entries.
std::string model_fingerprint(const SecondOrderMrm& model) {
  const linalg::CsrMatrix& q = model.generator().matrix();
  support::WordHash h;
  h.word(model.num_states());
  h.sizes(q.row_ptr());
  h.sizes(q.col_idx());
  h.doubles(q.values());
  h.doubles(model.drifts());
  h.doubles(model.variances());
  return h.hex();
}

std::string weights_hash(std::span<const double> weights) {
  support::WordHash h;
  h.doubles(weights);
  return h.hex();
}

/// Hashes the solve key (everything besides the model content and the
/// weights that selects a distinct sweep). Doubles go in by bit pattern:
/// 0.1 and 0.1000000000000001 are different sweeps.
std::string solve_key(std::span<const double> times,
                      const MomentSolverOptions& options) {
  support::WordHash h;
  h.doubles(times);
  h.word(options.max_moment);
  h.word(std::bit_cast<std::uint64_t>(options.epsilon));
  h.word(std::bit_cast<std::uint64_t>(options.center));
  h.word(static_cast<std::uint64_t>(options.scale_policy));
  h.word(static_cast<std::uint64_t>(options.kernel));
  return h.hex();
}

void validate_query_weights(std::span<const double> weights,
                            std::size_t num_states) {
  if (weights.size() != num_states)
    throw std::invalid_argument(
        "SolveSession: query terminal-weight vector size mismatch (got " +
        std::to_string(weights.size()) + ", model has " +
        std::to_string(num_states) + " states)");
  // One branch-free pass instead of is_nonnegative then max_elem. A NaN
  // fails `w >= 0`, so once no weight is negative, "max > 0" is "some
  // weight > 0" and the verdicts are the same.
  bool negative = false;
  bool positive = false;
  for (const double w : weights) {
    negative |= !(w >= 0.0);
    positive |= w > 0.0;
  }
  if (negative)
    throw std::invalid_argument(
        "SolveSession: query terminal weights must be non-negative");
  if (!positive)
    throw std::invalid_argument(
        "SolveSession: query terminal weights must not be all zero");
}

obs::Metric& cache_hit_metric() {
  static obs::Metric& m = obs::metric("session.cache.hit");
  return m;
}
obs::Metric& cache_miss_metric() {
  static obs::Metric& m = obs::metric("session.cache.miss");
  return m;
}
obs::Metric& cache_evict_metric() {
  static obs::Metric& m = obs::metric("session.cache.evict");
  return m;
}
obs::Metric& cache_coalesced_metric() {
  static obs::Metric& m = obs::metric("session.cache.coalesced");
  return m;
}

/// Process-wide query-ID source: monotonically increasing across every
/// session so concurrent sessions' IDs interleave but never collide, and a
/// trace's "query_id" args are globally unique within a run.
std::atomic<std::uint64_t> g_next_query_id{0};

/// Exact 1-based rank-ceil(q*n) order statistic of an ASCENDING-sorted
/// latency list (0 for an empty list) — the same quantile convention the
/// bucket histograms use, but at full resolution.
std::int64_t exact_quantile(const std::vector<std::int64_t>& sorted,
                            double q) {
  if (sorted.empty()) return 0;
  const double clamped = std::min(std::max(q, 0.0), 1.0);
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(sorted.size())));
  rank = std::max<std::size_t>(rank, 1);
  rank = std::min(rank, sorted.size());
  return sorted[rank - 1];
}

}  // namespace

SweepCache::SweepCache(std::size_t byte_budget) : byte_budget_(byte_budget) {}

SweepCache::EntryPtr SweepCache::get_or_compute(
    const std::string& key, const std::function<RetainedSweep()>& compute,
    Outcome* outcome) {
  // Three separate lock scopes instead of one relockable guard: the
  // capability analysis (and a reader) can follow each scope branch by
  // branch, and the compute() call is visibly outside every one of them.
  std::promise<EntryPtr> promise;
  std::shared_future<EntryPtr> inflight_fut;
  bool join_inflight = false;
  {
    support::MutexLock lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      ++counters_.hits;
      cache_hit_metric().add(1);
      if (outcome) *outcome = Outcome::kHit;
      return it->second.value;
    }
    auto in = inflight_.find(key);
    if (in != inflight_.end()) {
      // Coalesce: someone is already computing this key. Wait outside the
      // lock; the future's value is the shared sweep (or its exception).
      inflight_fut = in->second;
      join_inflight = true;
      ++counters_.coalesced;
      cache_coalesced_metric().add(1);
      if (outcome) *outcome = Outcome::kCoalesced;
    } else {
      ++counters_.misses;
      cache_miss_metric().add(1);
      if (outcome) *outcome = Outcome::kMiss;
      inflight_.emplace(key, promise.get_future().share());
    }
  }
  if (join_inflight) return inflight_fut.get();

  EntryPtr value;
  try {
    value = std::make_shared<const RetainedSweep>(compute());
  } catch (...) {
    promise.set_exception(std::current_exception());
    {
      support::MutexLock lock(mutex_);
      inflight_.erase(key);
    }
    throw;
  }
  promise.set_value(value);

  support::MutexLock lock(mutex_);
  inflight_.erase(key);
  const std::size_t bytes = value->byte_size();
  lru_.push_front(key);
  entries_[key] = Slot{value, bytes, lru_.begin()};
  bytes_ += bytes;
  evict_locked();
  return value;
}

void SweepCache::evict_locked() {
  bool evicted = false;
  while (bytes_ > byte_budget_ && entries_.size() > 1) {
    const std::string& victim = lru_.back();
    auto it = entries_.find(victim);
    bytes_ -= it->second.bytes;
    entries_.erase(it);
    lru_.pop_back();
    ++counters_.evictions;
    cache_evict_metric().add(1);
    evicted = true;
  }
  // Gauges move the moment memory is released, not at the next cache miss
  // or report() — a long hit-only serving run otherwise exports frozen
  // values that overstate the footprint by every sweep evicted since.
  if constexpr (obs::kEnabled) {
    if (evicted) {
      static obs::Gauge& cache_bytes_gauge = obs::gauge("session.cache.bytes");
      cache_bytes_gauge.set(static_cast<std::int64_t>(bytes_));
      static obs::Gauge& rss_gauge = obs::gauge("mem.peak_rss_bytes");
      rss_gauge.set(obs::peak_rss_bytes());
    }
  }
}

bool SweepCache::contains(const std::string& key) const {
  support::MutexLock lock(mutex_);
  return entries_.contains(key);
}

SweepCacheStats SweepCache::stats() const {
  support::MutexLock lock(mutex_);
  SweepCacheStats out = counters_;
  out.entries = entries_.size();
  out.bytes = bytes_;
  out.byte_budget = byte_budget_;
  out.over_budget = bytes_ > byte_budget_;
  return out;
}

std::size_t SweepCache::byte_budget() const {
  support::MutexLock lock(mutex_);
  return byte_budget_;
}

void SweepCache::set_byte_budget(std::size_t bytes) {
  support::MutexLock lock(mutex_);
  byte_budget_ = bytes;
  evict_locked();
}

void SweepCache::clear() {
  support::MutexLock lock(mutex_);
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
}

bool SweepCache::insert(const std::string& key, EntryPtr value) {
  if (!value) return false;
  support::MutexLock lock(mutex_);
  if (entries_.find(key) != entries_.end()) return false;
  const std::size_t bytes = value->byte_size();
  lru_.push_front(key);
  entries_[key] = Slot{std::move(value), bytes, lru_.begin()};
  bytes_ += bytes;
  evict_locked();
  // A restore that immediately evicted its own insertion is possible (the
  // entry stays iff it is MRU and the budget allows); report whether the
  // key is actually resident now.
  return entries_.find(key) != entries_.end();
}

std::vector<std::pair<std::string, SweepCache::EntryPtr>>
SweepCache::entries_snapshot() const {
  support::MutexLock lock(mutex_);
  std::vector<std::pair<std::string, EntryPtr>> out;
  out.reserve(entries_.size());
  for (const std::string& key : lru_) {
    auto it = entries_.find(key);
    out.emplace_back(key, it->second.value);
  }
  return out;
}

const std::shared_ptr<SweepCache>& SweepCache::global() {
  static const std::shared_ptr<SweepCache>* cache =
      new std::shared_ptr<SweepCache>(std::make_shared<SweepCache>());
  return *cache;
}

SolveSession::SolveSession(SecondOrderMrm model, std::vector<double> times,
                           MomentSolverOptions options,
                           std::shared_ptr<SweepCache> cache)
    : solver_(std::move(model)),
      times_(std::move(times)),
      options_(options),
      cache_(cache ? std::move(cache) : SweepCache::global()) {
  validate_solver_inputs(times_, options_, "SolveSession");
  base_key_ = model_fingerprint(solver_.model()) + "|" +
              solve_key(times_, options_);
  plain_key_ = base_key_ + "|plain";
}

std::string SolveSession::sweep_key(
    std::span<const double> terminal_weights) const {
  if (terminal_weights.empty()) return plain_key_;
  return base_key_ + "|w=" + weights_hash(terminal_weights);
}

void SolveSession::validate_query(const SessionQuery& q) const {
  const std::size_t num_states = solver_.model().num_states();
  if (q.time_index >= times_.size())
    throw std::invalid_argument(
        "SolveSession: query time index " + std::to_string(q.time_index) +
        " out of range (session grid has " + std::to_string(times_.size()) +
        " time points)");
  const std::size_t order = resolved_order(q);
  if (order > options_.max_moment)
    throw std::invalid_argument(
        "SolveSession: query moment order " + std::to_string(order) +
        " exceeds the session max_moment " +
        std::to_string(options_.max_moment));
  if (!q.initial.empty()) {
    if (q.initial.size() != num_states)
      throw std::invalid_argument(
          "SolveSession: query initial vector size mismatch (got " +
          std::to_string(q.initial.size()) + ", model has " +
          std::to_string(num_states) + " states)");
    // The same check with_initial runs, so a session rejects exactly what
    // a model would.
    validate_initial_distribution(q.initial, "SolveSession: query ");
  }
  if (!q.terminal_weights.empty())
    validate_query_weights(q.terminal_weights, num_states);
}

std::size_t SolveSession::resolved_order(const SessionQuery& q) const {
  return q.max_moment == SessionQuery::kSessionMax ? options_.max_moment
                                                   : q.max_moment;
}

AdmittedQuery SolveSession::admit(SessionQuery q) const {
  validate_query(q);
  const std::size_t order = resolved_order(q);
  std::string key = sweep_key(q.terminal_weights);
  return AdmittedQuery(std::move(q), order, std::move(key));
}

std::vector<MomentResult> SolveSession::run(
    std::span<const Job> jobs, std::vector<QueryRecord>* records_out) const {
  const std::size_t n = jobs.size();
  std::vector<MomentResult> out;
  out.reserve(n);
  std::vector<QueryRecord> records(n);
  static obs::Metric& finalize_metric = obs::metric("session.query.finalize");
  std::size_t retained_bytes = 0;  // footprint of the last query's sweep
  for (std::size_t i = 0; i < n; ++i) {
    const Job& job = jobs[i];
    const SessionQuery& q = *job.query;
    const std::int64_t start = obs::now_ns();
    SweepCache::Outcome outcome = SweepCache::Outcome::kHit;
    const SweepCache::EntryPtr sweep = cache_->get_or_compute(
        *job.key,
        [&] {
          return solver_.sweep_retained(times_, options_, q.terminal_weights);
        },
        &outcome);
    if constexpr (obs::kEnabled) {
      if (outcome == SweepCache::Outcome::kMiss) {
        // Peak RSS moves on sweep computation, not on contraction-only
        // queries; sampling here (and in report()) keeps the hit path free
        // of /proc reads at serving rates.
        static obs::Gauge& rss_gauge = obs::gauge("mem.peak_rss_bytes");
        rss_gauge.set(obs::peak_rss_bytes());
      }
    }
    if (i + 1 == n) retained_bytes = sweep->byte_size();
    const std::int64_t finalize_t0 = obs::now_ns();
    out.push_back(contract_sweep(
        *sweep, q.time_index,
        q.initial.empty() ? std::span<const double>(solver_.model().initial())
                          : std::span<const double>(q.initial),
        job.order));
    const std::int64_t done = obs::now_ns();
    finalize_metric.add(1, done - finalize_t0);

    QueryRecord& rec = records[i];
    rec.query_id = g_next_query_id.fetch_add(1, std::memory_order_relaxed) + 1;
    rec.time_index = q.time_index;
    rec.max_moment = job.order;
    rec.latency_ns = job.admit_ns + (done - start);
    rec.finalize_ns = done - finalize_t0;
    rec.cache_outcome = outcome;
    rec.sweep_key = *job.key;
    out.back().stats.finalize_seconds = obs::seconds_between(finalize_t0, done);
    out.back().stats.total_seconds =
        obs::seconds_between(done - rec.latency_ns, done);

    // Per-query span: histogram cells and the trace event carrying the
    // query ID. All of it reads clocks and copies computed values — the
    // numeric result is untouched (bit-identity pinned by tests).
    if constexpr (obs::kEnabled) {
      static obs::Histogram& latency_hist =
          obs::histogram("session.query.latency_ns");
      static obs::Histogram& finalize_hist =
          obs::histogram("session.query.finalize_ns");
      latency_hist.record(rec.latency_ns);
      finalize_hist.record(rec.finalize_ns);
      if (obs::trace_enabled())
        obs::trace_complete(
            "session.query", "session", done - rec.latency_ns, rec.latency_ns,
            "query_id", static_cast<double>(rec.query_id), "cache",
            static_cast<double>(static_cast<int>(outcome)));
    }
  }

  // Once per batch: the cache's cumulative counters into every result, the
  // gauges, and one record-ring lock.
  const SweepCacheStats cs = cache_->stats();
  for (MomentResult& r : out) {
    r.stats.cache_hits = cs.hits;
    r.stats.cache_misses = cs.misses;
    r.stats.cache_evictions = cs.evictions;
    r.stats.cache_coalesced = cs.coalesced;
    r.stats.cache_over_budget = cs.over_budget;
  }
  if constexpr (obs::kEnabled) {
    static obs::Gauge& cache_bytes_gauge = obs::gauge("session.cache.bytes");
    cache_bytes_gauge.set(static_cast<std::int64_t>(cs.bytes));
    static obs::Gauge& retained_gauge =
        obs::gauge("session.sweep.retained_bytes");
    if (n > 0) retained_gauge.set(static_cast<std::int64_t>(retained_bytes));
    if (obs::trace_enabled()) {
      obs::trace_counter("session.cache.bytes",
                         static_cast<double>(cs.bytes));
      obs::trace_counter("mem.peak_rss_bytes",
                         static_cast<double>(
                             obs::gauge("mem.peak_rss_bytes").value()));
    }
  }
  {
    support::MutexLock lock(records_mutex_);
    queries_ += n;
    for (QueryRecord& rec : records) {
      if (records_out)
        records_.push_back(rec);
      else
        records_.push_back(std::move(rec));
    }
    while (records_.size() > kMaxQueryRecords) {
      records_.pop_front();
      ++dropped_records_;
    }
  }
  if (records_out)
    records_out->insert(records_out->end(),
                        std::make_move_iterator(records.begin()),
                        std::make_move_iterator(records.end()));
  return out;
}

SessionReport SolveSession::report() const {
  SessionReport r;
  {
    support::MutexLock lock(records_mutex_);
    r.queries = queries_;
    r.dropped_records = dropped_records_;
    r.records.assign(records_.begin(), records_.end());
  }
  r.cache = cache_->stats();
  std::vector<std::int64_t> latencies;
  latencies.reserve(r.records.size());
  for (const QueryRecord& rec : r.records) latencies.push_back(rec.latency_ns);
  std::sort(latencies.begin(), latencies.end());
  r.latency_p50_ns = exact_quantile(latencies, 0.50);
  r.latency_p90_ns = exact_quantile(latencies, 0.90);
  r.latency_p99_ns = exact_quantile(latencies, 0.99);
  r.latency_p999_ns = exact_quantile(latencies, 0.999);
  if constexpr (obs::kEnabled) {
    static obs::Gauge& rss_gauge = obs::gauge("mem.peak_rss_bytes");
    rss_gauge.set(obs::peak_rss_bytes());
    static obs::Gauge& cache_bytes_gauge = obs::gauge("session.cache.bytes");
    cache_bytes_gauge.set(static_cast<std::int64_t>(r.cache.bytes));
  }
  return r;
}

MomentResult SolveSession::query(const SessionQuery& q) const {
  return query(q, nullptr);
}

MomentResult SolveSession::query(const SessionQuery& q,
                                 QueryRecord* record) const {
  std::vector<QueryRecord> records;
  std::vector<MomentResult> out =
      query_batch({&q, 1}, record ? &records : nullptr);
  if (record) *record = std::move(records.front());
  return std::move(out.front());
}

std::vector<MomentResult> SolveSession::query_batch(
    std::span<const SessionQuery> queries) const {
  return query_batch(queries, nullptr);
}

std::vector<MomentResult> SolveSession::query_batch(
    std::span<const SessionQuery> queries,
    std::vector<QueryRecord>* records) const {
  // admit() without the copy, for every query before any runs.
  std::vector<std::string> keys;
  keys.reserve(queries.size());
  std::vector<Job> jobs;
  jobs.reserve(queries.size());
  for (const SessionQuery& q : queries) {
    const std::int64_t t0 = obs::now_ns();
    validate_query(q);
    keys.push_back(sweep_key(q.terminal_weights));
    jobs.push_back({&q, resolved_order(q), &keys.back(), obs::now_ns() - t0});
  }
  return run(jobs, records);
}

std::vector<MomentResult> SolveSession::answer(
    std::span<const AdmittedQuery> batch,
    std::vector<QueryRecord>* records) const {
  std::vector<Job> jobs;
  jobs.reserve(batch.size());
  for (const AdmittedQuery& a : batch) {
    // The base key covers the model content and the solve key, so a match
    // means admission's checks hold for this session too.
    if (a.sweep_key().compare(0, base_key_.size(), base_key_) != 0)
      throw std::invalid_argument(
          "SolveSession: query was admitted by a session with a different "
          "model or solve key");
    jobs.push_back({&a.query(), a.order(), &a.sweep_key(), 0});
  }
  return run(jobs, records);
}

}  // namespace somrm::core
