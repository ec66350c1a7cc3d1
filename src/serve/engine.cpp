#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "serve/snapshot.hpp"

namespace somrm::serve {

namespace {

/// Engine-side clock: steady_clock directly, NOT obs::now_ns — the queue
/// and serving latencies are part of the result contract and must be real
/// in SOMRM_OBSERVABILITY=OFF builds too.
std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

obs::Metric& submitted_metric() {
  static obs::Metric& m = obs::metric("serve.submitted");
  return m;
}
obs::Metric& rejected_metric() {
  static obs::Metric& m = obs::metric("serve.rejected");
  return m;
}
obs::Metric& batch_metric() {
  static obs::Metric& m = obs::metric("serve.batch");
  return m;
}
obs::Metric& queue_wait_metric() {
  static obs::Metric& m = obs::metric("serve.queue_ns");
  return m;
}
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g = obs::gauge("serve.queue.depth");
  return g;
}

}  // namespace

ServeEngine::ServeEngine(std::shared_ptr<const core::SolveSession> session,
                         ServeEngineOptions options)
    : session_(std::move(session)), options_(std::move(options)) {
  if (!session_)
    throw std::invalid_argument("ServeEngine: session must not be null");
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (!options_.snapshot_path.empty())
    load_snapshot(*session_->cache(), options_.snapshot_path);
  support::MutexLock lock(join_mutex_);
  workers_.reserve(options_.num_workers);
  for (std::size_t i = 0; i < options_.num_workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ServeEngine::~ServeEngine() { stop(); }

void ServeEngine::enqueue(Pending&& p) {
  {
    support::MutexLock lock(mutex_);
    if (stopping_) {
      ++counters_.rejected_stopped;
      rejected_metric().add(1);
      throw RejectedError(RejectReason::kStopped,
                          "ServeEngine: stopped, not accepting queries");
    }
    if (queue_.size() >= options_.max_queue) {
      ++counters_.rejected_queue_full;
      rejected_metric().add(1);
      throw RejectedError(
          RejectReason::kQueueFull,
          "ServeEngine: pending queue full (" +
              std::to_string(options_.max_queue) +
              " queries); retry after draining some results");
    }
    queue_.push_back(std::move(p));
    ++counters_.submitted;
    submitted_metric().add(1);
    queue_depth_gauge().set(static_cast<std::int64_t>(queue_.size()));
  }
  // notify_all, not notify_one: the waiter this queue entry is most useful
  // to may be a group leader lingering in its batching window for exactly
  // this key, while an idle worker should also wake for a different key.
  cv_.notify_all();
}

std::future<ServeResult> ServeEngine::submit(core::SessionQuery query) {
  // Malformed queries fail synchronously, here and nowhere later.
  Pending p(session_->admit(std::move(query)));
  p.enqueue_ns = steady_now_ns();
  std::future<ServeResult> fut = p.promise.get_future();
  enqueue(std::move(p));
  return fut;
}

void ServeEngine::submit(core::SessionQuery query, ServeCallback callback) {
  if (!callback)
    throw std::invalid_argument("ServeEngine: callback must not be empty");
  Pending p(session_->admit(std::move(query)));
  p.enqueue_ns = steady_now_ns();
  p.use_callback = true;
  p.callback = std::move(callback);
  enqueue(std::move(p));
}

void ServeEngine::gather_same_key_locked(const std::string& key,
                                         std::list<Pending>& group) {
  for (auto it = queue_.begin();
       it != queue_.end() && group.size() < options_.max_batch;) {
    if (it->query.sweep_key() == key) {
      auto next = std::next(it);
      group.splice(group.end(), queue_, it);
      it = next;
    } else {
      ++it;
    }
  }
}

std::list<ServeEngine::Pending>::iterator ServeEngine::next_leader_locked() {
  // No sweep in flight (the all-hit steady state): the oldest query leads,
  // and nothing is scanned.
  auto it = queue_.begin();
  if (sweeping_.empty()) return it;
  for (; it != queue_.end(); ++it)
    if (std::find(sweeping_.begin(), sweeping_.end(),
                  it->query.sweep_key()) == sweeping_.end())
      break;
  return it;
}

void ServeEngine::start_group_locked(std::list<Pending>::iterator leader,
                                     std::list<Pending>& group,
                                     SweepMark& mark) {
  group.splice(group.end(), queue_, leader);
  // List nodes do not move under splice, so the leader's key stays put.
  const std::string& key = group.front().query.sweep_key();
  gather_same_key_locked(key, group);
  // Engine lock, then cache lock. Checking and marking under one hold of
  // the engine lock means no other worker can lead this key in between.
  if (!session_->cache()->contains(key)) {
    sweeping_.push_back(key);
    mark.key_ = key;
  }
}

void ServeEngine::unmark(const std::string& key) {
  {
    support::MutexLock lock(mutex_);
    sweeping_.erase(std::find(sweeping_.begin(), sweeping_.end(), key));
  }
  // The key's queued queries are eligible again; any idle worker may lead.
  cv_.notify_all();
}

void ServeEngine::worker_loop() {
  for (;;) {
    std::list<Pending> group;
    SweepMark mark(*this);
    {
      support::MutexLock lock(mutex_);
      // Leader: the oldest query whose key no other group is sweeping.
      // Queries under a key being swept wait here, queued, for the sweep
      // to land; while stopping, only an empty queue ends the worker.
      auto leader = next_leader_locked();
      while (leader == queue_.end()) {
        if (stopping_ && queue_.empty()) return;  // fully drained
        cv_.wait(mutex_);
        leader = next_leader_locked();
      }
      // Group everything already queued under the leader's key, then
      // linger up to the batching window for same-key stragglers.
      // Stopping flushes early; a straggler that misses the window forms
      // its own group.
      start_group_locked(leader, group, mark);
      const std::string& key = group.front().query.sweep_key();
      if (options_.batch_window_ns > 0) {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::nanoseconds(options_.batch_window_ns);
        while (group.size() < options_.max_batch && !stopping_) {
          const auto now = std::chrono::steady_clock::now();
          if (now >= deadline) break;
          cv_.wait_for(mutex_, deadline - now);
          gather_same_key_locked(key, group);
        }
      }
      queue_depth_gauge().set(static_cast<std::int64_t>(queue_.size()));
    }
    run_group(std::move(group), mark);
  }
}

bool ServeEngine::drain_one() {
  std::list<Pending> group;
  SweepMark mark(*this);
  {
    support::MutexLock lock(mutex_);
    if (queue_.empty()) return false;
    auto leader = next_leader_locked();
    // Every queued key is being swept by a running group (drain_one beside
    // workers): join that sweep at the cache rather than wait for it.
    if (leader == queue_.end()) leader = queue_.begin();
    start_group_locked(leader, group, mark);
    queue_depth_gauge().set(static_cast<std::int64_t>(queue_.size()));
  }
  run_group(std::move(group), mark);
  return true;
}

void ServeEngine::run_group(std::list<Pending> group, SweepMark& mark) {
  if (group.empty()) return;
  const std::size_t batch_size = group.size();
  // Nothing reads the group's queries after this move.
  std::vector<core::AdmittedQuery> batch;
  batch.reserve(batch_size);
  for (Pending& p : group) batch.push_back(std::move(p.query));

  const std::int64_t exec_t0 = steady_now_ns();
  std::vector<core::MomentResult> results;
  std::vector<core::QueryRecord> records;
  std::exception_ptr error;
  try {
    results = session_->answer(batch, &records);
  } catch (...) {
    error = std::current_exception();
  }
  const std::int64_t done = steady_now_ns();
  // The sweep has landed (or failed): same-key queries may lead again.
  mark.release();

  // Account a future's query BEFORE delivering it: the moment set_value
  // runs, a client's .get() returns, and stats() must already show that
  // query. A callback's outcome is unknowable until it returns, so a
  // callback query is counted right after its own callback returns, as
  // completed or (batch error, or the callback threw) failed — never both.
  std::uint64_t futures = 0;
  for (const Pending& p : group)
    if (!p.use_callback) ++futures;
  batch_metric().add(1, static_cast<std::int64_t>(batch_size));
  {
    support::MutexLock lock(mutex_);
    ++counters_.batches;
    counters_.largest_batch = std::max(counters_.largest_batch, batch_size);
    if (error)
      counters_.failed += futures;
    else
      counters_.completed += futures;
  }
  const auto settle_callback = [this](bool ok) {
    support::MutexLock lock(mutex_);
    ++(ok ? counters_.completed : counters_.failed);
  };

  std::size_t i = 0;
  for (Pending& p : group) {
    if (error) {
      if (p.use_callback) {
        try {
          p.callback(ServeResult{}, error);
        } catch (...) {
          // The query counts as failed either way.
        }
        settle_callback(false);
      } else {
        p.promise.set_exception(error);
      }
    } else {
      ServeResult sr;
      sr.result = std::move(results[i]);
      sr.record = std::move(records[i]);
      sr.queue_ns = exec_t0 - p.enqueue_ns;
      sr.total_ns = done - p.enqueue_ns;
      sr.batch_size = batch_size;
      queue_wait_metric().add(1, sr.queue_ns);
      if (p.use_callback) {
        bool ok = true;
        try {
          p.callback(std::move(sr), nullptr);
        } catch (...) {
          ok = false;
        }
        settle_callback(ok);
      } else {
        p.promise.set_value(std::move(sr));
      }
    }
    ++i;
  }

  // Worker tick: resample the memory gauges so a long hit-only serving run
  // exports live values instead of the last cache miss's (stale-gauge
  // fix; evictions resample too, this covers the steady state).
  if constexpr (obs::kEnabled) {
    static obs::Gauge& rss_gauge = obs::gauge("mem.peak_rss_bytes");
    rss_gauge.set(obs::peak_rss_bytes());
    static obs::Gauge& cache_bytes_gauge = obs::gauge("session.cache.bytes");
    cache_bytes_gauge.set(
        static_cast<std::int64_t>(session_->cache_stats().bytes));
  }
}

void ServeEngine::stop() {
  {
    support::MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  {
    support::MutexLock lock(join_mutex_);
    for (std::thread& t : workers_) {
      if (t.joinable()) t.join();
    }
  }
  // Manual mode (and the window between "stopping" and the last join):
  // whatever was accepted must still be answered — drain inline so no
  // future is left forever pending.
  while (drain_one()) {
  }
}

ServeEngineStats ServeEngine::stats() const {
  support::MutexLock lock(mutex_);
  ServeEngineStats out = counters_;
  out.queue_depth = queue_.size();
  return out;
}

std::size_t ServeEngine::save_snapshot() const {
  if (options_.snapshot_path.empty())
    throw std::logic_error(
        "ServeEngine: save_snapshot() requires a snapshot_path");
  return serve::save_snapshot(*session_->cache(), options_.snapshot_path);
}

}  // namespace somrm::serve
