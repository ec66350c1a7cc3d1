#include "load.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <limits>
#include <thread>

#include "prob/rng.hpp"
#include "spans.hpp"

namespace somrm_bench {

namespace {

using somrm::serve::ServeResult;

constexpr std::int64_t kFailedLatency = std::numeric_limits<std::int64_t>::max();
/// How long a phase waits for outstanding completions before counting
/// them as lost.
constexpr std::int64_t kDrainLimitNs = 60'000'000'000;

/// The engine's own timing fields of one result. This adapter is the only
/// code that reads them, so a change to how the engine reports queue and
/// service time is a change here alone.
struct EngineTiming {
  std::int64_t queue_ns = 0;  ///< enqueue -> group execution start
  std::int64_t total_ns = 0;  ///< enqueue -> group completion
  std::size_t batch_size = 0;
};

EngineTiming engine_timing(const ServeResult& r) {
  return {r.queue_ns, r.total_ns, r.batch_size};
}

/// Spins (yielding) until @p t_ns. A sleep would be cheaper, but on a
/// virtual machine a wake-up can arrive milliseconds late, which would be
/// charged to the engine as latency; the generator owns one core instead.
void wait_until(std::int64_t t_ns) {
  while (now_ns() < t_ns) std::this_thread::yield();
}

/// Splits the client-seen interval [sent, done] of one completed query
/// into submit / queue / exec / deliver, records the layer samples, and,
/// when tracing, the query's spans under a root "client.query" span that
/// starts at @p origin (the scheduled time in open loop).
void account(PhaseResult& out, std::int64_t origin, std::int64_t sub0,
             std::int64_t sub1, std::int64_t done, const EngineTiming& t) {
  const std::int64_t exec_start = sub1 + t.queue_ns;
  const std::int64_t exec_end = sub1 + t.total_ns;
  out.submit_us.push_back(static_cast<double>(sub1 - sub0) * 1e-3);
  out.queue_us.push_back(static_cast<double>(t.queue_ns) * 1e-3);
  out.exec_us.push_back(static_cast<double>(t.total_ns - t.queue_ns) * 1e-3);
  out.deliver_us.push_back(static_cast<double>(done - exec_end) * 1e-3);
  out.batch_size.push_back(static_cast<double>(t.batch_size));
  if (!Tracer::enabled()) return;
  const std::uint64_t root = Tracer::next_id();
  const auto child = [&](const char* name, std::int64_t b, std::int64_t e) {
    Tracer::record({name, b, e, Tracer::next_id(), root, root, 0});
  };
  if (sub0 > origin) child("gen.late", origin, sub0);
  child("serve.submit", sub0, sub1);
  child("serve.queue", sub1, exec_start);
  child("serve.exec", exec_start, exec_end);
  child("serve.deliver", exec_end, done);
  Tracer::record({"client.query", origin, done, root, 0, root, 0});
}

}  // namespace

Answer answer_of(const somrm::core::MomentResult& result) {
  return {result.weighted, result.truncation_point, result.error_bound};
}

bool matches(const somrm::core::MomentResult& got, const Answer& ref,
             double epsilon) {
  return got.weighted.size() == ref.weighted.size() &&
         std::memcmp(got.weighted.data(), ref.weighted.data(),
                     ref.weighted.size() * sizeof(double)) == 0 &&
         got.truncation_point == ref.truncation_point &&
         std::memcmp(&got.error_bound, &ref.error_bound, sizeof(double)) ==
             0 &&
         got.error_bound <= epsilon;
}

std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate,
                                      double seconds, std::size_t hot,
                                      const std::vector<Arrival>& churn) {
  somrm::prob::Rng rng(seed);
  std::vector<Arrival> out;
  double at = 0.0;
  for (;;) {
    at += rng.exponential(rate);
    if (at >= seconds) break;
    out.push_back({static_cast<std::int64_t>(at * 1e9),
                   static_cast<std::uint32_t>(rng.uniform_below(hot))});
  }
  out.insert(out.end(), churn.begin(), churn.end());
  std::stable_sort(out.begin(), out.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.at_ns < b.at_ns;
                   });
  return out;
}

PhaseResult run_open_loop(somrm::serve::ServeEngine& engine,
                          const QueryTable& table,
                          const std::vector<Arrival>& arrivals,
                          double seconds, double epsilon) {
  enum Status : std::uint8_t { kPending, kOk, kWrong, kFailed, kRejected };
  struct Slot {
    std::int64_t sched = 0, sub0 = 0, sub1 = 0, done = 0;
    EngineTiming timing;
    Status status = kPending;
  };
  std::vector<Slot> slots(arrivals.size());
  std::atomic<std::size_t> completed{0};
  std::size_t accepted = 0;
  std::int64_t start = 0;

  // Each callback writes only its own slot's done/timing/status; the
  // generator writes sched/sub0/sub1 (and status on a rejection). The
  // slots are read after the generator is joined and `completed` says
  // every accepted callback has run.
  std::thread generator([&] {
    start = now_ns() + 1'000'000;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      Slot& s = slots[i];
      s.sched = start + arrivals[i].at_ns;
      wait_until(s.sched);
      const std::uint32_t q = arrivals[i].query;
      s.sub0 = now_ns();
      try {
        engine.submit(table.queries[q], [&slots, &table, &completed, i, q,
                                         epsilon](ServeResult&& r,
                                                  std::exception_ptr error) {
          Slot& mine = slots[i];
          mine.done = now_ns();
          if (error) {
            mine.status = kFailed;
          } else {
            mine.timing = engine_timing(r);
            mine.status =
                matches(r.result, table.answers[q], epsilon) ? kOk : kWrong;
          }
          completed.fetch_add(1, std::memory_order_release);
        });
        ++accepted;
      } catch (const somrm::serve::RejectedError&) {
        s.status = kRejected;
      } catch (const std::exception&) {
        s.status = kFailed;  // no callback will come
      }
      s.sub1 = now_ns();
    }
  });
  generator.join();

  const std::int64_t give_up = now_ns() + kDrainLimitNs;
  while (completed.load(std::memory_order_acquire) < accepted &&
         now_ns() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // Callbacks still owed hold references to `slots`: stopping the engine
  // runs them before the slots go away (the run is already a failure).
  if (completed.load(std::memory_order_acquire) < accepted) engine.stop();

  PhaseResult out;
  out.window_s = seconds;
  const std::int64_t window_end =
      start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t last_done = window_end;
  out.attempted = slots.size();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Slot& s = slots[i];
    const bool hot = arrivals[i].query < table.hot;
    out.late_ns.push_back(s.sub0 - s.sched);
    std::int64_t latency = kFailedLatency;
    switch (s.status) {
      case kOk:
        latency = s.done - s.sched;
        last_done = std::max(last_done, s.done);
        out.done_at_ns.push_back(s.done - start);
        if (hot) account(out, s.sched, s.sub0, s.sub1, s.done, s.timing);
        break;
      case kWrong: ++out.mismatched; break;
      case kRejected: ++out.rejected; break;
      case kPending:
      case kFailed: ++out.failed; break;
    }
    if (hot) out.hot_at_ns.push_back(s.sched - start);
    (hot ? out.hot_latency_ns : out.churn_latency_ns).push_back(latency);
  }
  out.drain_s = static_cast<double>(last_done - window_end) * 1e-9;
  return out;
}

PhaseResult run_closed_loop(somrm::serve::ServeEngine& engine,
                            const QueryTable& table, std::uint64_t seed,
                            double seconds, const std::vector<Arrival>& churn,
                            double epsilon) {
  std::vector<PhaseResult> per_client(kClients);
  const std::int64_t start = now_ns() + 1'000'000;
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(seconds * 1e9);

  const auto client = [&](std::size_t c) {
    PhaseResult& out = per_client[c];
    somrm::prob::Rng rng(seed + 0x9e3779b97f4a7c15ULL * (c + 1));
    struct Inflight {
      std::future<ServeResult> result;
      std::uint32_t query = 0;
      std::int64_t sub0 = 0, sub1 = 0;
    };
    std::deque<Inflight> inflight;
    std::size_t next_churn = 0;
    wait_until(start);
    for (;;) {
      while (inflight.size() < kOutstanding && now_ns() < deadline) {
        std::uint32_t q = static_cast<std::uint32_t>(rng.uniform_below(table.hot));
        if (c == 0 && next_churn < churn.size() &&
            start + churn[next_churn].at_ns <= now_ns())
          q = churn[next_churn++].query;
        Inflight f;
        f.query = q;
        f.sub0 = now_ns();
        ++out.attempted;
        bool sent = false;
        try {
          f.result = engine.submit(table.queries[q]);
          sent = true;
        } catch (const somrm::serve::RejectedError&) {
          ++out.rejected;
        } catch (const std::exception&) {
          ++out.failed;
        }
        if (!sent) {
          if (q < table.hot) {
            out.hot_latency_ns.push_back(kFailedLatency);
            out.hot_at_ns.push_back(f.sub0 - start);
          } else {
            out.churn_latency_ns.push_back(kFailedLatency);
          }
          continue;
        }
        f.sub1 = now_ns();
        inflight.push_back(std::move(f));
      }
      if (inflight.empty()) break;
      Inflight f = std::move(inflight.front());
      inflight.pop_front();
      const bool hot = f.query < table.hot;
      std::int64_t latency = kFailedLatency;
      try {
        ServeResult r = f.result.get();
        const std::int64_t done = now_ns();
        if (matches(r.result, table.answers[f.query], epsilon)) {
          latency = done - f.sub0;
          out.done_at_ns.push_back(done - start);
          if (hot) account(out, f.sub0, f.sub0, f.sub1, done, engine_timing(r));
        } else {
          ++out.mismatched;
        }
      } catch (...) {
        ++out.failed;
      }
      if (hot) out.hot_at_ns.push_back(f.sub0 - start);
      (hot ? out.hot_latency_ns : out.churn_latency_ns).push_back(latency);
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();

  PhaseResult out;
  out.window_s = seconds;
  out.drain_s = static_cast<double>(std::max<std::int64_t>(0, now_ns() - deadline)) * 1e-9;
  for (PhaseResult& p : per_client) {
    const auto append = [](auto& dst, const auto& src) {
      dst.insert(dst.end(), src.begin(), src.end());
    };
    append(out.hot_latency_ns, p.hot_latency_ns);
    append(out.hot_at_ns, p.hot_at_ns);
    append(out.done_at_ns, p.done_at_ns);
    append(out.churn_latency_ns, p.churn_latency_ns);
    append(out.submit_us, p.submit_us);
    append(out.queue_us, p.queue_us);
    append(out.exec_us, p.exec_us);
    append(out.deliver_us, p.deliver_us);
    append(out.batch_size, p.batch_size);
    out.attempted += p.attempted;
    out.rejected += p.rejected;
    out.failed += p.failed;
    out.mismatched += p.mismatched;
  }
  return out;
}

}  // namespace somrm_bench
