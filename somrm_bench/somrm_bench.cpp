// somrm_bench: one benchmark for the paper's randomization sweep and for
// the serving path built on it.
//
//   somrm_bench --workload <table2|hits_small|mixed_churn> --seed <n>
//               --seconds <s> --trace <0|1> [--json <path>]
//               [--trace-out <path>] [--work-dir <dir>] [--golden-dir <dir>]
//               [--source-id <id>] [--smoke] [--write-golden]
//
// Every workload runs the same phases on its own model, so every metric is
// measured on every workload (README.md gives the definitions):
//   prep     build the model, draw the seeded query mix, sweep the hot keys
//            into a snapshot, compute reference answers       (not timed)
//   setup    build + save + load the model file, load the snapshot into a
//            fresh cache, start the engine; 15 times (setup_s)
//   sweeps   Table-2 style 5-point solves and the 23-moment centered solve
//            of the bounds pipeline, pinned one-thread (sweep_1t_ms,
//            sweep_wide_ms); traced runs add 4-thread solves
//   serving  solver pool at 1 thread; 1 s of untimed traffic, a closed loop
//            (qps_max), then open loops at the fixed lo and hi rates
//            (p50_ms_lo, p99_ms_hi)
//   probes   (--trace 1 only) direct timings of each layer's entry points
//
// The program only calls public library functions and times them from
// outside. Prints every metric with its unit, then, as the last line, one
// JSON object {"correct","attempted","failed","metrics"} with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exit status: 0 when every output was correct, 1 when one was not, 2 on
// bad arguments.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/randomization.hpp"
#include "core/scaling.hpp"
#include "core/solve_session.hpp"
#include "io/model_io.hpp"
#include "linalg/csr.hpp"
#include "linalg/panel.hpp"
#include "linalg/parallel.hpp"
#include "linalg/vec.hpp"
#include "load.hpp"
#include "models/onoff.hpp"
#include "obs/telemetry.hpp"
#include "prob/poisson.hpp"
#include "prob/rng.hpp"
#include "serve/engine.hpp"
#include "serve/snapshot.hpp"
#include "spans.hpp"

#ifndef SOMRM_BENCH_BUILD_TYPE
#define SOMRM_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef SOMRM_BENCH_CXX_FLAGS
#define SOMRM_BENCH_CXX_FLAGS ""
#endif
#ifndef SOMRM_BENCH_GOLDEN_DIR
#define SOMRM_BENCH_GOLDEN_DIR "golden"
#endif

namespace {

using namespace somrm;
using namespace somrm_bench;

constexpr std::size_t kMoments = 3;
constexpr std::size_t kWideMoments = 23;
constexpr double kEpsilon = 1e-9;
constexpr double kWideTime = 0.05;
constexpr std::size_t kDistinctPi = 8;
constexpr std::size_t kSweepThreads = 4;
constexpr std::size_t kEngineWorkers = 2;
constexpr std::size_t kSetupReps = 15;
constexpr std::size_t kMinSolves = 3;
constexpr double kAdminPeriodS = 2.0;
/// Serving phases are cut into slices of this length, and a rate or tail
/// latency is the mean of the middle half of the slices' values. The VM
/// stalls for milliseconds about once a second, in a random slice, which
/// then falls outside the middle half instead of setting the tail. A miss
/// in mixed_churn, sent every 0.2 s, lands in every slice, so the stall it
/// causes stays in the tail. At every hi rate a slice holds at least 1,000
/// queries, 10 of them above its p99.
constexpr double kSliceS = 0.2;
const std::vector<double> kTimes{0.01, 0.02, 0.03, 0.04, 0.05};

/// Phases of the timed part, as shares of --seconds.
enum Phase { kSweep1, kWide, kClosed, kLo, kHi, kPhases };
/// Traced runs also time 4-thread solves, for this share of --seconds.
constexpr double kTraceSweep4Share = 0.1;

struct Workload {
  const char* name;
  std::size_t states;          ///< ON-OFF model size (sources + 1)
  std::size_t wide_states;     ///< model size of the 23-moment solve
  std::size_t smoke_states;    ///< both sizes under --smoke
  std::size_t weight_classes;  ///< hot terminal-weight keys beside plain
  double lo_qps, hi_qps;       ///< open-loop offered rates
  double slo_p99_ms;
  std::size_t cache_budget;  ///< bytes; 0 = the SweepCache default
  double churn_per_s;        ///< fresh terminal-weight vectors per second
  std::array<double, kPhases> share;
};

// Rates are fixed at about 25 % and 50-60 % of the median closed-loop
// qps_max measured on the reference host (README.md), so a faster engine
// shows as lower latency at the same offered load rather than as a moved
// target.
const Workload kWorkloads[] = {
    {"table2", 10001, 3001, 401, 1, 2500.0, 5000.0, 10.0, 0, 0.0,
     {0.25, 0.25, 0.1, 0.1, 0.3}},
    {"hits_small", 2001, 2001, 101, 2, 6800.0, 16400.0, 5.0, 0, 0.0,
     {0.1, 0.2, 0.15, 0.2, 0.35}},
    {"mixed_churn", 2001, 2001, 101, 2, 6300.0, 15000.0, 50.0,
     std::size_t{4} << 20, 5.0, {0.1, 0.2, 0.15, 0.2, 0.35}},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
  bool write_golden = false;
  std::string json_path;
  std::string trace_path;
  std::string work_dir = ".";
  std::string golden_dir = SOMRM_BENCH_GOLDEN_DIR;
  std::string source_id = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::map<std::string, LayerTime> layers;
  std::vector<std::string> errors;
  /// Raw samples behind the reported statistics, for the --json output.
  std::map<std::string, std::vector<double>> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(const std::string& why) { errors.push_back(why); }
};

// ---------------------------------------------------------------- helpers

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The 10th percentile: what a repeated piece of work costs when nothing
/// else on the host slows it. Solve and setup times here are bimodal — on a
/// CPU whose hardware sibling is busy with another tenant's work they take
/// 1.6-1.8x as long, for a fraction of a second to many seconds — and the
/// busy share changes from run to run, so a median jumps between the modes
/// while the fastest decile stays.
double fastest_decile(const std::vector<double>& v) { return quantile(v, 0.1); }

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// Mean of the middle half: the lowest and highest quarter are dropped.
double interquartile_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  return mean(std::vector<double>(v.begin() + static_cast<long>(cut),
                                  v.end() - static_cast<long>(cut)));
}

double latency_ms(const std::vector<std::int64_t>& ns, double q) {
  std::vector<double> v(ns.begin(), ns.end());
  return quantile(std::move(v), q) * 1e-6;
}

std::size_t slice_count(const PhaseResult& p) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(p.window_s / kSliceS + 1e-9));
}

/// Completions per second in each slice of a phase.
std::vector<double> slice_rates(const PhaseResult& p) {
  const std::size_t n = slice_count(p);
  std::vector<double> rate(n, 0.0);
  const double slice_s = p.window_s / static_cast<double>(n);
  for (const std::int64_t at : p.done_at_ns) {
    const double k = static_cast<double>(at) * 1e-9 / slice_s;
    if (k >= 0.0 && k < static_cast<double>(n))
      rate[static_cast<std::size_t>(k)] += 1.0 / slice_s;
  }
  return rate;
}

/// The @p q latency quantile, in ms, of the hot queries sent in each slice
/// of a phase.
std::vector<double> slice_latency_ms(const PhaseResult& p, double q) {
  const std::size_t n = slice_count(p);
  std::vector<std::vector<double>> by_slice(n);
  const double slice_s = p.window_s / static_cast<double>(n);
  for (std::size_t i = 0; i < p.hot_at_ns.size(); ++i) {
    const double k = static_cast<double>(p.hot_at_ns[i]) * 1e-9 / slice_s;
    by_slice[std::min(static_cast<std::size_t>(std::max(k, 0.0)), n - 1)]
        .push_back(static_cast<double>(p.hot_latency_ns[i]) * 1e-6);
  }
  std::vector<double> out;
  for (std::vector<double>& slice : by_slice)
    out.push_back(quantile(std::move(slice), q));
  return out;
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

core::SecondOrderMrm build_model(std::size_t states) {
  models::OnOffMultiplexerParams p = models::table2_params();
  p.num_sources = states - 1;
  p.capacity = static_cast<double>(p.num_sources);
  return models::make_onoff_multiplexer(p);
}

linalg::Vec random_distribution(prob::Rng& rng, std::size_t n) {
  linalg::Vec v(n);
  for (double& x : v) x = rng.uniform01() + 1e-6;
  linalg::normalize_probability(v);
  return v;
}

linalg::Vec random_weights(prob::Rng& rng, std::size_t n) {
  linalg::Vec v(n);
  for (double& x : v) x = rng.uniform01() + 0.5;
  return v;
}

/// Exact text of a solve's checked outputs, one line per time point, every
/// double with all 17 significant digits.
std::string golden_text(const std::vector<core::MomentResult>& results) {
  std::string out;
  char buf[64];
  for (const core::MomentResult& r : results) {
    std::snprintf(buf, sizeof buf, "t=%.17g G=%zu eb=%.17g m=", r.time,
                  r.truncation_point, r.error_bound);
    out += buf;
    for (std::size_t j = 0; j < r.weighted.size(); ++j) {
      std::snprintf(buf, sizeof buf, "%s%.17g", j ? " " : "", r.weighted[j]);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

bool same_results(const std::vector<core::MomentResult>& a,
                  const std::vector<core::MomentResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!matches(a[i], answer_of(b[i]), std::numeric_limits<double>::max()))
      return false;
  return true;
}

void check_golden(const Options& opt, const std::string& file,
                  const std::vector<core::MomentResult>& results,
                  Report& report) {
  const std::string path = opt.golden_dir + "/" + file;
  const std::string text = golden_text(results);
  if (opt.write_golden) {
    std::ofstream(path) << text;
    std::printf("# wrote golden %s\n", path.c_str());
    return;
  }
  std::ifstream in(path);
  if (!in) {
    report.fail("golden file " + path + " is missing");
    return;
  }
  std::stringstream want;
  want << in.rdbuf();
  if (want.str() != text)
    report.fail("results differ from golden " + path + ":\n" + text);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto value = line.find_first_not_of(" \t", line.find(':') + 1);
      if (value != std::string::npos) return line.substr(value);
    }
  return "unknown";
}

double llc_mib() {
  const long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return bytes > 0 ? static_cast<double>(bytes) / (1024.0 * 1024.0) : 0.0;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out += (i ? ", " : "") + json_string(metrics[i].name) +
           ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  return out + "}";
}

// ------------------------------------------------------------- the phases

/// CPUs this process may run on, ascending.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) out.push_back(c);
  return out;
}

/// Pins the calling thread to one CPU for its lifetime, then restores the
/// thread's previous mask (threads it starts meanwhile would inherit the
/// pin, so none may be started inside).
class PinnedTo {
 public:
  explicit PinnedTo(int cpu) {
    ok_ = pthread_getaffinity_np(pthread_self(), sizeof old_, &old_) == 0;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (ok_) pthread_setaffinity_np(pthread_self(), sizeof one, &one);
  }
  ~PinnedTo() {
    if (ok_) pthread_setaffinity_np(pthread_self(), sizeof old_, &old_);
  }
  PinnedTo(const PinnedTo&) = delete;
  PinnedTo& operator=(const PinnedTo&) = delete;

 private:
  cpu_set_t old_{};
  bool ok_ = false;
};

/// Solves @p times on @p solver at @p threads threads until @p budget_s is
/// spent (at least kMinSolves times) and returns each solve's seconds;
/// every solve must reproduce the first one's bits. A 1-thread solve is
/// pinned, round robin, to each CPU the process may use: on a shared host
/// one CPU can run far slower than another for seconds at a time, and an
/// unpinned solve would land on either at random.
std::vector<double> time_solves(
    const core::RandomizationMomentSolver& solver,
    const std::vector<double>& times, const core::MomentSolverOptions& opts,
    std::size_t threads, double budget_s,
    std::vector<core::MomentResult>& first, Report& report) {
  linalg::set_num_threads(threads);
  const std::vector<int> cpus = threads == 1 ? allowed_cpus()
                                             : std::vector<int>{};
  std::vector<double> out;
  const std::int64_t t_begin = now_ns();
  while (out.size() < kMinSolves || seconds_since(t_begin) < budget_s) {
    std::vector<core::MomentResult> results;
    std::optional<PinnedTo> pin;
    if (!cpus.empty()) pin.emplace(cpus[out.size() % cpus.size()]);
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span("core.solve_multi");
      results = solver.solve_multi(times, opts);
    }
    out.push_back(seconds_since(t0));
    pin.reset();
    ++report.attempted;
    bool ok = true;
    for (const core::MomentResult& r : results)
      ok = ok && r.error_bound <= opts.epsilon;
    if (first.empty())
      first = results;
    else
      ok = ok && same_results(results, first);
    if (!ok) {
      ++report.failed;
      report.fail("a " + std::to_string(threads) +
                  "-thread solve differs from the first solve or exceeds ε");
    }
  }
  return out;
}

/// Snapshot saves every kAdminPeriodS from one thread while a phase runs.
class AdminThread {
 public:
  AdminThread(const core::SweepCache& cache, std::string path)
      : cache_(cache), path_(std::move(path)), thread_([this] { loop(); }) {}
  ~AdminThread() { stop(); }
  AdminThread(const AdminThread&) = delete;
  AdminThread& operator=(const AdminThread&) = delete;

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<double>& save_ms() const { return save_ms_; }
  const std::string& error() const { return error_; }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (cv_.wait_for(lock, std::chrono::duration<double>(kAdminPeriodS),
                       [this] { return stopping_; }))
        return;
      const std::int64_t t0 = now_ns();
      try {
        ScopedSpan span("serve.snapshot_save");
        serve::save_snapshot(cache_, path_);
      } catch (const std::exception& e) {
        error_ = e.what();
      }
      save_ms_.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
  }

  const core::SweepCache& cache_;
  const std::string path_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::vector<double> save_ms_;
  std::string error_;
  std::thread thread_;  // last: started after the members it uses
};

/// Fresh terminal-weight arrivals for one phase: churn_per_s vectors per
/// second, each sent twice 1 ms apart. Appends their queries to @p table.
std::vector<Arrival> make_churn(const Workload& w, double seconds,
                                std::size_t states,
                                const std::vector<linalg::Vec>& pis,
                                prob::Rng& rng, QueryTable& table) {
  std::vector<Arrival> out;
  if (w.churn_per_s <= 0.0) return out;
  const std::size_t count = std::max<std::size_t>(
      1, static_cast<std::size_t>(w.churn_per_s * seconds));
  for (std::size_t k = 0; k < count; ++k) {
    core::SessionQuery q;
    q.time_index = rng.uniform_below(kTimes.size());
    q.initial = pis[rng.uniform_below(pis.size())];
    q.terminal_weights = random_weights(rng, states);
    const auto index = static_cast<std::uint32_t>(table.queries.size());
    table.queries.push_back(std::move(q));
    const auto at = static_cast<std::int64_t>(
        (static_cast<double>(k) + 0.5) / w.churn_per_s * 1e9);
    out.push_back({at, index});
    out.push_back({at + 1'000'000, index});
  }
  return out;
}

void check_phase(const char* name, const PhaseResult& p, Report& report) {
  report.attempted += p.attempted;
  report.failed += p.failures();
  if (p.failures() > 0)
    report.fail(std::string(name) + ": " + std::to_string(p.rejected) +
                " rejected, " + std::to_string(p.failed) + " failed, " +
                std::to_string(p.mismatched) + " wrong of " +
                std::to_string(p.attempted));
}

/// Runs @p fn in a span named @p name up to @p max_reps times, stopping
/// once @p budget_s is spent. With @p cpus given, repetition i is pinned to
/// cpus[i % size] — for one-thread work only, since a thread pool started
/// meanwhile would inherit the pin.
template <class Fn>
void repeat_span(const char* name, std::size_t max_reps, double budget_s,
                 const std::vector<int>& cpus, Fn&& fn) {
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < max_reps; ++i) {
    std::optional<PinnedTo> pin;
    if (!cpus.empty()) pin.emplace(cpus[i % cpus.size()]);
    {
      ScopedSpan span(name);
      fn();
    }
    if (seconds_since(t0) > budget_s) break;
  }
}

// --------------------------------------------------------------- workload

Report run(const Options& opt, const Workload& w) {
  Report report;
  const double S = opt.seconds;
  const double warmup_s = opt.smoke ? 0.2 : 1.0;
  const std::size_t states = opt.smoke ? w.smoke_states : w.states;
  const std::size_t wide_states = opt.smoke ? w.smoke_states : w.wide_states;
  const auto phase_s = [&](Phase p) { return w.share[p] * S; };

  std::filesystem::create_directories(opt.work_dir);
  const std::string stem = opt.work_dir + "/" + w.name + "-" +
                           std::to_string(static_cast<long>(getpid()));
  const std::string model_path = stem + ".somrm";
  const std::string snap_path = stem + ".snap";
  const std::string admin_path = stem + "-admin.snap";

  core::MomentSolverOptions opts;
  opts.max_moment = kMoments;
  opts.epsilon = kEpsilon;
  serve::ServeEngineOptions eopts;
  eopts.num_workers = kEngineWorkers;
  const auto new_cache = [&] {
    return w.cache_budget ? std::make_shared<core::SweepCache>(w.cache_budget)
                          : std::make_shared<core::SweepCache>();
  };

  // ---- prep: seeded inputs, the snapshot, reference answers (untimed)
  linalg::set_num_threads(kSweepThreads);
  const core::SecondOrderMrm model = build_model(states);
  prob::Rng rng(opt.seed);
  std::vector<linalg::Vec> pis;
  for (std::size_t i = 0; i < kDistinctPi; ++i)
    pis.push_back(random_distribution(rng, states));
  std::vector<linalg::Vec> weights;
  for (std::size_t i = 0; i < w.weight_classes; ++i)
    weights.push_back(random_weights(rng, states));

  QueryTable table;
  for (std::size_t ti = 0; ti < kTimes.size(); ++ti)
    for (const std::size_t order : {kMoments, kMoments - 1})
      for (const linalg::Vec& pi : pis)
        for (std::size_t k = 0; k <= weights.size(); ++k) {
          core::SessionQuery q;
          q.time_index = ti;
          q.max_moment = order;
          q.initial = pi;
          if (k > 0) q.terminal_weights = weights[k - 1];
          table.queries.push_back(std::move(q));
        }
  table.hot = table.queries.size();
  const std::vector<Arrival> churn_closed =
      make_churn(w, phase_s(kClosed), states, pis, rng, table);
  const std::vector<Arrival> churn_lo =
      make_churn(w, phase_s(kLo), states, pis, rng, table);
  const std::vector<Arrival> churn_hi =
      make_churn(w, phase_s(kHi), states, pis, rng, table);
  // A traced run first repeats the closed loop untraced, with churn of its
  // own, so that both loops miss on fresh vectors alike.
  const std::vector<Arrival> churn_untraced =
      opt.trace ? make_churn(w, phase_s(kClosed), states, pis, rng, table)
                : std::vector<Arrival>{};

  const auto prep_cache = new_cache();
  const core::SolveSession prep_session(model, kTimes, opts, prep_cache);
  for (std::size_t k = 0; k <= weights.size(); ++k)
    prep_session.query(table.queries[k]);
  {
    ScopedSpan span("serve.snapshot_save");
    serve::save_snapshot(*prep_cache, snap_path);
  }
  const double snapshot_mib =
      static_cast<double>(std::filesystem::file_size(snap_path)) /
      (1024.0 * 1024.0);

  // References come from a session and cache the engine never sees.
  const core::SolveSession refs(model, kTimes, opts, new_cache());
  for (std::size_t begin = 0; begin < table.queries.size(); begin += 16) {
    const std::size_t end = std::min(begin + 16, table.queries.size());
    const std::span<const core::SessionQuery> chunk(
        table.queries.data() + begin, end - begin);
    for (const core::MomentResult& r : refs.query_batch(chunk)) {
      if (r.error_bound > kEpsilon)
        report.fail("a reference answer's error bound exceeds ε");
      table.answers.push_back(answer_of(r));
    }
  }

  const core::RandomizationMomentSolver solver(model);
  const core::SecondOrderMrm wide_model =
      wide_states == states ? model : build_model(wide_states);
  const core::RandomizationMomentSolver wide_solver(wide_model);
  core::MomentSolverOptions wide_opts;
  {
    core::MomentSolverOptions mean_opts;
    mean_opts.max_moment = 1;
    const double mean_reward =
        wide_solver.solve_multi(std::vector<double>{kWideTime}, mean_opts)[0]
            .weighted[1];
    wide_opts.max_moment = kWideMoments;
    wide_opts.epsilon = kEpsilon;
    wide_opts.center = mean_reward / kWideTime;
  }

  // ---- setup, kSetupReps times. Each repetition runs on the next CPU in
  // turn (see time_solves); the engine starts unpinned so its workers do
  // not inherit the pin.
  const std::vector<int> cpus = allowed_cpus();
  std::vector<double> setup_s;
  std::shared_ptr<core::SolveSession> session;
  std::unique_ptr<serve::ServeEngine> engine;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    session.reset();
    std::optional<PinnedTo> pin;
    if (!cpus.empty()) pin.emplace(cpus[rep % cpus.size()]);
    const std::int64_t t0 = now_ns();
    ScopedSpan setup("bench.setup");
    std::optional<core::SecondOrderMrm> built;
    {
      ScopedSpan span("models.build");
      built.emplace(build_model(states));
    }
    {
      ScopedSpan span("io.save_model");
      io::save_model_file(model_path, *built);
    }
    std::optional<core::SecondOrderMrm> loaded;
    {
      ScopedSpan span("io.load_model");
      loaded.emplace(io::load_model_file(model_path).model);
    }
    auto cache = new_cache();
    {
      ScopedSpan span("core.session");
      session = std::make_shared<core::SolveSession>(std::move(*loaded),
                                                     kTimes, opts, cache);
    }
    std::size_t restored = 0;
    {
      ScopedSpan span("serve.snapshot_load");
      restored = serve::load_snapshot(*cache, snap_path);
    }
    if (restored != weights.size() + 1)
      report.fail("snapshot restored " + std::to_string(restored) +
                  " sweeps, expected " + std::to_string(weights.size() + 1));
    pin.reset();
    {
      ScopedSpan span("serve.engine_start");
      engine = std::make_unique<serve::ServeEngine>(session, eopts);
    }
    setup_s.push_back(seconds_since(t0));
  }

  // ---- sweeps, after one untimed solve of each kind
  const auto untraced = [](auto&& fn) {
    const bool tracing = Tracer::enabled();
    Tracer::enable(false);
    fn();
    Tracer::enable(tracing);
  };
  linalg::set_num_threads(1);
  untraced([&] {
    solver.solve_multi(kTimes, opts);
    wide_solver.solve_multi(std::vector<double>{kWideTime}, wide_opts);
  });
  std::vector<core::MomentResult> narrow_first;
  std::vector<core::MomentResult> wide_first;
  const std::vector<double> sweep1 = time_solves(
      solver, kTimes, opts, 1, phase_s(kSweep1), narrow_first, report);
  const std::vector<double> wide =
      time_solves(wide_solver, std::vector<double>{kWideTime}, wide_opts, 1,
                  phase_s(kWide), wide_first, report);
  // A 4-thread solve waits for all four CPUs at every step, so on a shared
  // host its time drifts with the other tenants' load by more than any
  // bound could absorb (README.md); it is timed in traced runs only and
  // reported per layer.
  std::vector<double> sweep4;
  if (opt.trace)
    sweep4 = time_solves(solver, kTimes, opts, kSweepThreads,
                         kTraceSweep4Share * S, narrow_first, report);
  check_golden(opt, "onoff_" + std::to_string(states) + "_n3.txt",
               narrow_first, report);
  check_golden(opt, "onoff_" + std::to_string(wide_states) + "_n23.txt",
               wide_first, report);
  // Taken before serving: how far query batches grow while a backlog
  // drains depends on timing, so the serving phases' own growth is a
  // per-layer number.
  const double sweep_rss_mib = peak_rss_mib();

  // ---- serving, solver pool at one thread, after untimed traffic
  linalg::set_num_threads(1);
  untraced([&] {
    const PhaseResult warm =
        run_closed_loop(*engine, table, opt.seed, warmup_s, {}, kEpsilon);
    if (warm.failures() > 0) report.fail("warm-up queries failed");
  });
  double untraced_qps = 0.0;
  if (opt.trace)
    untraced([&] {
      const PhaseResult plain =
          run_closed_loop(*engine, table, opt.seed + 1, phase_s(kClosed),
                          churn_untraced, kEpsilon);
      check_phase("closed loop (untraced)", plain, report);
      untraced_qps = interquartile_mean(slice_rates(plain));
    });
  const PhaseResult closed = run_closed_loop(
      *engine, table, opt.seed + 1, phase_s(kClosed), churn_closed, kEpsilon);
  std::optional<AdminThread> admin;
  if (w.churn_per_s > 0.0) admin.emplace(*session->cache(), admin_path);
  const PhaseResult lo = run_open_loop(
      *engine, table,
      poisson_schedule(opt.seed + 2, w.lo_qps, phase_s(kLo), table.hot,
                       churn_lo),
      phase_s(kLo), kEpsilon);
  const PhaseResult hi = run_open_loop(
      *engine, table,
      poisson_schedule(opt.seed + 3, w.hi_qps, phase_s(kHi), table.hot,
                       churn_hi),
      phase_s(kHi), kEpsilon);
  std::vector<double> admin_save_ms;
  if (admin) {
    admin->stop();
    if (!admin->error().empty()) report.fail("snapshot save: " + admin->error());
    admin_save_ms = admin->save_ms();
    admin.reset();
  }
  const double serve_rss_growth_mib = peak_rss_mib() - sweep_rss_mib;
  check_phase("closed loop", closed, report);
  check_phase("open loop lo", lo, report);
  check_phase("open loop hi", hi, report);
  const core::SweepCacheStats cache = session->cache_stats();
  if (w.churn_per_s <= 0.0 && cache.misses != 0)
    report.fail(std::to_string(cache.misses) +
                " hot queries missed the snapshot-loaded cache");
  const serve::ServeEngineStats engine_stats = engine->stats();
  if (engine_stats.failed != 0 ||
      engine_stats.completed != engine_stats.submitted)
    report.fail("engine completed " + std::to_string(engine_stats.completed) +
                " of " + std::to_string(engine_stats.submitted) +
                " accepted queries, " + std::to_string(engine_stats.failed) +
                " failed");

  // ---- end-to-end metrics
  const std::vector<double> qps_slices = slice_rates(closed);
  const std::vector<double> p99_hi_slices = slice_latency_ms(hi, 0.99);
  const double qps_max = interquartile_mean(qps_slices);
  const double p50_lo = latency_ms(lo.hot_latency_ns, 0.50);
  const double p99_hi = interquartile_mean(p99_hi_slices);
  report.samples = {
      {"setup_s", setup_s},
      {"sweep_1t_s", sweep1},
      {"sweep_wide_s", wide},
      {"sweep_4t_s", sweep4},
      {"qps_slices", qps_slices},
      {"p99_hi_slices_ms", p99_hi_slices},
  };
  report.e2e = {
      {"setup_s", fastest_decile(setup_s), "s"},
      {"peak_rss_mb", sweep_rss_mib, "MiB"},
      {"sweep_1t_ms", fastest_decile(sweep1) * 1e3, "ms"},
      {"sweep_wide_ms", fastest_decile(wide) * 1e3, "ms"},
      {"qps_max", qps_max, "1/s"},
      {"p50_ms_lo", p50_lo, "ms"},
      {"p99_ms_hi", p99_hi, "ms"},
  };

  const auto print_solves = [](const char* name,
                                const std::vector<double>& s) {
    std::printf("# %s: %zu solves, p10 %.4f / median %.4f / max %.4f ms\n",
                name, s.size(), fastest_decile(s) * 1e3, median(s) * 1e3,
                quantile(s, 1.0) * 1e3);
  };
  print_solves("sweep, 1 thread", sweep1);
  print_solves("wide sweep (23 moments), 1 thread", wide);
  if (opt.trace) print_solves("sweep, 4 threads", sweep4);
  std::printf("# closed loop: %zu clients x %zu outstanding, %zu completed "
              "in %.2f s\n",
              kClients, kOutstanding, closed.done_at_ns.size(),
              closed.window_s);
  const auto print_open = [](const char* name, double rate,
                             const PhaseResult& p) {
    std::printf("# open loop %s: %.0f q/s offered, %zu hot queries: p50 %.4f "
                "ms, p99 %.4f ms; drain %.4f s; generator late p99 %.1f us\n",
                name, rate, p.hot_latency_ns.size(),
                latency_ms(p.hot_latency_ns, 0.5),
                latency_ms(p.hot_latency_ns, 0.99), p.drain_s,
                latency_ms(p.late_ns, 0.99) * 1e3);
  };
  print_open("lo", w.lo_qps, lo);
  print_open("hi", w.hi_qps, hi);
  std::printf("# SLO p99 <= %.1f ms at %.0f q/s: %s\n", w.slo_p99_ms,
              w.hi_qps,
              p99_hi <= w.slo_p99_ms && hi.drain_s < 0.1 ? "met" : "missed");
  if (w.churn_per_s > 0.0) {
    std::vector<std::int64_t> miss = lo.churn_latency_ns;
    miss.insert(miss.end(), hi.churn_latency_ns.begin(),
                hi.churn_latency_ns.end());
    std::printf("# fresh-weight queries: %zu, p50 %.4f ms; cache %zu hits / "
                "%zu misses / %zu coalesced / %zu evictions\n",
                miss.size(), latency_ms(miss, 0.5), cache.hits, cache.misses,
                cache.coalesced, cache.evictions);
  }

  // ---- per-layer metrics (traced run)
  if (opt.trace) {
    // Sweep split at the sweep thread count: the layers solve_multi runs,
    // called one by one through their public entry points.
    linalg::set_num_threads(kSweepThreads);
    const double split_budget = kTraceSweep4Share * S;
    std::size_t steps = 0;
    std::vector<core::MomentResult> split_results;
    repeat_span("bench.solve_split", kMinSolves, split_budget, {}, [&] {
      core::ScaledModel scaled;
      {
        ScopedSpan span("core.scale_model");
        scaled = core::scale_model(model);
      }
      std::vector<std::size_t> g(kTimes.size(), 0);
      {
        ScopedSpan span("prob.truncation");
        for (std::size_t ti = 0; ti < kTimes.size(); ++ti)
          for (std::size_t j = 0; j <= kMoments; ++j)
            g[ti] = std::max(g[ti],
                             core::RandomizationMomentSolver::truncation_point(
                                 scaled.q * kTimes[ti], j, scaled.d, kEpsilon));
      }
      {
        ScopedSpan span("prob.window");
        for (std::size_t ti = 0; ti < kTimes.size(); ++ti)
          prob::poisson_weight_window(scaled.q * kTimes[ti], g[ti]);
      }
      core::RetainedSweep sweep;
      {
        ScopedSpan span("core.sweep_retained");
        sweep = solver.sweep_retained(kTimes, opts);
      }
      steps = *std::max_element(sweep.truncation_points.begin(),
                                sweep.truncation_points.end());
      split_results.clear();
      ScopedSpan span("core.finalize");
      for (std::size_t ti = 0; ti < kTimes.size(); ++ti)
        split_results.push_back(core::finalize_from_sweep(
            sweep, ti, model.initial(), kMoments));
    });
    if (!same_results(split_results, narrow_first))
      report.fail("sweep_retained + finalize_from_sweep differ from solve_multi");
    linalg::set_num_threads(1);
    repeat_span("core.sweep_retained_1t", kMinSolves, 1.0, cpus,
                [&] { solver.sweep_retained(kTimes, opts); });

    // SpMM on the scaled Q' at the narrow and the wide panel width.
    const core::ScaledModel scaled = core::scale_model(model);
    const linalg::CsrMatrix& qp = scaled.q_prime;
    const auto spmm = [&](const char* name, std::size_t width,
                          std::size_t threads) {
      linalg::Panel x(qp.rows(), width);
      linalg::Panel y(qp.rows(), width);
      for (std::size_t i = 0; i < qp.rows(); ++i)
        for (std::size_t j = 0; j < width; ++j)
          x(i, j) = 1.0 / static_cast<double>(1 + i % 7 + j);
      linalg::set_num_threads(threads);
      repeat_span(name, 200, 0.5, threads == 1 ? cpus : std::vector<int>{},
                  [&] { qp.multiply_panel(x, y); });
    };
    spmm("linalg.spmm", kMoments + 1, 1);
    spmm("linalg.spmm_4t", kMoments + 1, kSweepThreads);
    spmm("linalg.spmm_wide", kWideMoments + 1, 1);

    // The hit path, called directly on the serving session (now idle).
    linalg::set_num_threads(1);
    const core::SessionQuery& hot = table.queries[0];
    const core::SessionQuery& weighted =
        table.queries[std::min<std::size_t>(1, table.hot - 1)];
    repeat_span("core.validate", 200, 0.3, cpus,
                [&] { session->validate_query(hot); });
    repeat_span("core.sweep_key", 200, 0.3, cpus,
                [&] { (void)session->sweep_key(weighted.terminal_weights); });
    bool probes_ok = true;
    repeat_span("core.query", 200, 0.5, cpus, [&] {
      probes_ok = probes_ok && matches(session->query(hot), table.answers[0],
                                       kEpsilon);
    });
    const std::size_t batch = std::min<std::size_t>(16, table.hot);
    repeat_span("core.query_batch", 200 / batch + 1, 0.5, cpus, [&] {
      const auto results = session->query_batch(
          std::span<const core::SessionQuery>(table.queries.data(), batch));
      for (std::size_t i = 0; i < batch; ++i)
        probes_ok = probes_ok && matches(results[i], table.answers[i], kEpsilon);
    });
    core::SweepCache::EntryPtr plain_sweep;
    for (const auto& [key, entry] : session->cache()->entries_snapshot())
      if (key == session->sweep_key({})) plain_sweep = entry;
    if (plain_sweep)
      repeat_span("core.finalize_direct", 200, 0.5, cpus, [&] {
        probes_ok = probes_ok &&
                    matches(core::finalize_from_sweep(*plain_sweep,
                                                      hot.time_index,
                                                      hot.initial, kMoments),
                            table.answers[0], kEpsilon);
      });
    else
      report.fail("the plain sweep is not in the serving cache");
    {
      const core::SolveSession cold(model, kTimes, opts, new_cache());
      prob::Rng miss_rng(opt.seed + 4);
      repeat_span("core.miss", kMinSolves, 1.0, cpus, [&] {
        core::SessionQuery q = hot;
        q.terminal_weights = random_weights(miss_rng, states);
        cold.query(q);
      });
    }
    if (!probes_ok) report.fail("a direct probe query returned wrong bits");

    const std::vector<Span> spans = Tracer::collect();
    const auto d = durations_us(spans);
    // The 4-thread solve split and snapshot saves under load: medians.
    // Setups and repeated one-thread probes: the fastest decile, as for
    // setup_s and the sweeps.
    const auto med = [&](const char* name) {
      const auto it = d.find(name);
      return it == d.end() ? 0.0 : median(it->second);
    };
    const auto fast = [&](const char* name) {
      const auto it = d.find(name);
      return it == d.end() ? 0.0 : fastest_decile(it->second);
    };
    std::vector<double> saves = admin_save_ms;
    if (const auto it = d.find("serve.snapshot_save"); it != d.end())
      for (double us : it->second) saves.push_back(us * 1e-3);
    const double nnz = static_cast<double>(qp.nnz());
    const double rows = static_cast<double>(qp.rows());
    const double width = static_cast<double>(kMoments + 1);
    // DESIGN §6 traffic model of one SpMM: the CSR structure once
    // (24 bytes per stored entry) plus one read and one write of a panel
    // row per state (banded gather). Computed, not counted.
    const double spmm_bytes = 24.0 * nnz + 16.0 * width * rows;
    const double spmm_us = fast("linalg.spmm");
    const double sweep_us = med("core.sweep_retained");
    const double sweep_1t_us = fast("core.sweep_retained_1t");
    const double step_1t_us = sweep_1t_us / static_cast<double>(steps);
    const double query_us = fast("core.query");
    const double finalize_direct_us = fast("core.finalize_direct");
    const double split_us = med("core.scale_model") + med("prob.truncation") +
                            med("prob.window") + sweep_us +
                            med("core.finalize");
    // Means, not medians: the per-query parts add up exactly to the time
    // from sending to the callback, and means of parts add where medians
    // do not. What the parts leave of the latency from the scheduled time
    // is generator lateness.
    std::vector<double> lo_latency_us;
    for (const std::int64_t ns : lo.hot_latency_ns)
      if (ns != std::numeric_limits<std::int64_t>::max())
        lo_latency_us.push_back(static_cast<double>(ns) * 1e-3);
    const double lo_layers = mean(lo.submit_us) + mean(lo.queue_us) +
                             mean(lo.exec_us) + mean(lo.deliver_us);
    std::vector<double> late_us;
    for (const PhaseResult* p : {&lo, &hi})
      for (std::int64_t ns : p->late_ns)
        late_us.push_back(static_cast<double>(ns) * 1e-3);
    const double lookups =
        static_cast<double>(cache.hits + cache.misses + cache.coalesced);

    report.layer = {
        {"models.build_ms", fast("models.build") * 1e-3, "ms"},
        {"io.save_model_ms", fast("io.save_model") * 1e-3, "ms"},
        {"io.load_model_ms", fast("io.load_model") * 1e-3, "ms"},
        {"serve.snapshot_load_ms", fast("serve.snapshot_load") * 1e-3, "ms"},
        {"serve.snapshot_save_ms", median(saves), "ms"},
        {"serve.snapshot_mb", snapshot_mib, "MiB"},
        {"core.scale_model_ms", med("core.scale_model") * 1e-3, "ms"},
        {"prob.truncation_us", med("prob.truncation"), "us"},
        {"prob.window_us", med("prob.window"), "us"},
        {"core.sweep_retained_ms", sweep_us * 1e-3, "ms"},
        {"core.finalize_us", med("core.finalize"), "us"},
        {"core.sweep_steps", static_cast<double>(steps), "count"},
        {"core.step_us", sweep_us / static_cast<double>(steps), "us"},
        {"core.step_1t_us", step_1t_us, "us"},
        {"core.sweep_4t_ms", fastest_decile(sweep4) * 1e3, "ms"},
        {"linalg.spmm_us", spmm_us, "us"},
        {"linalg.spmm_4t_us", fast("linalg.spmm_4t"), "us"},
        {"linalg.spmm_wide_us", fast("linalg.spmm_wide"), "us"},
        {"linalg.spmm_gbs", spmm_bytes / (spmm_us * 1e3), "GB/s"},
        {"linalg.accum_share", 1.0 - spmm_us / step_1t_us, "ratio"},
        {"linalg.parallel_eff",
         fastest_decile(sweep1) /
             (static_cast<double>(kSweepThreads) *
              fastest_decile(sweep4)),
         "ratio"},
        {"core.validate_us", fast("core.validate"), "us"},
        {"core.sweep_key_us", fast("core.sweep_key"), "us"},
        {"core.query_us", query_us, "us"},
        {"core.query_batch_us",
         fast("core.query_batch") / static_cast<double>(batch), "us"},
        {"core.finalize_direct_us", finalize_direct_us, "us"},
        {"core.hit_overhead_x", query_us / finalize_direct_us, "ratio"},
        {"core.miss_ms", fast("core.miss") * 1e-3, "ms"},
        {"serve.submit_us", median(lo.submit_us), "us"},
        {"serve.queue_us_p50", median(lo.queue_us), "us"},
        {"serve.queue_us_p99", quantile(lo.queue_us, 0.99), "us"},
        {"serve.exec_us", median(lo.exec_us), "us"},
        {"serve.deliver_us", median(lo.deliver_us), "us"},
        {"serve.batch_size", mean(hi.batch_size), "count"},
        {"serve.rss_growth_mb", serve_rss_growth_mib, "MiB"},
        {"serve.rejected",
         static_cast<double>(closed.rejected + lo.rejected + hi.rejected),
         "count"},
        {"core.cache_hit_ratio",
         lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0,
         "ratio"},
        {"core.cache_misses", static_cast<double>(cache.misses), "count"},
        {"core.cache_evictions", static_cast<double>(cache.evictions),
         "count"},
        {"core.cache_coalesced", static_cast<double>(cache.coalesced),
         "count"},
        {"gen.late_us_p99", quantile(late_us, 0.99), "us"},
        {"trace.overhead", 1.0 - qps_max / untraced_qps, "ratio"},
        {"trace.sweep_cover", split_us / (median(sweep4) * 1e6),
         "ratio"},
        {"trace.query_cover", lo_layers / mean(lo_latency_us), "ratio"},
    };
    report.layers = layer_self_times(spans);
    if (!opt.trace_path.empty() &&
        !write_chrome_trace(opt.trace_path, spans, 50000))
      report.fail("cannot write " + opt.trace_path);
  }

  engine.reset();
  std::error_code ignored;
  for (const std::string& path : {model_path, snap_path, admin_path})
    std::filesystem::remove(path, ignored);
  return report;
}

// -------------------------------------------------------------------- CLI

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "somrm_bench: %s\n"
               "usage: somrm_bench --workload <table2|hits_small|mixed_churn> "
               "--seed <n> --seconds <s> --trace <0|1> [--json <path>] "
               "[--trace-out <path>] [--work-dir <dir>] [--golden-dir <dir>] "
               "[--source-id <id>] [--smoke] [--write-golden]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (flag == "--write-golden") {
      opt.write_golden = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value, &used);
        have_seed = used == value.size() && value[0] != '-';
        if (!have_seed) usage("bad --seed " + value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value, &used);
        have_seconds = used == value.size() && opt.seconds > 0.0 &&
                       opt.seconds <= 600.0;
        if (!have_seconds) usage("bad --seconds " + value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace must be 0 or 1");
        opt.trace = value == "1";
        have_trace = true;
      } else if (flag == "--json") {
        opt.json_path = value;
      } else if (flag == "--trace-out") {
        opt.trace_path = value;
      } else if (flag == "--work-dir") {
        opt.work_dir = value;
      } else if (flag == "--golden-dir") {
        opt.golden_dir = value;
      } else if (flag == "--source-id") {
        opt.source_id = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  return opt;
}

void write_json(const Options& opt, const Report& r, bool correct,
                const std::string& host) {
  std::ofstream out(opt.json_path);
  out << "{\"workload\": " << json_string(opt.workload)
      << ", \"seed\": " << opt.seed
      << ", \"seconds\": " << json_number(opt.seconds)
      << ", \"trace\": " << (opt.trace ? 1 : 0)
      << ", \"smoke\": " << (opt.smoke ? "true" : "false")
      << ", \"host\": " << host << ", \"correct\": "
      << (correct ? "true" : "false") << ", \"attempted\": " << r.attempted
      << ", \"failed\": " << r.failed << ", \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i)
    out << (i ? ", " : "") << json_string(r.errors[i]);
  out << "], \"samples\": {";
  bool first_sample = true;
  for (const auto& [name, values] : r.samples) {
    out << (first_sample ? "" : ", ") << json_string(name) << ": [";
    for (std::size_t i = 0; i < values.size(); ++i)
      out << (i ? ", " : "") << json_number(values[i]);
    out << "]";
    first_sample = false;
  }
  out << "}, \"end_to_end\": " << json_metrics(r.e2e)
      << ", \"per_layer\": " << json_metrics(r.layer) << ", \"layers\": {";
  bool first = true;
  for (const auto& [name, t] : r.layers) {
    out << (first ? "" : ", ") << json_string(name) << ": {\"spans\": "
        << t.spans << ", \"self_ms\": " << json_number(t.self_ms) << "}";
    first = false;
  }
  out << "}}\n";
  if (!out) std::fprintf(stderr, "somrm_bench: cannot write %s\n",
                         opt.json_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (opt.workload == w.name) workload = &w;
  if (workload == nullptr) usage("unknown workload " + opt.workload);

  const std::string host =
      "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu\": " + json_string(cpu_model()) +
      ", \"llc_mib\": " + json_number(llc_mib()) +
      ", \"build_type\": " + json_string(SOMRM_BENCH_BUILD_TYPE) +
      ", \"cxx_flags\": " + json_string(SOMRM_BENCH_CXX_FLAGS) +
      ", \"compiler\": " + json_string(__VERSION__) +
      ", \"observability\": " + (obs::kEnabled ? "true" : "false") +
      ", \"source\": " + json_string(opt.source_id) + "}";
  std::printf("# somrm_bench %s seed %llu, %g s, trace %d%s\n# host %s\n",
              workload->name, static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.smoke ? ", smoke" : "",
              host.c_str());

  Tracer::enable(opt.trace);
  Report report;
  try {
    report = run(opt, *workload);
  } catch (const std::exception& e) {
    report.fail(std::string("aborted: ") + e.what());
    ++report.failed;
  }
  const bool correct = report.errors.empty();

  for (const Metric& m : report.e2e)
    std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  if (opt.trace) {
    for (const Metric& m : report.layer)
      std::printf("layer %s = %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    double total = 0.0;
    for (const auto& [name, t] : report.layers) total += t.self_ms;
    std::printf("# self time by layer (traced run)\n");
    for (const auto& [name, t] : report.layers)
      std::printf("#   %-8s %9zu spans %12.3f ms %6.2f %%\n", name.c_str(),
                  t.spans, t.self_ms, total > 0 ? 100.0 * t.self_ms / total : 0.0);
  }
  for (const std::string& e : report.errors)
    std::printf("# FAILED: %s\n", e.c_str());
  if (!opt.json_path.empty()) write_json(opt, report, correct, host);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  report.attempted, 1)),
              static_cast<unsigned long long>(report.failed),
              json_metrics(opt.trace ? report.layer : report.e2e).c_str());
  return correct ? 0 : 1;
}
