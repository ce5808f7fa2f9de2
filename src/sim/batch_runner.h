// Parallel experiment driver ("batch runner") for the evaluation pipeline.
//
// Every figure/table of the paper is a sweep over independent experiment
// points: each point builds its own Program and Simulator from its config
// and is deterministic given that config (util/rng.h), so points can run
// concurrently with nothing shared. The runner spreads a job list over a
// thread pool and writes each result into a pre-sized vector slot by
// index, which makes the output ordering — and any JSON serialization of
// it — byte-identical regardless of thread count.
//
// Every sweep is a list of jobs of one family, and every family is one row
// of the sweep-family table below (workload, leakage, lint, tenant): the
// row names its Job and Point types, how a job is measured, its JSON
// projection and its job key, and one generic run_sweep / sweep_json /
// job_identity / codec path serves every row. Every timing point of the
// paper is a workload job over a registry spec — Table I, Fig. 10 and the
// ablations over micro.* specs, Figs. 8/9 over djpeg specs — so every such
// run has its results checked against the host mirror. A sweep
// resolves each distinct job key once — from the journal, the cache, or by
// executing it — and hands that point to every job sharing the key, which
// is sound because the key covers every input a measurement reads
// (sim/job_key.h).
// The sempe_bench binary (bench/sempe_bench.cpp) drives its experiment
// table through this path with the CLI surface parsed here:
//
//   --threads=N      worker threads (default: all hardware threads)
//   --json[=F]       emit machine-readable results to file F (or stdout)
//   --trace-out=F    Chrome trace-event timeline of the sweep (obs/)
//   --metrics-out=F  end-of-run structured metric report (obs/)
//   --progress       stderr progress meter (jobs done/total, ETA)
//   --jobs=REGEX     keep only jobs whose label matches REGEX
//   --shard=i/N      keep only shard i of a round-robin N-way partition
//                    of the surviving jobs
//   --cache-dir=D    content-addressed result cache (sim/sweep_cache.h)
//   --journal=F      append-only result journal; rerun to resume a
//                    killed sweep
//
// The observability flags feed the src/obs/ session the driver installs via
// make_obs_session(); none of them perturb the deterministic --json
// document (progress and the human report go to stderr, metrics and
// traces to their own files).
//
// The orchestration invariant: the --json document is a pure function of
// the job list. Thread count, a warm vs cold cache, and a resumed vs fresh
// sweep all produce byte-identical output — every one of those knobs only
// changes HOW the points get computed, never what they contain. --jobs and
// --shard only choose the job list: a sharded run is a filtered run whose
// document covers its subset. To reassemble a sharded sweep, run each
// shard with its own --cache-dir, copy the cache directories into one
// (entries are content-addressed files), and rerun the full sweep against
// it: every job is a cache hit, and the document is the unsharded one.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <regex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/report.h"
#include "sim/experiment.h"
#include "sim/sweep_cache.h"
#include "util/check.h"
#include "util/clock.h"

namespace sempe::sim {

/// Resolve a requested worker count: 0 means "all hardware threads"; the
/// result is clamped to [1, jobs] for jobs > 0.
usize resolve_threads(usize requested, usize jobs);

/// Run fn(i) for every i in [0, n) on up to `threads` workers and return
/// the results in index order. Job exceptions are captured and the
/// lowest-index one is rethrown after all workers join.
template <typename Fn>
auto run_indexed(usize n, usize threads, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, usize>> {
  using R = std::invoke_result_t<Fn&, usize>;
  std::vector<R> results(n);
  if (n == 0) return results;
  threads = resolve_threads(threads, n);
  if (threads <= 1) {
    for (usize i = 0; i < n; ++i) results[i] = fn(i);
    return results;
  }
  std::atomic<usize> next{0};
  std::mutex errors_mu;
  std::vector<std::pair<usize, std::exception_ptr>> errors;
  auto worker = [&] {
    for (;;) {
      const usize i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        results[i] = fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(errors_mu);
        errors.emplace_back(i, std::current_exception());
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (usize t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (!errors.empty()) {
    const auto first = std::min_element(
        errors.begin(), errors.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::rethrow_exception(first->second);
  }
  return results;
}

/// run_indexed with per-job observability: when a session is installed
/// (obs::session() != nullptr), each job gets a trace span named
/// label_of(i) on its worker's track — with its queue wait (sweep start to
/// job start) attached as an arg — plus a "job.execute_ns" timing
/// histogram sample, a deterministic "jobs.completed" count, and a
/// progress tick. With no session this forwards straight to run_indexed.
template <typename Fn, typename LabelFn>
auto run_indexed_labeled(usize n, usize threads, Fn&& fn, LabelFn&& label_of)
    -> std::vector<std::invoke_result_t<Fn&, usize>> {
  obs::Session* const os = obs::session();
  if (os == nullptr)
    return run_indexed(n, threads, std::forward<Fn>(fn));
  if (os->progress() != nullptr)
    os->progress()->start(n, resolve_threads(threads, n));
  const u64 sweep_epoch = mono_ns();
  const auto job_done = [os](const std::string& label, u64 begin_ns,
                             bool failed) {
    const u64 ns = mono_ns() - begin_ns;
    if (os->trace() != nullptr) os->trace()->end(label);
    os->timing().local().hist("job.execute_ns").record(ns);
    if (os->metrics_enabled())
      os->metrics().local().add(failed ? "jobs.failed" : "jobs.completed");
    if (os->progress() != nullptr) os->progress()->tick(ns);
  };
  const auto finish_sweep = [os, sweep_epoch] {
    os->timing().local().add("sweep.wall_ns", mono_ns() - sweep_epoch);
    os->timing().local().add("sweep.count");
    if (os->progress() != nullptr) os->progress()->finish();
  };
  try {
    auto results = run_indexed(n, threads, [&](usize i) {
      const u64 begin_ns = mono_ns();
      const std::string label = label_of(i);
      if (os->trace() != nullptr)
        os->trace()->begin(label, "queue_wait_us",
                           (begin_ns - sweep_epoch) / 1000);
      try {
        auto r = fn(i);
        job_done(label, begin_ns, /*failed=*/false);
        return r;
      } catch (...) {
        // Keep B/E spans balanced and the failure visible in the metrics.
        job_done(label, begin_ns, /*failed=*/true);
        throw;
      }
    });
    finish_sweep();
    return results;
  } catch (...) {
    // The rethrow path still records the sweep and terminates the
    // progress meter's \r line — otherwise the escaping exception's
    // diagnostic would land mid-line on a half-drawn meter.
    finish_sweep();
    throw;
  }
}

// ---------------------------------------------------------------------------
// Sweep orchestration options and results.

/// Everything that controls HOW a sweep executes. None of these fields
/// may change the result content (the byte-identity contract).
struct SweepOptions {
  usize threads = 0;         // 0 = all hardware threads
  std::string cache_dir;     // content-addressed cache root ("" = off)
  std::string journal_path;  // append-only result journal ("" = off)
  std::string fingerprint;   // "" = sempe::code_fingerprint()
};

/// The outcome of one orchestrated sweep: `points[i]` is the result of
/// job i of the list it was given.
template <typename Point>
struct SweepRun {
  std::vector<Point> points;
  CacheStats cache;  // how each distinct job key was resolved
};

// ---------------------------------------------------------------------------
// The sweep-family table: one row per kind of sweep point.
//
// A row is a descriptor struct naming its Job and Point types, its family
// name (the codec blob header and the job key's family field), the mode
// list its points cover (the JSON meta header and, unless the job's key
// text narrows it, the job key), how one job is measured, its JSON
// projection, and its job-key text. Everything
// else is one generic function over the row: run_sweep, sweep_json and
// spec_grid here, job_identity in sim/job_key.h, encode_point/decode_point
// in sim/sweep_codec.h. A new family is one row plus an entry in
// SEMPE_SWEEP_FAMILIES.

/// A registry-resolved workload spec (see workloads/registry.h) audited
/// over its secret space under `opt`.
struct LeakageJob {
  std::string label;  // e.g. "synthetic.ptr_chase/W=4"
  std::string spec;   // e.g. "synthetic.ptr_chase?size=4096&width=4"
  security::AuditOptions opt{};
};

/// A spec timed under the machine knobs of `opt`: every mode, or the
/// legacy baseline alone (the sum-of-paths ideals of Fig. 10b).
struct WorkloadJob {
  std::string label;  // e.g. "ones/W=4"
  std::string spec;   // e.g. "micro.ones?width=4&iters=20&secrets=0"
  MachineOptions opt{};
  bool legacy_only = false;  // reaches the job key as modes=legacy
};

/// One co-residence attack spec (workloads/attack.h) audited end-to-end
/// over the secret space (see measure_tenant). The victim spec, probe
/// knobs, and scheduler quantum all travel inside the spec parameters.
/// `tenants` is the co-residence degree; the attack workloads schedule
/// exactly 2 contexts today, but the count is part of the job identity so
/// a future N-tenant grid can never collide with 2-tenant cache entries.
struct TenantJob {
  std::string label;  // e.g. "attack.prime_probe/crypto.modexp"
  std::string spec;   // e.g. "attack.prime_probe?victim=crypto.modexp"
  usize tenants = 2;
  security::AuditOptions opt{};
};

/// A family's job-key text (see sim/job_key.h).
struct KeyText {
  std::string spec;     // canonical spec text
  std::string machine;  // result-affecting options, "k=v k=v" text
  std::string modes{};  // the modes the job runs ("": the row's kModes)
};

/// One point's `"key": value` lines in a --json document (sweep_json).
class JsonFields;

struct WorkloadFamily {
  using Job = WorkloadJob;
  using Point = WorkloadPoint;
  static constexpr const char* kName = "workload";
  static constexpr const char* kModes = "legacy,sempe,cte";
  static Point measure(const Job& j) {
    return measure_workload(j.spec, j.opt, j.legacy_only);
  }
  static KeyText key(const Job& j);
  static void json(JsonFields& out, const Job& j, const Point& p);
};

struct LeakageFamily {
  using Job = LeakageJob;
  using Point = LeakagePoint;
  static constexpr const char* kName = "leakage";
  static constexpr const char* kModes = "legacy,sempe,cte";
  static Point measure(const Job& j) { return measure_leakage(j.spec, j.opt); }
  static KeyText key(const Job& j);
  static void json(JsonFields& out, const Job& j, const Point& p);
};

struct LintFamily {
  using Job = LeakageJob;  // the audit options drive the dynamic half
  using Point = LintPoint;
  static constexpr const char* kName = "lint";
  static constexpr const char* kModes = "legacy,sempe,cte";
  static Point measure(const Job& j) { return measure_lint(j.spec, j.opt); }
  static KeyText key(const Job& j);
  static void json(JsonFields& out, const Job& j, const Point& p);
};

struct TenantFamily {
  using Job = TenantJob;
  using Point = TenantPoint;
  static constexpr const char* kName = "tenant";
  static constexpr const char* kModes = "legacy,sempe,cte";
  static Point measure(const Job& j) { return measure_tenant(j.spec, j.opt); }
  static KeyText key(const Job& j);
  static void json(JsonFields& out, const Job& j, const Point& p);
};

/// The table: X(row) once per family.
#define SEMPE_SWEEP_FAMILIES(X) \
  X(WorkloadFamily) X(LeakageFamily) X(LintFamily) X(TenantFamily)

/// Run a sweep: resolve each distinct job key once, in first-occurrence
/// order — from the journal, then the cache, and otherwise by parallel
/// execution with write-back as each job retires — and copy the point to
/// every job sharing the key. With neither a cache nor a journal every
/// distinct key executes, and the sweep prints and exports no cache
/// accounting.
template <typename F>
SweepRun<typename F::Point> run_sweep(const std::vector<typename F::Job>& jobs,
                                      const SweepOptions& opt);

/// One job per spec; labels default to the spec text.
template <typename F>
std::vector<typename F::Job> spec_grid(const std::vector<std::string>& specs,
                                       const decltype(F::Job::opt)& opt) {
  std::vector<typename F::Job> jobs(specs.size());
  for (usize i = 0; i < specs.size(); ++i) {
    jobs[i].label = jobs[i].spec = specs[i];
    jobs[i].opt = opt;
  }
  return jobs;
}

// The per-family names perfbench/perfbench.cpp calls.
inline constexpr auto& run_workload_sweep = run_sweep<WorkloadFamily>;
inline constexpr auto& run_leakage_sweep = run_sweep<LeakageFamily>;
inline constexpr auto& run_tenant_sweep = run_sweep<TenantFamily>;
inline constexpr auto& workload_grid = spec_grid<WorkloadFamily>;
inline constexpr auto& leakage_grid = spec_grid<LeakageFamily>;
inline constexpr auto& tenant_grid = spec_grid<TenantFamily>;
using MicrobenchPoint = WorkloadPoint;  // for MicrobenchPoint::ratio

/// The specs the leakage and lint experiments audit: every registered
/// workload except the attack.* ones (the tenants experiment owns those)
/// at width 3, so the default 8 samples enumerate the whole 2^3 secret
/// space, and djpeg — no settable secret vector — as one small smoke
/// image.
std::vector<std::string> registry_audit_specs(usize iters);

// ---------------------------------------------------------------------------
// Machine-readable results. Every document opens with a `meta` header
// (schema version, experiment name, workload description, mode list) ahead
// of the `points` array. The JSON contains only deterministic simulation
// outputs — no wall-clock times, and the header's `threads` field is the
// constant 0 ("thread-count invariant"; the actual worker count goes to
// stderr) — so a sweep serializes to byte-identical text for any --threads
// value.

inline constexpr int kResultSchemaVersion = 4;

/// The --json document of a sweep: `run.points[i]` is the point of
/// `jobs[i]`.
template <typename F>
std::string sweep_json(const std::string& experiment,
                       const std::vector<typename F::Job>& jobs,
                       const SweepRun<typename F::Point>& run);

// ---------------------------------------------------------------------------
// Shared bench CLI.

struct BatchCli {
  SweepOptions sweep;       // --threads, --cache-dir, --journal
  bool want_json = false;
  std::string json_path;    // empty with want_json set = stdout
  std::string trace_path;   // --trace-out=F (empty: tracing off)
  std::string metrics_path; // --metrics-out=F (empty: metrics off)
  bool progress = false;    // --progress: stderr sweep progress meter
  std::string jobs_regex;   // --jobs=REGEX (empty: keep every job)
  usize shard_index = 0;    // --shard=i/N: keep shard i ...
  usize shard_count = 1;    // ... of N (1: keep every job)
  bool help = false;
  bool ok = true;           // false: unrecognized argument
  std::string error;        // the offending argument
};

/// Strip the shared bench flags out of argv, compacting argc.
/// Anything left besides argv[0] is the caller's (sempe_bench reads the
/// leftovers as experiment names).
BatchCli parse_batch_cli(int& argc, char** argv);

/// Apply --jobs=REGEX, then --shard=i/N. --jobs drops every job whose
/// label does not match (std::regex_search, ECMAScript grammar); --shard
/// then keeps the surviving jobs at positions p with p % N == i.
/// Round-robin rather than contiguous blocks, so every shard samples the
/// whole grid — jobs at nearby positions tend to share a generator and a
/// cost profile. An empty surviving list is legal — the sweep runs zero
/// jobs and the JSON has an empty points array. parse_batch_cli has
/// already validated the pattern and the shard.
template <typename Job>
void apply_job_filter(std::vector<Job>& jobs, const BatchCli& cli) {
  if (!cli.jobs_regex.empty()) {
    const std::regex re(cli.jobs_regex);
    std::erase_if(jobs,
                  [&](const Job& j) { return !std::regex_search(j.label, re); });
  }
  if (cli.shard_count <= 1) return;
  std::vector<Job> shard;
  for (usize p = cli.shard_index; p < jobs.size(); p += cli.shard_count)
    shard.push_back(std::move(jobs[p]));
  jobs = std::move(shard);
}

/// Stream for the human-readable report: stderr when the JSON goes to
/// stdout (bare --json), so `bench --json | jq .` stays parseable; stdout
/// otherwise.
std::FILE* report_stream(const BatchCli& cli);

/// Write `json` to cli.json_path (stdout when empty). Returns false and
/// prints a diagnostic on I/O failure.
bool emit_json(const BatchCli& cli, const std::string& json);

/// Build the observability session the CLI flags ask for and install it
/// as the process-global (obs::set_session). Returns nullptr — and
/// installs nothing — when no observability flag was given, so the
/// unobserved sweep path is byte-for-byte the pre-observability code.
std::unique_ptr<obs::Session> make_obs_session(const BatchCli& cli);

/// Uninstall the global session and write the --trace-out /
/// --metrics-out files. A null session is a no-op returning true;
/// otherwise returns false (with a stderr diagnostic) on I/O failure.
bool finish_obs_session(const BatchCli& cli, const std::string& experiment,
                        std::unique_ptr<obs::Session> session);

/// Serialize and write a session's outputs (either path may be empty =
/// skip). Shared by finish_obs_session and the sempe_run driver.
bool write_obs_outputs(obs::Session& session, const std::string& experiment,
                       const std::string& trace_path,
                       const std::string& metrics_path);

/// Print the shared usage text of the bench binary.
void print_batch_usage(const char* argv0, const char* what);

}  // namespace sempe::sim
