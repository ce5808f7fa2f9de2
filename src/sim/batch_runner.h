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
// of the sweep-family table below (MicrobenchFamily ... TenantFamily): the
// row names its Job and Point types, how a job is measured, its JSON
// projection and its job key, and one generic run_sweep / sweep_json /
// job_identity / codec path serves every row. Each bench_* main is a call
// to bench_main<Family> with its job list and its report callback, so the
// binaries share the parse -> observe -> sweep -> report -> emit skeleton
// and the same CLI surface:
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
// The timed perf family has no job key: it rejects --cache-dir and
// --journal, so a wall clock is never replayed.
//
// The observability flags feed the src/obs/ session the mains install via
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
#include <concepts>
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
  CacheStats cache;  // how each job was resolved
};

// ---------------------------------------------------------------------------
// The sweep-family table: one row per kind of sweep point.
//
// A row is a descriptor struct naming its Job and Point types, its family
// name (the codec blob header and the job key's family field), the mode
// list its points cover (the JSON meta header and the job key), how one
// job is measured, its JSON projection, and — for the cacheable families
// — its job-key text. Everything else is one generic function over the
// row: run_sweep, sweep_json, spec_grid and bench_main here, job_identity
// in sim/job_key.h, encode_point/decode_point in sim/sweep_codec.h. A new
// family is one row plus an entry in SEMPE_SWEEP_FAMILIES.

struct MicrobenchJob {
  std::string label;  // e.g. "fibonacci/W=10" or "ablation/spm/64B"
  workloads::Kind kind{};
  usize width = 0;
  MicrobenchOptions opt{};
};

struct DjpegJob {
  std::string label;  // e.g. "ppm/256k"
  workloads::OutputFormat format{};
  usize pixels = 0;
  usize scale = 8;
  u64 image_seed = 1;
};

/// A registry-resolved workload spec (see workloads/registry.h) plus the
/// options its measurement reads: MicrobenchOptions machine knobs for the
/// timing families, security::AuditOptions for the audit families.
template <typename Opt>
struct SpecJob {
  std::string label;  // e.g. "synthetic.ptr_chase/W=4"
  std::string spec;   // e.g. "synthetic.ptr_chase?size=4096&width=4"
  Opt opt{};
};
using WorkloadJob = SpecJob<MicrobenchOptions>;
using LeakageJob = SpecJob<security::AuditOptions>;

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

/// A cacheable family's job-key text (see sim/job_key.h).
struct KeyText {
  std::string spec;     // canonical spec text
  std::string machine;  // result-affecting options, "k=v k=v" text
};

/// One point's `"key": value` lines in a --json document (sweep_json).
class JsonFields;

struct MicrobenchFamily {
  using Job = MicrobenchJob;
  using Point = MicrobenchPoint;
  static constexpr const char* kName = "microbench";
  static constexpr const char* kModes = "legacy,sempe,cte,ideal";
  static Point measure(const Job& j) {
    return measure_microbench(j.kind, j.width, j.opt);
  }
  static KeyText key(const Job& j);
  static void json(JsonFields& out, const Job& j, const Point& p);
};

struct DjpegFamily {
  using Job = DjpegJob;
  using Point = DjpegPoint;
  static constexpr const char* kName = "djpeg";
  static constexpr const char* kModes = "legacy,sempe";
  static Point measure(const Job& j) {
    return measure_djpeg(j.format, j.pixels, j.scale, j.image_seed);
  }
  static KeyText key(const Job& j);
  static void json(JsonFields& out, const Job& j, const Point& p);
};

struct WorkloadFamily {
  using Job = WorkloadJob;
  using Point = WorkloadPoint;
  static constexpr const char* kName = "workload";
  static constexpr const char* kModes = "legacy,sempe,cte";
  static Point measure(const Job& j) { return measure_workload(j.spec, j.opt); }
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

/// The timed family of bench_perf. It has no key, so its points are never
/// cached or journaled: a replayed wall clock would be a wrong
/// measurement. run_sweep rejects --cache-dir and --journal for it.
struct PerfFamily {
  using Job = WorkloadJob;
  using Point = PerfPoint;
  static constexpr const char* kName = "perf";
  static constexpr const char* kModes = "legacy,sempe,cte";
  static Point measure(const Job& j) { return measure_perf(j.spec, j.opt); }
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
#define SEMPE_SWEEP_FAMILIES(X)                                        \
  X(MicrobenchFamily) X(DjpegFamily) X(WorkloadFamily) X(LeakageFamily) \
  X(LintFamily) X(PerfFamily) X(TenantFamily)

/// A family whose points may be replayed: it has a job key (and a codec
/// field list in sim/sweep_codec.h).
template <typename F>
concept CachedFamily = requires(const typename F::Job& j) {
  { F::key(j) } -> std::same_as<KeyText>;
};

/// Run a sweep: (for a cached family) journal and cache resolution of each
/// job, then parallel execution of whatever is left, with write-back as
/// each job retires. Throws SimError when asked to persist a family that
/// is not cached.
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

/// Cartesian sweep (kind-major, so a figure's series stay contiguous).
std::vector<MicrobenchJob> microbench_grid(
    const std::vector<workloads::Kind>& kinds, const std::vector<usize>& widths,
    const MicrobenchOptions& opt);
std::vector<DjpegJob> djpeg_grid(
    const std::vector<workloads::OutputFormat>& formats,
    const std::vector<usize>& pixel_sizes, usize scale);

/// The representative registry specs bench_perf times: every synthetic
/// kernel plus every crypto.*/ds.* scenario at the widest sweep setting
/// (width 4, all secrets true — every mode executes every level).
std::vector<std::string> perf_sweep_specs(usize iters);

/// The specs bench_leakage and bench_lint audit: every registered
/// workload except the attack.* ones (bench_tenants owns those) at width
/// 3, so the default 8 samples enumerate the whole 2^3 secret space, and
/// djpeg — no settable secret vector — as one small smoke image.
std::vector<std::string> registry_audit_specs(usize iters);

/// The four Fig. 7 microbenchmark kinds.
const std::vector<workloads::Kind>& all_kinds();
/// The four djpeg image sizes (pixels) of Figs. 8 and 9.
const std::vector<usize>& djpeg_sizes();

// ---------------------------------------------------------------------------
// Machine-readable results. Every document opens with a `meta` header
// (schema version, experiment name, workload description, mode list) ahead
// of the `points` array. The JSON contains only deterministic simulation
// outputs — no wall-clock times, and the header's `threads` field is the
// constant 0 ("thread-count invariant"; the actual worker count goes to
// stderr) — so a sweep serializes to byte-identical text for any --threads
// value. The one exception is the perf family, whose wall_ms,
// simulated_mips and ns_per_instr lines are the measurement;
// strip_perf_timing() removes exactly those lines.

inline constexpr int kResultSchemaVersion = 3;

/// The --json document of a sweep: `run.points[i]` is the point of
/// `jobs[i]`.
template <typename F>
std::string sweep_json(const std::string& experiment,
                       const std::vector<typename F::Job>& jobs,
                       const SweepRun<typename F::Point>& run);

/// Drop the wall-clock lines ("wall_ms", "simulated_mips",
/// "ns_per_instr") from a perf document, leaving the deterministic fields
/// for byte comparison across --threads values or hosts.
std::string strip_perf_timing(const std::string& json);

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
/// Anything left besides argv[0] is the caller's problem (the bench mains
/// treat leftovers as a usage error).
BatchCli parse_batch_cli(int& argc, char** argv);

/// Handle --help and argument errors for a bench main: prints the
/// diagnostic/usage and returns true with *exit_code set when main should
/// return immediately.
bool batch_cli_should_exit(const BatchCli& cli, int argc, char** argv,
                           const char* what, int* exit_code);

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

/// Print the shared usage text for a bench binary.
void print_batch_usage(const char* argv0, const char* what);

/// What a bench main's report callback sees of its sweep.
template <typename F>
struct BenchSweep {
  const std::vector<typename F::Job>& jobs;  // after --jobs filtering
  const SweepRun<typename F::Point>& run;
  double seconds;                            // sweep wall time
};

/// The whole of a bench main: parse the shared CLI, install observability,
/// apply --jobs, run the sweep, print the human report (`report(out,
/// sweep)` returns false to fail the exit status) and the stderr summary,
/// then write the observability outputs and the --json document.
template <typename F, typename Report>
int bench_main(int argc, char** argv, const char* experiment,
               const char* what, std::vector<typename F::Job> jobs,
               Report report) {
  const BatchCli cli = parse_batch_cli(argc, argv);
  int exit_code = 0;
  if (batch_cli_should_exit(cli, argc, argv, what, &exit_code))
    return exit_code;
  auto obs_session = make_obs_session(cli);
  apply_job_filter(jobs, cli);

  const Stopwatch sweep_sw;
  SweepRun<typename F::Point> run;
  try {
    run = run_sweep<F>(jobs, cli.sweep);
  } catch (const SimError& e) {
    obs::set_session(nullptr);
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const BenchSweep<F> sweep{jobs, run, sweep_sw.elapsed_seconds()};
  const bool ok = report(report_stream(cli), sweep);
  std::fprintf(stderr, "swept %zu points in %.2fs on %zu thread(s)\n",
               run.points.size(), sweep.seconds,
               resolve_threads(cli.sweep.threads, run.points.size()));

  if (!finish_obs_session(cli, experiment, std::move(obs_session))) return 1;
  if (cli.want_json &&
      !emit_json(cli, sweep_json<F>(experiment, jobs, run)))
    return 1;
  return ok ? 0 : 1;
}

}  // namespace sempe::sim
