// sempe_run — assemble and execute a SeMPE assembly file, or build and
// execute any workload registered with the workload registry.
//
//   build/examples/sempe_run FILE.s          [--mode=sempe|legacy]
//                                            [--timeline] [--no-verify]
//                                            [--trace]
//   build/examples/sempe_run --workload=SPEC [--mode=sempe|legacy]
//                                            [--variant=secure|cte]
//                                            [--timeline] [--trace]
//   build/examples/sempe_run --audit=SPEC    [--samples=N] [--seed=N]
//                                            [--progress]
//   build/examples/sempe_run --lint=SPEC
//   build/examples/sempe_run --list-workloads
//
// Any simulating mode (FILE.s, --workload, --audit) also accepts
// --trace-out=F (Chrome trace-event timeline) and --metrics-out=F
// (structured metric report) — the src/obs/ observability outputs.
//
// --audit runs as a one-job sweep through sim/batch_runner.h, so it also
// accepts the shared orchestration flags — --json[=F], --cache-dir=D,
// --journal=F, --jobs=REGEX, --shard=i/N, --threads=N — with exactly the
// semantics of `sempe_bench leakage` (a warm cache replays the stored
// audit; --shard or --jobs may leave the single job to another
// invocation). The other
// modes run one simulation directly and reject those flags.
//
// FILE.s is assembled (see isa/assembler.h for the grammar), statically
// verified, and run on the selected core. --workload=SPEC instead resolves
// a `name?key=val&...` spec (e.g. synthetic.ptr_chase?size=4096&stride=64)
// through workloads/registry.h, runs it, and checks the merged results
// against the host-computed expectations. --audit=SPEC sweeps the spec
// over a sampled secret space and reports the per-channel
// indistinguishability verdict for each execution mode (security/audit.h).
// --lint=SPEC runs the static secret-taint lint over both variants
// (security/taint_lint.h) and reports every finding per policy.
// --timeline dumps the first 64 rows of the pipeline schedule; --trace
// prints the observable-channel summary.
//
// A ready-made assembly input lives at examples/demo.s.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/region_verifier.h"
#include "isa/assembler.h"
#include "security/audit.h"
#include "security/taint_lint.h"
#include "sim/batch_runner.h"
#include "sim/simulator.h"
#include "sim/timeline.h"
#include "workloads/registry.h"

using namespace sempe;

namespace {

void print_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s FILE.s          [--mode=sempe|legacy] [--timeline] "
               "[--no-verify] [--trace]\n"
               "       %s --workload=SPEC [--mode=sempe|legacy] "
               "[--variant=secure|cte] [--timeline] [--trace]\n"
               "       %s --audit=SPEC    [--samples=N] [--seed=N] "
               "[--stat-samples=N]\n"
               "                          [--stat-budget=N] "
               "[--confidence=X] [--progress]\n"
               "       %s --lint=SPEC\n"
               "       %s --list-workloads\n"
               "simulating modes also accept --trace-out=FILE "
               "(chrome://tracing timeline)\nand --metrics-out=FILE "
               "(structured metric report)\n"
               "--audit also accepts the shared sweep flags: --json[=FILE] "
               "--cache-dir=DIR\n--journal=FILE --jobs=REGEX --shard=i/N "
               "--threads=N\n"
               "a ready-made assembly input lives at examples/demo.s, e.g.:\n"
               "  %s examples/demo.s --timeline\n"
               "registered workloads (SPEC is name or name?key=val&...):\n",
               argv0, argv0, argv0, argv0, argv0, argv0);
  for (const std::string& n : workloads::WorkloadRegistry::instance().names())
    std::fprintf(stderr, "  %s\n", n.c_str());
}

int list_workloads() {
  // The full catalog: summary, every parameter with its default, and the
  // secret width of the default spec, per generator.
  std::printf("registered workloads:\n%s",
              workloads::WorkloadRegistry::instance().catalog().c_str());
  std::printf(
      "\nspec grammar: name?key=val&key=val  "
      "(e.g. synthetic.ptr_chase?size=4096&stride=64)\n");
  return 0;
}

void print_stats(const sim::RunResult& r, cpu::ExecMode mode) {
  std::printf("\nmode: %s\n",
              mode == cpu::ExecMode::kSempe ? "SeMPE" : "legacy");
  std::printf("instructions: %llu\ncycles:       %llu\nCPI:          %.2f\n",
              (unsigned long long)r.instructions,
              (unsigned long long)r.stats.cycles, r.stats.cpi());
  std::printf("branches:     %llu (%llu mispredicted)\n",
              (unsigned long long)r.stats.cond_branches,
              (unsigned long long)r.stats.branch_mispredicts);
  std::printf("secure:       %llu sJMP, %llu regions, %llu SPM bytes\n",
              (unsigned long long)r.stats.sjmp_executed,
              (unsigned long long)r.stats.secure_regions_completed,
              (unsigned long long)r.stats.spm_bytes);
  std::printf("caches:       IL1 %.2f%%  DL1 %.2f%%  L2 %.2f%% miss\n",
              r.stats.il1_miss_rate() * 100, r.stats.dl1_miss_rate() * 100,
              r.stats.l2_miss_rate() * 100);
}

void print_trace(const sim::RunResult& r) {
  std::printf("\nobservable channels: %llu fetch events, %llu memory "
              "events, fetch hash %016llx, memory hash %016llx\n",
              (unsigned long long)r.trace.fetch_count,
              (unsigned long long)r.trace.mem_count,
              (unsigned long long)r.trace.fetch_hash,
              (unsigned long long)r.trace.mem_hash);
}

int run_workload(const std::string& spec_text, cpu::ExecMode mode,
                 workloads::Variant variant, bool timeline, bool trace) {
  const workloads::BuiltWorkload w =
      workloads::WorkloadRegistry::instance().build(spec_text, variant);
  std::printf("workload: %s (%s variant, %zu instructions, %zu result "
              "word(s))\n",
              w.spec.c_str(),
              variant == workloads::Variant::kCte ? "CTE" : "secure",
              w.program.num_instructions(), w.num_results);

  sim::RunConfig rc;
  rc.core.mode = mode;
  rc.probe_addr = w.results_addr;
  rc.probe_words = w.num_results;
  const auto r = sim::run(w.program, rc);
  print_stats(r, mode);

  const bool ok = r.probed == w.expected_results;
  std::printf("results:      ");
  for (const u64 v : r.probed) std::printf("%016llx ", (unsigned long long)v);
  std::printf("\nexpected:     ");
  for (const u64 v : w.expected_results)
    std::printf("%016llx ", (unsigned long long)v);
  if (ok) {
    std::printf("\ncheck:        OK\n");
  } else {
    std::printf("\ncheck:        MISMATCH (%s mode, %s variant): %s\n",
                mode == cpu::ExecMode::kSempe ? "sempe" : "legacy",
                variant == workloads::Variant::kCte ? "cte" : "secure",
                sim::first_result_mismatch(r.probed, w.expected_results)
                    .c_str());
  }

  if (trace) print_trace(r);
  if (timeline)
    std::printf("\n%s", sim::capture_timeline(w.program, mode, 64).c_str());
  return ok ? 0 : 3;
}

int run_audit(const std::string& spec_text, const security::AuditOptions& base,
              const sim::BatchCli& cli) {
  security::AuditOptions opt = base;
  opt.progress = cli.progress;
  // The audit is a one-job sweep through the shared orchestration path,
  // which is what makes --cache-dir / --journal / --shard / --jobs work
  // here: a warm cache replays the stored WorkloadAudit verbatim.
  auto jobs = sim::leakage_grid({spec_text}, opt);
  sim::apply_job_filter(jobs, cli);
  const auto run = sim::run_sweep<sim::LeakageFamily>(jobs, cli.sweep);

  bool ok = true;
  for (const auto& pt : run.points) {
    std::printf("%s", pt.audit.to_string().c_str());
    // Gate on the results of EVERY mode, like `sempe_bench leakage`: a
    // legacy/CTE run that went functionally wrong must not exit clean.
    const bool results_ok = pt.results_ok();
    const bool point_ok = pt.sempe_closed() && results_ok;
    std::printf("verdict: %s\n",
                point_ok ? "SeMPE closes every observed channel"
                         : (results_ok ? "SeMPE LEAKS — see above"
                                       : "RESULTS MISMATCH — see above"));
    ok = ok && point_ok;
  }
  if (run.points.empty())
    std::fprintf(stderr,
                 "audit: the job was filtered out or belongs to another "
                 "shard; nothing ran\n");
  if (cli.want_json &&
      !sim::emit_json(cli,
                      sim::sweep_json<sim::LeakageFamily>("audit", jobs, run)))
    return 1;
  return ok ? 0 : 3;
}

int run_lint(const std::string& spec_text) {
  const security::WorkloadLint lint = security::lint_workload(spec_text);
  std::printf("%s\n", lint.to_string().c_str());
  // Gate like the lint experiment's per-workload half: the CTE binary must
  // lint fully clean, and a secret-bearing natural binary the legacy policy
  // calls clean would mean the lint lost the taint.
  bool ok = true;
  if (lint.has_cte && !lint.cte.clean()) ok = false;
  if (lint.secret_width > 0 && lint.natural_legacy.clean()) ok = false;
  std::printf("verdict: %s\n",
              ok ? (lint.natural_sempe.clean()
                        ? "CTE discipline holds; SeMPE covers every secret "
                          "branch"
                        : "CTE discipline holds; SeMPE-policy findings "
                          "remain (see above)")
                 : "LINT GATE FAILED — see above");
  return ok ? 0 : 3;
}

int run_assembly(const char* path, cpu::ExecMode mode, bool timeline,
                 bool verify, bool trace) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open '%s'\n", path);
    return 1;
  }
  std::ostringstream src;
  src << in.rdbuf();

  const isa::Program prog = isa::assemble(src.str());
  std::printf("%zu instructions assembled from %s\n", prog.num_instructions(),
              path);

  if (verify) {
    core::VerifyOptions vo;
    vo.allow_div = true;
    const auto vr = core::verify_secure_regions(prog, vo);
    std::printf("secure-region verifier: %s", vr.to_string().c_str());
    if (!vr.ok()) std::printf("(use --no-verify to run anyway)\n");
    if (!vr.ok()) return 2;
  }

  sim::RunConfig rc;
  rc.core.mode = mode;
  const auto r = sim::run(prog, rc);
  print_stats(r, mode);
  std::printf("registers:    x4=%lld x5=%lld x6=%lld x20=%lld\n",
              (long long)r.final_state.get_int(4),
              (long long)r.final_state.get_int(5),
              (long long)r.final_state.get_int(6),
              (long long)r.final_state.get_int(20));
  if (trace) print_trace(r);
  if (timeline)
    std::printf("\n%s", sim::capture_timeline(prog, mode, 64).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The shared sweep/observability flags (--threads, --json, --trace-out,
  // --metrics-out, --progress, --shard, --cache-dir, --journal, --jobs,
  // --help) are stripped out of argv by the batch-runner parser; the loop
  // below owns only the sempe_run-specific flags.
  const sim::BatchCli cli = sim::parse_batch_cli(argc, argv);
  if (!cli.ok) {
    std::fprintf(stderr, "bad argument '%s'\n", cli.error.c_str());
    print_usage(argv[0]);
    return 1;
  }
  if (cli.help) {
    print_usage(argv[0]);
    return 0;
  }

  const char* path = nullptr;
  std::string workload, audit, lint;
  cpu::ExecMode mode = cpu::ExecMode::kSempe;
  workloads::Variant variant = workloads::Variant::kSecure;
  bool timeline = false, verify = true, trace = false, list = false;
  bool variant_set = false, no_verify_set = false, mode_set = false;
  security::AuditOptions audit_opt;
  bool samples_set = false, seed_set = false, stat_set = false;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (!std::strcmp(a, "--mode=legacy")) {
      mode = cpu::ExecMode::kLegacy;
      mode_set = true;
    } else if (!std::strcmp(a, "--mode=sempe")) {
      mode = cpu::ExecMode::kSempe;
      mode_set = true;
    }
    else if (!std::strncmp(a, "--audit=", 8)) audit = a + 8;
    else if (!std::strncmp(a, "--lint=", 7)) lint = a + 7;
    else if (!std::strncmp(a, "--samples=", 10)) {
      audit_opt.samples =
          static_cast<usize>(std::strtoull(a + 10, nullptr, 10));
      samples_set = true;
    } else if (!std::strncmp(a, "--seed=", 7)) {
      audit_opt.seed = std::strtoull(a + 7, nullptr, 10);
      seed_set = true;
    } else if (!std::strncmp(a, "--stat-samples=", 15)) {
      audit_opt.stat_samples =
          static_cast<usize>(std::strtoull(a + 15, nullptr, 10));
      stat_set = true;
    } else if (!std::strncmp(a, "--stat-budget=", 14)) {
      audit_opt.stat_budget =
          static_cast<usize>(std::strtoull(a + 14, nullptr, 10));
      stat_set = true;
    } else if (!std::strncmp(a, "--confidence=", 13)) {
      audit_opt.confidence = std::strtod(a + 13, nullptr);
      stat_set = true;
      if (!(audit_opt.confidence > 0.0)) {
        std::fprintf(stderr, "--confidence must be a positive |t| bound\n");
        return 1;
      }
    } else if (!std::strcmp(a, "--variant=secure")) {
      variant = workloads::Variant::kSecure;
      variant_set = true;
    } else if (!std::strcmp(a, "--variant=cte")) {
      variant = workloads::Variant::kCte;
      variant_set = true;
    } else if (!std::strcmp(a, "--timeline")) timeline = true;
    else if (!std::strcmp(a, "--no-verify")) {
      verify = false;
      no_verify_set = true;
    } else if (!std::strcmp(a, "--trace")) trace = true;
    else if (!std::strcmp(a, "--list-workloads")) list = true;
    else if (!std::strncmp(a, "--workload=", 11)) workload = a + 11;
    else if (a[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", a);
      print_usage(argv[0]);
      return 1;
    } else if (path == nullptr) {
      path = a;
    } else {
      std::fprintf(stderr, "more than one input file ('%s', '%s')\n", path, a);
      print_usage(argv[0]);
      return 1;
    }
  }

  // The shared sweep flags only make sense for --audit, the one mode that
  // dispatches through the batch runner.
  const char* sweep_flag = cli.want_json          ? "--json"
                           : cli.sweep.threads != 0 ? "--threads"
                           : cli.shard_count != 1 ? "--shard"
                           : !cli.sweep.cache_dir.empty() ? "--cache-dir"
                           : !cli.sweep.journal_path.empty() ? "--journal"
                           : !cli.jobs_regex.empty() ? "--jobs"
                                                     : nullptr;

  if (list) {
    if (argc > 2 || sweep_flag != nullptr || cli.progress ||
        !cli.trace_path.empty() || !cli.metrics_path.empty()) {
      std::fprintf(stderr, "--list-workloads takes no other arguments\n");
      return 1;
    }
    return list_workloads();
  }
  const int inputs =
      (path != nullptr ? 1 : 0) + (!workload.empty() ? 1 : 0) +
      (!audit.empty() ? 1 : 0) + (!lint.empty() ? 1 : 0);
  if (inputs != 1) {
    // Exactly one of FILE.s / --workload / --audit / --lint; anything else
    // is a usage error.
    print_usage(argv[0]);
    return 1;
  }
  // Refuse flags that would otherwise be silently ignored in this mode.
  if (audit.empty() && (samples_set || seed_set || stat_set)) {
    std::fprintf(stderr,
                 "--samples/--seed/--stat-samples/--stat-budget/--confidence "
                 "only apply to --audit\n");
    return 1;
  }
  if (audit.empty() && sweep_flag != nullptr) {
    std::fprintf(stderr,
                 "%s only applies to --audit (the other modes run one "
                 "simulation, not a sweep)\n",
                 sweep_flag);
    return 1;
  }
  if (cli.progress && audit.empty()) {
    std::fprintf(stderr,
                 "--progress only applies to --audit (single runs have no "
                 "sweep to report on)\n");
    return 1;
  }
  if (!lint.empty() && (!cli.trace_path.empty() || !cli.metrics_path.empty())) {
    std::fprintf(stderr,
                 "--trace-out/--metrics-out do not apply to --lint (static "
                 "analysis, nothing is simulated)\n");
    return 1;
  }
  if (!audit.empty() &&
      (timeline || trace || variant_set || no_verify_set || mode_set)) {
    std::fprintf(stderr,
                 "--audit runs its own mode matrix; --mode/--timeline/"
                 "--trace/--variant/--no-verify do not apply\n");
    return 1;
  }
  if (!lint.empty() &&
      (timeline || trace || variant_set || no_verify_set || mode_set)) {
    std::fprintf(stderr,
                 "--lint analyzes both variants statically; --mode/"
                 "--timeline/--trace/--variant/--no-verify do not apply\n");
    return 1;
  }
  if (!workload.empty() && no_verify_set) {
    std::fprintf(stderr,
                 "--no-verify only applies to assembly inputs (generated "
                 "workloads are not run through the verifier)\n");
    return 1;
  }
  if (path != nullptr && variant_set) {
    std::fprintf(stderr,
                 "--variant only applies to --workload (an assembly file is "
                 "already one fixed variant)\n");
    return 1;
  }

  // Observability session for the simulating modes; installed before the
  // dispatch so sim::run / audit_workload pick it up.
  obs::Session::Options oopt;
  oopt.metrics = !cli.metrics_path.empty();
  oopt.trace = !cli.trace_path.empty();
  std::unique_ptr<obs::Session> session;
  if (oopt.metrics || oopt.trace) {
    session = std::make_unique<obs::Session>(oopt);
    obs::set_session(session.get());
  }

  int code;
  try {
    if (!lint.empty()) code = run_lint(lint);
    else if (!audit.empty()) code = run_audit(audit, audit_opt, cli);
    else if (!workload.empty())
      code = run_workload(workload, mode, variant, timeline, trace);
    else code = run_assembly(path, mode, timeline, verify, trace);
  } catch (const SimError& e) {
    obs::set_session(nullptr);
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  obs::set_session(nullptr);
  if (session != nullptr) {
    const std::string experiment = !audit.empty()     ? "audit"
                                   : !workload.empty() ? "workload"
                                                       : "assembly";
    if (!sim::write_obs_outputs(*session, experiment, cli.trace_path,
                                cli.metrics_path))
      return 1;
  }
  return code;
}
