// sempe_bench — the paper's evaluation (Tables I-II, Figs. 8-10, the
// Section IV-F ablations) and the security sweeps as one binary over an
// experiment table.
//
// A row is one experiment: name, usage title, job-list builder and report.
// `sempe_bench [NAME...]` runs the named rows (default: all). The driver
// applies --jobs/--shard to each row's own job list, concatenates the rows
// of each sweep family and sweeps every family once through sim::run_sweep,
// which runs each distinct job key once (Fig. 9 re-reports Fig. 8's points;
// Fig. 10b, Tables I and II and the ablation share Fig. 10a's; lint
// re-reports leakage's audits). Each row
// then, in table order, prints its report and emits its --json document
// exactly as it would alone; several documents are written back to back, a
// stream `jq` reads as is. The exit status is nonzero if any row's gate
// fails.
// Environment knobs (sim::env_usize rejects malformed values):
// SEMPE_BENCH_ITERS, SEMPE_DJPEG_SCALE (1 = paper-sized images),
// SEMPE_AUDIT_SAMPLES, SEMPE_STAT_SAMPLES and SEMPE_STAT_BUDGET.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <functional>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "sim/batch_runner.h"
#include "sim/machine_config.h"
#include "workloads/registry.h"
#include "workloads/scenarios.h"
#include "workloads/synthetic.h"

namespace {

using namespace sempe;
using sim::BatchCli;
using workloads::Kind;

/// A job list and its points: one row's, which its report sees, or one
/// family's pool, the concatenated rows of the family swept once.
template <typename F>
struct Sweep {
  std::vector<typename F::Job> jobs;     // after --jobs / --shard
  sim::SweepRun<typename F::Point> run;  // run.points[i] is jobs[i]'s
};
using WorkloadSweep = Sweep<sim::WorkloadFamily>;
using AuditSweep = Sweep<sim::AuditFamily>;
using Pools = std::tuple<WorkloadSweep, AuditSweep>;

/// A queued row's second half, run after the sweeps: print the report,
/// append the --json document to `*json` (if non-null), return the gate.
using Finish = std::function<bool(std::FILE* out, std::string* json)>;

struct Experiment {
  const char* name;
  const char* title;
  /// Build the row's jobs, filter them, and queue them in their pool.
  std::function<Finish(Pools&, const BatchCli&)> queue;
};

template <typename F>
Experiment row(const char* name, const char* title,
               std::vector<typename F::Job> (*build)(),
               bool (*report)(std::FILE*, const Sweep<F>&),
               sim::JsonProjection<F> project = &F::json) {
  return {name, title, [=](Pools& pools, const BatchCli& cli) -> Finish {
            std::vector<typename F::Job> jobs = build();
            sim::apply_job_filter(jobs, cli);
            Sweep<F>& pool = std::get<Sweep<F>>(pools);
            const auto begin = static_cast<std::ptrdiff_t>(pool.jobs.size());
            pool.jobs.insert(pool.jobs.end(), jobs.begin(), jobs.end());
            return [=, &pool](std::FILE* out, std::string* json) {
              Sweep<F> sweep{jobs, {}};
              const auto first = pool.run.points.begin() + begin;
              sweep.run.points.assign(first, first + std::ssize(jobs));
              const bool ok = report(out, sweep);
              if (json != nullptr)
                *json +=
                    sim::sweep_json<F>(name, sweep.jobs, sweep.run, project);
              return ok;
            };
          }};
}

// The grids of the paper's figures: the four Fig. 7 microbenchmark kinds,
// Fig. 10's nesting depths and the four djpeg image sizes (pixels) of
// Figs. 8 and 9.
const std::vector<Kind> kKinds = {Kind::kFibonacci, Kind::kOnes,
                                  Kind::kQuicksort, Kind::kQueens};
const std::vector<usize> kFig10Widths = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
const std::vector<usize> kDjpegSizes = {256 * 1024, 512 * 1024, 1024 * 1024,
                                        2048 * 1024};

/// A point whose results diverge from the host mirror prints the mismatch
/// and fails its row.
bool results_gate(std::FILE* out, const sim::WorkloadPoint& pt) {
  if (!pt.results_ok)
    std::fprintf(out, "  !! %s\n", pt.mismatch_summary().c_str());
  return pt.results_ok;
}

// Tables I and II, Fig. 10 and the ablations time the Fig. 7
// microbenchmark (micro.* registry specs) with every secret false: the
// baseline skips every guarded body, which is what makes the Fig. 10
// slowdown ~ W+1.

/// The micro.* spec of `kind` at nesting depth `w`, without its secrets.
std::string micro_spec(Kind kind, usize w) {
  return std::string("micro.") + workloads::kind_name(kind) +
         "?width=" + std::to_string(w) + "&iters=" +
         std::to_string(sim::env_usize("SEMPE_BENCH_ITERS", 20));
}

sim::WorkloadJob micro_job(std::string label, Kind kind, usize w,
                           const sim::MachineOptions& opt = {}) {
  return {std::move(label), micro_spec(kind, w) + "&secrets=0", opt};
}

/// The label of a Table I / Fig. 10 point, e.g. "ones/W=3".
std::string nest_label(Kind kind, usize w) {
  return std::string(workloads::kind_name(kind)) + "/W=" + std::to_string(w);
}

/// The kernel and nesting depth of a micro.* point, read from its spec.
struct Nest {
  std::string kind;
  usize width;
};
Nest nest_of(const sim::WorkloadPoint& pt) {
  const auto spec = workloads::WorkloadSpec::parse(pt.spec);
  return {spec.name.substr(spec.name.find('.') + 1),
          static_cast<usize>(spec.get_u64("width", 0))};
}

/// The point of the job labelled `label`, or nullptr when a --jobs or
/// --shard filter dropped it.
const sim::WorkloadPoint* find(const WorkloadSweep& sweep,
                               const std::string& label) {
  for (usize k = 0; k < sweep.jobs.size(); ++k)
    if (sweep.jobs[k].label == label) return &sweep.run.points[k];
  return nullptr;
}

/// Gate every point of a sweep (see results_gate).
bool gate_all(std::FILE* out, const WorkloadSweep& sweep) {
  bool all_ok = true;
  for (const auto& pt : sweep.run.points)
    all_ok = results_gate(out, pt) && all_ok;
  return all_ok;
}

// Table I's CTE and SeMPE rows are measured at the paper's deepest nesting
// (W = 10), as Table I cites the microbenchmark worst case; the other
// systems' rows are their reported overheads.
std::vector<sim::WorkloadJob> table1_jobs() {
  std::vector<sim::WorkloadJob> jobs;
  for (const Kind kind : kKinds)
    jobs.push_back(micro_job(nest_label(kind, 10), kind, 10));
  return jobs;
}

bool table1_report(std::FILE* out, const WorkloadSweep& sweep) {
  const bool ok = gate_all(out, sweep);
  // Worst case over the points this run has (--jobs / --shard may filter).
  double worst_cte = 0, worst_sempe = 0;
  for (const auto& pt : sweep.run.points) {
    worst_cte = std::max(worst_cte, pt.cte_slowdown());
    worst_sempe = std::max(worst_sempe, pt.sempe_slowdown());
  }
  const auto line = [out](const char* a, const char* b, const char* c,
                          const char* d, const char* e) {
    std::fprintf(out, "%-22s %-12s %-12s %-12s %-12s\n", a, b, c, d, e);
  };
  std::fprintf(out, "\nTable I: Comparing approaches to eliminate SDBCB\n");
  line("Aspect", "CTE", "GhostRider", "Raccoon", "SeMPE");
  line("Approach", "elim.branch", "equal.path", "both paths", "both paths");
  line("Technique", "SW", "HW/SW", "SW", "HW/SW");
  line("Prog. complexity", "High", "Low", "Low", "Low");
  line("Reported overheads", "187.3x", "1987x", "452x", "10.6x");
  char cte_s[32], sempe_s[32];
  std::snprintf(cte_s, sizeof cte_s, "%.1fx", worst_cte);
  std::snprintf(sempe_s, sizeof sempe_s, "%.1fx", worst_sempe);
  line("Measured here (W=10)", cte_s, "-", "-", sempe_s);
  line("Simple architecture", "Yes", "No", "Yes", "Yes");
  line("Backward compatible", "Yes", "No", "No", "Yes");
  std::fprintf(out, "\n");
  return ok;
}

// Table II echoes the configured machine, backed by a live self-check run.
std::vector<sim::WorkloadJob> table2_jobs() {
  return {micro_job("selfcheck/ones/W=2", Kind::kOnes, 2)};
}

bool table2_report(std::FILE* out, const WorkloadSweep& sweep) {
  const bool ok = gate_all(out, sweep);
  std::fprintf(out, "\n%s\n", sim::describe(sim::table2_machine()).c_str());
  // A --jobs filter or a non-owning shard can drop the single self-check
  // point; the table still prints.
  if (!sweep.run.points.empty()) {
    const auto& pt = sweep.run.points[0];
    const double ipc = pt.baseline_cycles == 0
                           ? 0.0
                           : static_cast<double>(pt.baseline_instructions) /
                                 static_cast<double>(pt.baseline_cycles);
    std::fprintf(out, "self-check IPC on ones/W=2: %.2f\n", ipc);
  }
  std::fprintf(out, "\n");
  return ok;
}

// Figures 8 and 9: djpeg per output format and image size, registry
// workload points whose decoded checksum is checked in both modes.

/// Format names print upper-case ("PPM"), as in the paper's figures.
std::string upper(std::string s) {
  for (char& c : s)
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return s;
}

std::vector<sim::WorkloadJob> djpeg_jobs() {
  const std::string scale =
      std::to_string(sim::env_usize("SEMPE_DJPEG_SCALE", 8));
  std::vector<sim::WorkloadJob> jobs;
  for (const std::string format : {"ppm", "gif", "bmp"})
    for (const usize px : kDjpegSizes)
      jobs.push_back({upper(format) + "/" + std::to_string(px / 1024) + "k",
                      "djpeg?format=" + format + "&pixels=" +
                          std::to_string(px) + "&scale=" + scale,
                      {}});
  return jobs;
}

/// Open a FigN line with the point's format and image size, read from its
/// canonical spec.
void djpeg_cell(std::FILE* out, const char* fig,
                const sim::WorkloadPoint& pt) {
  const auto spec = workloads::WorkloadSpec::parse(pt.spec);
  std::fprintf(out, "%s  %-4s %5zuk  ", fig,
               upper(spec.get("format", "")).c_str(),
               static_cast<usize>(spec.get_u64("pixels", 0) / 1024));
}

// Paper shape: ~31-87% overhead, PPM > GIF > BMP, flat across sizes.
bool fig8_report(std::FILE* out, const WorkloadSweep& sweep) {
  bool all_ok = true;
  for (const auto& pt : sweep.run.points) {
    djpeg_cell(out, "Fig8", pt);
    std::fprintf(out, "overhead = %5.1f%%\n",
                 (pt.sempe_slowdown() - 1.0) * 100.0);
    all_ok = results_gate(out, pt) && all_ok;
  }
  return all_ok;
}

// Paper shape: IL1 low; DL1 low, SeMPE close to baseline; L2 highest.
bool fig9_report(std::FILE* out, const WorkloadSweep& sweep) {
  bool all_ok = true;
  for (const auto& pt : sweep.run.points) {
    const pipeline::PipelineStats& b = pt.baseline_stats;
    const pipeline::PipelineStats& s = pt.sempe_stats;
    djpeg_cell(out, "Fig9", pt);
    std::fprintf(out,
                 "IL1 %5.2f%%|%5.2f%%  DL1 %5.2f%%|%5.2f%%  "
                 "L2 %5.2f%%|%5.2f%%   (baseline|SeMPE)\n",
                 b.il1_miss_rate() * 100, s.il1_miss_rate() * 100,
                 b.dl1_miss_rate() * 100, s.dl1_miss_rate() * 100,
                 b.l2_miss_rate() * 100, s.l2_miss_rate() * 100);
    all_ok = results_gate(out, pt) && all_ok;
  }
  return all_ok;
}

// Figure 10: the microbenchmarks over nesting depth W.

std::vector<sim::WorkloadJob> fig10_jobs() {
  std::vector<sim::WorkloadJob> jobs;
  for (const Kind kind : kKinds)
    for (const usize w : kFig10Widths)
      jobs.push_back(micro_job(nest_label(kind, w), kind, w));
  return jobs;
}

// Fig. 10a, slowdown per kernel. Paper shape: SeMPE ~ W+1 (8.4-10.6x at
// W=10); CTE from 3-32x at W=1 up to 12.9-187.3x at W=10.
bool fig10a_report(std::FILE* out, const WorkloadSweep& sweep) {
  bool all_ok = true;
  for (const auto& pt : sweep.run.points) {
    const Nest n = nest_of(pt);
    std::fprintf(out,
                 "Fig10a  %-10s W=%2zu  SeMPE %6.2fx   CTE %7.2fx   "
                 "(CTE/SeMPE %5.2fx)\n",
                 n.kind.c_str(), n.width, pt.sempe_slowdown(),
                 pt.cte_slowdown(),
                 sim::WorkloadPoint::ratio(pt.cte_cycles, pt.sempe_cycles));
    all_ok = results_gate(out, pt) && all_ok;
  }
  return all_ok;
}

// The two operational definitions of the sum-of-paths ideal, each its own
// legacy-only job:
//   combined   — the legacy run with every secret true: every path
//                executes once within a single run, cross-path locality
//                included;
//   standalone — (W+1) x the legacy run of the width-0 build (each path
//                costed in isolation, the paper's definition; SeMPE can
//                beat it by prefetching between paths). One width-0 job
//                per kernel and knob set serves every W.

sim::WorkloadJob ideal_combined_job(std::string label, Kind kind, usize w,
                                    const sim::MachineOptions& opt = {}) {
  return {std::move(label), micro_spec(kind, w) + "&secrets=1", opt,
          /*legacy_only=*/true};
}

sim::WorkloadJob ideal_standalone_job(std::string label, Kind kind,
                                      const sim::MachineOptions& opt = {}) {
  return {std::move(label), micro_spec(kind, 0), opt, /*legacy_only=*/true};
}

std::vector<sim::WorkloadJob> fig10b_jobs() {
  std::vector<sim::WorkloadJob> jobs = fig10_jobs();
  for (const Kind kind : kKinds) {
    for (const usize w : kFig10Widths)
      jobs.push_back(ideal_combined_job(nest_label(kind, w) + "/ideal-combined",
                                        kind, w));
    jobs.push_back(ideal_standalone_job(
        std::string(workloads::kind_name(kind)) + "/ideal-standalone", kind));
  }
  return jobs;
}

// Fig. 10b, slowdown over both ideals averaged per W over the kernels. A
// kernel whose point or either ideal job a --jobs or --shard filter dropped
// is left out of its width's average; a width left with no kernel prints
// no row.
bool fig10b_report(std::FILE* out, const WorkloadSweep& sweep) {
  const bool ok = gate_all(out, sweep);
  for (const usize w : kFig10Widths) {
    double vs_standalone = 0, vs_combined = 0, cte_vs_standalone = 0;
    usize present = 0;
    for (const Kind kind : kKinds) {
      const std::string label = nest_label(kind, w);
      const auto* pt = find(sweep, label);
      const auto* combined = find(sweep, label + "/ideal-combined");
      const auto* width0 =
          find(sweep, std::string(workloads::kind_name(kind)) +
                          "/ideal-standalone");
      if (!pt || !combined || !width0) continue;
      ++present;
      const Cycle standalone =
          sim::WorkloadPoint::ideal_standalone_cycles(*width0, w);
      vs_standalone += sim::WorkloadPoint::ratio(pt->sempe_cycles, standalone);
      vs_combined += sim::WorkloadPoint::ratio(pt->sempe_cycles,
                                               combined->baseline_cycles);
      cte_vs_standalone +=
          sim::WorkloadPoint::ratio(pt->cte_cycles, standalone);
    }
    if (present == 0) continue;
    const double n = static_cast<double>(present);
    std::fprintf(out,
                 "Fig10b  W=%2zu  SeMPE/ideal(standalone) %5.2f   "
                 "SeMPE/ideal(combined) %5.2f   CTE/ideal %6.2f\n",
                 w, vs_standalone / n, vs_combined / n, cte_vs_standalone / n);
  }
  return ok;
}

// Section IV-F ablations: snapshot mechanism (ArchRS, chosen, vs PhyRS's
// full PRF + RAT spills vs LRS's per-instruction rename tax), SPM port
// throughput, and the prefetching effect that lets SeMPE beat the ideal.

constexpr usize kSnapshotWidths = 8;               // W = 1..8, 3 jobs each
constexpr u32 kSpmRates[] = {8, 16, 32, 64, 128};  // B/cycle

std::vector<sim::WorkloadJob> ablation_jobs() {
  std::vector<sim::WorkloadJob> jobs;
  for (usize w = 1; w <= kSnapshotWidths; ++w) {
    const std::string suffix = "/W=" + std::to_string(w);
    sim::MachineOptions opt;
    jobs.push_back(micro_job("snapshot/archrs" + suffix, Kind::kOnes, w, opt));
    opt.snapshot_model = cpu::SnapshotModel::kPhyRS;
    jobs.push_back(micro_job("snapshot/phyrs" + suffix, Kind::kOnes, w, opt));
    opt.snapshot_model = cpu::SnapshotModel::kLRS;
    opt.extra_front_end_depth = 1;  // the tagged-rename pipeline stage
    opt.rename_width_override = 4;  // tag-lookup ports halve rename width
    jobs.push_back(micro_job("snapshot/lrs" + suffix, Kind::kOnes, w, opt));
  }
  for (const u32 rate : kSpmRates) {
    sim::MachineOptions opt;
    opt.spm_bytes_per_cycle = rate;
    jobs.push_back(micro_job("spm/" + std::to_string(rate) + "B",
                             Kind::kFibonacci, 4, opt));
  }
  for (const bool on : {true, false}) {
    sim::MachineOptions opt;
    opt.enable_prefetchers = on;
    const std::string label = std::string("prefetch/") + (on ? "on" : "off");
    jobs.push_back(micro_job(label, Kind::kOnes, 6, opt));
    jobs.push_back(
        ideal_standalone_job(label + "/ideal-standalone", Kind::kOnes, opt));
  }
  return jobs;
}

bool ablation_report(std::FILE* out, const WorkloadSweep& sweep) {
  const bool ok = gate_all(out, sweep);
  // The sections recombine points by job label: a filtered or sharded run
  // holds only a subset, so rows with a missing ingredient are skipped.
  for (usize w = 1; w <= kSnapshotWidths; ++w) {
    const std::string suffix = "/W=" + std::to_string(w);
    const auto* arch = find(sweep, "snapshot/archrs" + suffix);
    const auto* phy = find(sweep, "snapshot/phyrs" + suffix);
    const auto* lrs = find(sweep, "snapshot/lrs" + suffix);
    if (!arch || !phy || !lrs) continue;
    // Every protected run is normalized to the SAME (ArchRS) unprotected
    // baseline: LRS's rename stage taxes the whole program, which is the
    // paper's objection to it.
    const double b = static_cast<double>(arch->baseline_cycles);
    const double lrs_base_tax =
        static_cast<double>(lrs->baseline_cycles) / b - 1.0;
    std::fprintf(out,
                 "Ablation/snapshot  W=%zu  ArchRS %5.2fx   PhyRS %5.2fx   "
                 "LRS %5.2fx (+%4.1f%% tax on unprotected code)\n",
                 w, static_cast<double>(arch->sempe_cycles) / b,
                 static_cast<double>(phy->sempe_cycles) / b,
                 static_cast<double>(lrs->sempe_cycles) / b,
                 lrs_base_tax * 100.0);
  }
  for (const u32 rate : kSpmRates) {
    const auto* pt = find(sweep, "spm/" + std::to_string(rate) + "B");
    if (!pt) continue;
    std::fprintf(out,
                 "Ablation/spm  %3u B/cycle  SeMPE %5.2fx (fibonacci, W=4)\n",
                 rate, pt->sempe_slowdown());
  }
  for (const bool on : {true, false}) {
    const std::string label = std::string("prefetch/") + (on ? "on" : "off");
    const auto* pt = find(sweep, label);
    const auto* width0 = find(sweep, label + "/ideal-standalone");
    if (!pt || !width0) continue;
    std::fprintf(out,
                 "Ablation/prefetch  %s  SeMPE/ideal(standalone) = %.3f "
                 "(ones, W=6)\n",
                 on ? "on " : "off",
                 sim::WorkloadPoint::ratio(
                     pt->sempe_cycles,
                     sim::WorkloadPoint::ideal_standalone_cycles(
                         *width0, nest_of(*pt).width)));
  }
  return ok;
}

// Registry workloads across the full mode matrix (legacy baseline, SeMPE,
// CTE) at widths 1 and 4, secrets all false (the Fig. 10 convention: the
// baseline skips every guarded level) and all true (every mode executes
// every level). Each point cross-checks every mode's merged results
// against the host mirrors ("ok" column); a mismatch fails the row.

std::vector<sim::WorkloadJob> synthetic_jobs() {
  const usize iters = sim::env_usize("SEMPE_BENCH_ITERS", 4);
  std::vector<std::string> specs;
  for (const workloads::SynthKind kind : workloads::all_synth_kinds())
    for (const usize w : {usize{1}, usize{4}})
      for (const char* secrets : {"0", "1"})
        specs.push_back(std::string("synthetic.") +
                        workloads::synth_name(kind) +
                        "?width=" + std::to_string(w) +
                        "&iters=" + std::to_string(iters) + "&secrets=" +
                        secrets);
  return sim::workload_grid(specs, {});
}

// The crypto and data-structure scenario pack: the CTE column is where
// software constant-time's 10-100x overheads show up.
std::vector<sim::WorkloadJob> scenarios_jobs() {
  return sim::workload_grid(
      workloads::scenario_sweep_specs(sim::env_usize("SEMPE_BENCH_ITERS", 4)),
      {});
}

bool workload_report(std::FILE* out, const char* tag,
                     const WorkloadSweep& sweep) {
  bool all_ok = true;
  for (const auto& pt : sweep.run.points) {
    std::fprintf(out, "%s  %-48s  SeMPE %6.2fx   CTE %7.2fx   %s\n", tag,
                 pt.spec.c_str(), pt.sempe_slowdown(), pt.cte_slowdown(),
                 pt.results_ok ? "ok" : "RESULTS MISMATCH");
    all_ok = results_gate(out, pt) && all_ok;
  }
  return all_ok;
}

// Security sweeps.

/// The audit budget, with the statistical tier's knobs.
security::AuditOptions audit_options(usize samples) {
  security::AuditOptions opt;
  opt.samples = sim::env_usize("SEMPE_AUDIT_SAMPLES", samples);
  opt.stat_samples = sim::env_usize("SEMPE_STAT_SAMPLES", 0, 0);
  opt.stat_budget = sim::env_usize("SEMPE_STAT_BUDGET", 0, 0);
  return opt;
}

/// Every registered workload but the attack.* ones, one audit job each:
/// the leakage and lint experiments report the same points.
std::vector<sim::AuditJob> audit_jobs() {
  return sim::spec_grid<sim::AuditFamily>(
      sim::registry_audit_specs(sim::env_usize("SEMPE_BENCH_ITERS", 2)),
      audit_options(8));
}

/// Print `  !! <mode>: <mismatch>` for every mode whose results diverged
/// from the host mirror.
void print_mismatches(std::FILE* out, const security::WorkloadAudit& a) {
  for (const security::ModeAudit& m : a.modes)
    if (!m.results_ok)
      std::fprintf(out, "  !! %s: %s\n", m.mode.c_str(), m.mismatch.c_str());
}

// The leakage audit (security/audit.h): fails if any SeMPE-mode channel
// stays open or any run's results diverge from the host mirrors.
bool leakage_report(std::FILE* out, const AuditSweep& sweep) {
  bool all_ok = true;
  for (const auto& pt : sweep.run.points) {
    const security::WorkloadAudit& a = pt.audit;
    all_ok = all_ok && pt.sempe_closed() && pt.results_ok();
    std::fprintf(out, "leakage  %-58s  W=%zu n=%zu", a.spec.c_str(),
                 a.secret_width, a.masks.size());
    for (const security::ModeAudit& m : a.modes) {
      if (m.indistinguishable()) {
        std::fprintf(out, "  %s: closed", m.mode.c_str());
      } else {
        std::fprintf(out, "  %s: OPEN %.2fb [%s]", m.mode.c_str(),
                     m.leaked_bits(), m.open_channels().c_str());
      }
      if (m.stat_verdict() != security::StatVerdict::kNotRun)
        std::fprintf(out, " stat=%s(|t|=%.2f)",
                     security::stat_verdict_name(m.stat_verdict()),
                     m.stat_max_t() < 0 ? -m.stat_max_t() : m.stat_max_t());
    }
    std::fprintf(out, "  %s\n", pt.results_ok() ? "ok" : "RESULTS MISMATCH");
    const security::ModeAudit* s = a.mode("sempe");
    if (s != nullptr && !s->indistinguishable())
      std::fprintf(out, "  !! SeMPE leak: %s\n", s->first_divergence().c_str());
    print_mismatches(out, a);
  }
  return all_ok;
}

// The static taint lint (security/taint_lint.h) of the same points vs the
// exact tier of their audit. Fails on a statically clean but dynamically
// distinguishable workload, any CTE finding, or a secret-carrying workload
// clean under the legacy policy; static-dirty, dynamic-clean points
// (synthetic.ibr under SeMPE) only warn.
bool lint_report(std::FILE* out, const AuditSweep& sweep) {
  bool all_ok = true;
  for (const auto& pt : sweep.run.points) {
    const security::WorkloadLint& l = pt.lint;
    all_ok = all_ok && pt.ok();
    std::fprintf(out,
                 "lint  %-58s  W=%zu  legacy: %zu  sempe: %zu (excused %zu)  "
                 "cte: %s  %s\n",
                 l.spec.c_str(), l.secret_width,
                 l.natural_legacy.findings.size(),
                 l.natural_sempe.findings.size(), l.natural_sempe.excused_sjmps,
                 l.has_cte ? std::to_string(l.cte.findings.size()).c_str()
                           : "-",
                 pt.ok() ? "ok" : "FAIL");
    if (!pt.ok()) std::fprintf(out, "  !! %s\n", pt.failure_summary().c_str());
    if (!pt.warnings.empty())
      std::fprintf(out, "  (warn) %s\n", pt.warning_summary().c_str());
  }
  return all_ok;
}

// Co-residence attacks (workloads/attack.h), victim and attacker sharing
// one hierarchy. Fails unless legacy recovers >= 90% of the key bits, SeMPE
// and CTE stay at chance, and every run's results match the host mirrors.
std::vector<sim::AuditJob> tenants_jobs() {
  return sim::spec_grid<sim::AuditFamily>(
      {// The acceptance-criterion point, at its registry defaults.
       "attack.prime_probe?victim=crypto.modexp",
       // Wider key sweeps of both probe styles against the same victim.
       "attack.prime_probe?victim=crypto.modexp&width=4&size=8&bits=8"
       "&iters=2",
       "attack.flush_reload?victim=crypto.modexp&width=4&size=8&bits=8"
       "&iters=2"},
      audit_options(4));
}

bool tenants_report(std::FILE* out, const AuditSweep& sweep) {
  bool all_ok = true;
  for (const auto& pt : sweep.run.points) {
    const security::WorkloadAudit& a = pt.audit;
    const bool gate = pt.legacy_recovers() && pt.at_chance("sempe") &&
                      pt.at_chance("cte") && pt.results_ok();
    all_ok = all_ok && gate;
    std::fprintf(out, "tenants  %-70s  W=%zu n=%zu", a.spec.c_str(),
                 a.secret_width, a.masks.size());
    for (const security::ModeAudit& m : a.modes)
      std::fprintf(out, "  %s: %.0f%%%s", m.mode.c_str(),
                   100.0 * m.recovery_rate(),
                   m.indistinguishable() ? " (closed)" : "");
    std::fprintf(out, "  %s\n", gate ? "ok" : "GATE FAIL");
    if (!pt.legacy_recovers())
      std::fprintf(out, "  !! legacy recovered only %.1f%% of the key\n",
                   100.0 * pt.recovery_rate("legacy"));
    for (const char* mode : {"sempe", "cte"})
      if (!pt.at_chance(mode))
        std::fprintf(out, "  !! %s is distinguishable: %s\n", mode,
                     a.mode(mode)->first_divergence().c_str());
    print_mismatches(out, a);
  }
  return all_ok;
}

// The experiment table, in run order.

const Experiment kExperiments[] = {
    row<sim::WorkloadFamily>("table1",
                             "Table I: approaches to eliminate SDBCB",
                             table1_jobs, table1_report),
    row<sim::WorkloadFamily>("table2", "Table II: baseline machine model",
                             table2_jobs, table2_report),
    row<sim::WorkloadFamily>("fig8", "Figure 8: djpeg overhead by format/size",
                             djpeg_jobs, fig8_report),
    row<sim::WorkloadFamily>("fig9", "Figure 9: djpeg cache miss rates",
                             djpeg_jobs, fig9_report),
    row<sim::WorkloadFamily>("fig10a",
                             "Figure 10a: slowdown vs nesting depth",
                             fig10_jobs, fig10a_report),
    row<sim::WorkloadFamily>("fig10b", "Figure 10b: slowdown over the ideal",
                             fig10b_jobs, fig10b_report),
    row<sim::WorkloadFamily>("ablation",
                             "Ablations: snapshot / SPM / prefetch",
                             ablation_jobs, ablation_report),
    row<sim::WorkloadFamily>(
        "synthetic", "synthetic kernels x {legacy, SeMPE, CTE}",
        synthetic_jobs, [](std::FILE* out, const WorkloadSweep& s) {
          return workload_report(out, "synthetic", s);
        }),
    row<sim::WorkloadFamily>(
        "scenarios", "crypto + data-structure kernels x {legacy, SeMPE, CTE}",
        scenarios_jobs, [](std::FILE* out, const WorkloadSweep& s) {
          return workload_report(out, "scenario", s);
        }),
    row<sim::AuditFamily>("leakage", "leakage audit of every workload",
                          audit_jobs, leakage_report),
    row<sim::AuditFamily>("lint", "static taint lint vs the dynamic audit",
                          audit_jobs, lint_report,
                          &sim::AuditFamily::lint_json),
    row<sim::AuditFamily>("tenants", "co-residence attacks: key recovery",
                          tenants_jobs, tenants_report,
                          &sim::AuditFamily::tenant_json),
};

template <typename F>
usize sweep_pool(Sweep<F>& pool, const sim::SweepOptions& opt) {
  if (!pool.jobs.empty()) pool.run = sim::run_sweep<F>(pool.jobs, opt);
  return pool.jobs.size();
}

}  // namespace

int main(int argc, char** argv) {
  const BatchCli cli = sim::parse_batch_cli(argc, argv);

  // Positional arguments select rows (default: all); rows run in table
  // order whatever the argument order.
  const usize rows = std::size(kExperiments);
  std::vector<bool> chosen(rows, argc <= 1);
  const char* unknown = nullptr;
  for (int i = 1; i < argc; ++i) {
    usize r = 0;
    while (r < rows && std::string(kExperiments[r].name) != argv[i]) ++r;
    if (r < rows) chosen[r] = true;
    else if (unknown == nullptr) unknown = argv[i];
  }
  if (!cli.ok || cli.help || unknown != nullptr) {
    if (!cli.ok) std::fprintf(stderr, "bad argument: %s\n", cli.error.c_str());
    if (unknown != nullptr)
      std::fprintf(stderr, "unknown experiment or argument: %s\n", unknown);
    sim::print_batch_usage(argv[0],
                           "SeMPE paper experiments and security sweeps");
    std::fprintf(stderr, "experiments (default: all, run in this order):\n");
    for (const Experiment& e : kExperiments)
      std::fprintf(stderr, "  %-10s %s\n", e.name, e.title);
    return cli.ok && unknown == nullptr ? 0 : 1;
  }

  auto obs_session = sim::make_obs_session(cli);
  const Stopwatch sweep_sw;
  bool ok = true;
  std::string experiment;  // the --metrics-out experiment name
  std::string json;
  usize points = 0;
  try {
    Pools pools;
    std::vector<Finish> finish;
    for (usize r = 0; r < rows; ++r) {
      if (!chosen[r]) continue;
      finish.push_back(kExperiments[r].queue(pools, cli));
      if (!experiment.empty()) experiment += ',';
      experiment += kExperiments[r].name;
    }
    std::apply(
        [&](auto&... pool) { ((points += sweep_pool(pool, cli.sweep)), ...); },
        pools);
    for (const Finish& f : finish)
      ok = f(sim::report_stream(cli), cli.want_json ? &json : nullptr) && ok;
  } catch (const SimError& e) {
    obs::set_session(nullptr);
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "swept %zu points in %.2fs on %zu thread(s)\n", points,
               sweep_sw.elapsed_seconds(),
               sim::resolve_threads(cli.sweep.threads, points));

  if (!sim::finish_obs_session(cli, experiment, std::move(obs_session)))
    return 1;
  if (cli.want_json && !sim::emit_json(cli, json)) return 1;
  return ok ? 0 : 1;
}
