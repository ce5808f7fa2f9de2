// Experiment drivers for the paper's evaluation (Section VI).
//
// A "point" bundles the runs needed for one x-axis position of a figure.
// The timing point (WorkloadPoint) covers, for one registry workload spec:
//
//   baseline — the sJMP-annotated binary on the legacy core (the paper's
//              unprotected baseline; prefixes are ignored).
//   sempe    — the same binary on the SeMPE core.
//   cte      — the FaCT-style constant-time binary on the legacy core.
//
// The audit point (AuditPoint) sweeps a spec over its secret space
// instead, and lints it statically; the leakage, lint and tenants
// experiments are three reports over it.
#pragma once

#include "security/audit.h"
#include "security/taint_lint.h"
#include "sim/simulator.h"
#include "workloads/registry.h"

namespace sempe::sim {

/// The machine knobs of the ablation studies, applied to every run of a
/// timing point. The workload's own shape (size, iterations, secrets)
/// travels in its spec.
struct MachineOptions {
  cpu::SnapshotModel snapshot_model = cpu::SnapshotModel::kArchRS;
  u32 spm_bytes_per_cycle = 64;
  bool enable_prefetchers = true;
  Cycle extra_front_end_depth = 0;  // e.g. the LRS rename-table stage
  u32 rename_width_override = 0;    // 0 = Table II default; LRS tag-port cost
};

/// The result check of one mode's run: which run diverged from the
/// host-computed expectations, and where.
struct ModeResultCheck {
  std::string mode;    // "legacy" | "sempe" | "cte"
  bool ok = true;
  std::string detail;  // first mismatching word, "" when ok
};

/// One registry-resolved workload spec, timed across the full mode matrix:
/// the secure binary on the legacy core (baseline) and the SeMPE core, and
/// — when the generator has one — the CTE binary on the legacy core. A
/// legacy-only point has the baseline run alone (its SeMPE and CTE fields
/// stay zero). Every run's merged results are probed and checked against
/// the host-computed expectations, and against each other across modes.
struct WorkloadPoint {
  std::string spec;        // canonical spec (every parameter resolved)
  bool has_cte = false;    // generator provides a CTE variant
  bool results_ok = false; // all runs matched the expected results
  std::vector<ModeResultCheck> checks;  // one per executed mode, run order
  // Each mode's pipeline stats (cte_stats stays zero without a CTE run).
  pipeline::PipelineStats baseline_stats;
  pipeline::PipelineStats sempe_stats;
  pipeline::PipelineStats cte_stats;
  // The stats' totals again, because perfbench/perfbench.cpp reads these.
  Cycle baseline_cycles = 0;
  Cycle sempe_cycles = 0;
  Cycle cte_cycles = 0;
  u64 baseline_instructions = 0;
  u64 sempe_instructions = 0;
  u64 cte_instructions = 0;

  double sempe_slowdown() const { return ratio(sempe_cycles, baseline_cycles); }
  double cte_slowdown() const { return ratio(cte_cycles, baseline_cycles); }
  /// a / b, or 0 when b is 0.
  static double ratio(Cycle a, Cycle b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  }
  /// Fig. 10b's standalone sum-of-paths ideal at nesting width `w`: W+1
  /// paths, each priced by `width0`, the legacy-only point of the same
  /// kernel's width-0 build under the same machine knobs.
  static Cycle ideal_standalone_cycles(const WorkloadPoint& width0, usize w) {
    return static_cast<Cycle>(w + 1) * width0.baseline_cycles;
  }
  /// nullptr when the mode was not run (e.g. "cte" without a variant).
  const ModeResultCheck* check(const std::string& mode) const;
  /// "mode: detail" for every failed mode, "; "-joined ("" when all ok).
  std::string mismatch_summary() const;
};

/// Resolve `spec` through the workload registry and measure it, with the
/// machine knobs of `opt` applied to every run. `legacy_only` runs the
/// baseline alone.
WorkloadPoint measure_workload(const std::string& spec,
                               const MachineOptions& opt = {},
                               bool legacy_only = false);

/// One registry-resolved workload spec swept over its secret space: the
/// leakage audit (security/audit.h) and the static taint lint
/// (security/taint_lint.h) of the same spec, with the two verdicts
/// cross-checked. For a co-residence attack spec (attack.prime_probe /
/// attack.flush_reload, workloads/attack.h) each mode's audit runs the
/// full two-tenant experiment, and the attacker's guessed masks are scored
/// into the key-bit recovery rate. The cross-check's gate semantics:
///
///   FAIL  static-clean + dynamic-leak for any variant/mode pair — the
///         lint missed a real channel the audit observed (soundness bug).
///   FAIL  the CTE variant has any static finding — the constant-time
///         discipline must lint provably clean.
///   FAIL  the workload has secrets (secret_width > 0) but the natural
///         variant lints clean under the legacy policy — the lint lost
///         the taint (every harnessed workload branches on its secrets).
///   WARN  static-dirty + dynamic-clean — conservative over-approximation
///         (e.g. synthetic.ibr under the SeMPE policy: the region
///         verifier rejects regions containing indirect calls, but
///         multi-path execution still closes the observable channel).
struct AuditPoint {
  security::WorkloadLint lint;
  security::WorkloadAudit audit;
  std::vector<std::string> failures;  // hard gate violations ("" = pass)
  std::vector<std::string> warnings;  // precision caveats, not failures

  /// The paper's claim, per workload: SeMPE closes every channel.
  bool sempe_closed() const { return audit.sempe_closed(); }
  /// True when the legacy baseline is distinguishable — the vulnerability
  /// the audit must be able to re-derive for secret-dependent workloads.
  bool legacy_leaks() const {
    const security::ModeAudit* m = audit.mode("legacy");
    return m != nullptr && !m->indistinguishable();
  }
  /// Functional cross-check over every mode and secret sample.
  bool results_ok() const {
    for (const security::ModeAudit& m : audit.modes)
      if (!m.results_ok) return false;
    return true;
  }
  /// Fraction of the victim's key bits the attacker guessed right in
  /// `mode` (0.0 when the mode was not run). Chance is ~0.5.
  double recovery_rate(const std::string& mode) const {
    const security::ModeAudit* m = audit.mode(mode);
    return m == nullptr ? 0.0 : m->recovery_rate();
  }
  /// The attack gate's "at chance" notion for a protected mode: the exact
  /// tier saw no distinguishable channel, or the statistical tier (when
  /// it ran) found no evidence of a leak.
  bool at_chance(const std::string& mode) const {
    const security::ModeAudit* m = audit.mode(mode);
    if (m == nullptr) return true;  // mode absent: nothing leaked
    return m->indistinguishable() ||
           m->stat_verdict() == security::StatVerdict::kNoEvidence;
  }
  /// The vulnerable-baseline half of the attack gate: the legacy core
  /// leaks the key, i.e. recovery is decisively above the 50% chance line.
  bool legacy_recovers(double min_rate = 0.9) const {
    return recovery_rate("legacy") >= min_rate;
  }
  /// The lint cross-check passed.
  bool ok() const { return failures.empty(); }
  /// "; "-joined failures ("" when ok).
  std::string failure_summary() const;
  /// "; "-joined warnings ("" when none).
  std::string warning_summary() const;
};

/// Audit `spec` over `opt.samples` secret vectors (see audit_workload),
/// lint it statically, and cross-check the two.
AuditPoint measure_audit(const std::string& spec,
                         const security::AuditOptions& opt = {});

/// measure_audit of an attack spec. Throws SimError when `spec` does not
/// name an attack.* workload.
AuditPoint measure_tenant(const std::string& spec,
                          const security::AuditOptions& opt = {});

/// Benchmark scaling knobs from the environment (so the default bench run
/// stays fast but full-size runs are one env var away), e.g.
///   SEMPE_BENCH_ITERS  — workload iterations (default per experiment:
///                        20 for the microbenchmarks, 2-4 for the others)
///   SEMPE_DJPEG_SCALE  — djpeg pixel divisor (default 8; 1 = paper size)
/// Unset or empty means `fallback`. Any other value must be a plain
/// decimal integer >= `min` that fits a usize; anything else throws
/// SimError naming the variable and the value, so a typo never silently
/// runs the default configuration.
usize env_usize(const char* name, usize fallback, usize min = 1);

}  // namespace sempe::sim
