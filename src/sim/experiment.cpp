#include "sim/experiment.h"

#include <cstdlib>
#include <limits>
#include <string>

#include "util/check.h"

namespace sempe::sim {

namespace {

RunResult run_built(const isa::Program& program, cpu::ExecMode mode,
                    const MachineOptions& opt, Addr probe_addr,
                    usize probe_words) {
  RunConfig rc;
  rc.core.mode = mode;
  rc.record_observations = false;  // timing only; observation runs are tests
  rc.core.snapshot_model = opt.snapshot_model;
  rc.pipe.spm_bytes_per_cycle = opt.spm_bytes_per_cycle;
  rc.pipe.memory.enable_prefetchers = opt.enable_prefetchers;
  rc.pipe.front_end_depth += opt.extra_front_end_depth;
  if (opt.rename_width_override != 0)
    rc.pipe.rename_width = opt.rename_width_override;
  rc.probe_addr = probe_addr;
  rc.probe_words = probe_words;
  return run(program, rc);
}

}  // namespace

const ModeResultCheck* WorkloadPoint::check(const std::string& mode) const {
  for (const ModeResultCheck& c : checks)
    if (c.mode == mode) return &c;
  return nullptr;
}

std::string WorkloadPoint::mismatch_summary() const {
  std::string out;
  for (const ModeResultCheck& c : checks) {
    if (c.ok) continue;
    if (!out.empty()) out += "; ";
    out += c.mode + ": " + c.detail;
  }
  return out;
}

WorkloadPoint measure_workload(const std::string& spec,
                               const MachineOptions& opt, bool legacy_only) {
  using workloads::BuiltWorkload;
  using workloads::Variant;

  // One parse + one registry lookup serve all the builds of this point.
  const workloads::WorkloadSpec parsed = workloads::WorkloadSpec::parse(spec);
  const workloads::WorkloadGenerator& gen =
      workloads::WorkloadRegistry::instance().resolve(parsed.name);

  WorkloadPoint pt;
  const BuiltWorkload secure = gen.build(parsed, Variant::kSecure);
  pt.spec = secure.spec;

  auto timed = [&](const BuiltWorkload& b, cpu::ExecMode mode) {
    return run_built(b.program, mode, opt, b.results_addr, b.num_results);
  };
  // Per-mode checks: a mismatch names the mode and word that diverged
  // instead of collapsing into one anonymous bool.
  auto checked = [&pt](const char* mode, const std::vector<u64>& probed,
                       const std::vector<u64>& expected) {
    ModeResultCheck c;
    c.mode = mode;
    c.detail = first_result_mismatch(probed, expected);
    c.ok = c.detail.empty();
    pt.checks.push_back(std::move(c));
  };

  {
    const RunResult r = timed(secure, cpu::ExecMode::kLegacy);
    pt.baseline_stats = r.stats;
    checked("legacy", r.probed, secure.expected_results);
  }
  pt.has_cte = gen.has_cte_variant();
  if (!legacy_only) {
    const RunResult r = timed(secure, cpu::ExecMode::kSempe);
    pt.sempe_stats = r.stats;
    checked("sempe", r.probed, secure.expected_results);
  }
  if (pt.has_cte && !legacy_only) {
    const BuiltWorkload cte = gen.build(parsed, Variant::kCte);
    const RunResult r = timed(cte, cpu::ExecMode::kLegacy);
    pt.cte_stats = r.stats;
    checked("cte", r.probed, cte.expected_results);
    // The two variants must also agree with EACH OTHER on what the merged
    // results should be — a CTE emitter bug could satisfy its own mirror.
    if (cte.expected_results != secure.expected_results && pt.checks.back().ok) {
      pt.checks.back().ok = false;
      pt.checks.back().detail =
          "cte host mirror disagrees with the secure variant's: " +
          first_result_mismatch(cte.expected_results, secure.expected_results);
    }
  }
  pt.baseline_cycles = pt.baseline_stats.cycles;
  pt.sempe_cycles = pt.sempe_stats.cycles;
  pt.cte_cycles = pt.cte_stats.cycles;
  pt.baseline_instructions = pt.baseline_stats.instructions;
  pt.sempe_instructions = pt.sempe_stats.instructions;
  pt.cte_instructions = pt.cte_stats.instructions;
  pt.results_ok = true;
  for (const ModeResultCheck& c : pt.checks) pt.results_ok = pt.results_ok && c.ok;
  return pt;
}

namespace {

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) {
    if (!out.empty()) out += "; ";
    out += l;
  }
  return out;
}

}  // namespace

std::string AuditPoint::failure_summary() const { return join_lines(failures); }
std::string AuditPoint::warning_summary() const { return join_lines(warnings); }

AuditPoint measure_audit(const std::string& spec,
                         const security::AuditOptions& opt) {
  AuditPoint pt;
  pt.lint = security::lint_workload(spec);
  pt.audit = security::audit_workload(spec, opt);

  // Pair each lint verdict with the audit of the matching binary/core
  // combination. `variant` names the pair in diagnostics.
  struct Pair {
    const char* variant;
    const security::LintResult* lint;
    const security::ModeAudit* audit;
  };
  std::vector<Pair> pairs = {
      {"natural/legacy", &pt.lint.natural_legacy, pt.audit.mode("legacy")},
      {"natural/sempe", &pt.lint.natural_sempe, pt.audit.mode("sempe")},
  };
  if (pt.lint.has_cte)
    pairs.push_back({"cte/legacy", &pt.lint.cte, pt.audit.mode("cte")});

  for (const Pair& p : pairs) {
    const bool leaks = p.audit != nullptr && !p.audit->indistinguishable();
    if (p.lint->clean() && leaks) {
      // The analysis claimed constant-time but the simulator observed a
      // secret-dependent channel: an unsound lint, the one failure mode a
      // static tool must never have.
      pt.failures.push_back(std::string(p.variant) +
                            ": statically clean but dynamically "
                            "distinguishable (" +
                            p.audit->open_channels() + ")");
    } else if (!p.lint->clean() && p.audit != nullptr && !leaks) {
      // Conservative over-approximation (or a channel the sampled audit
      // missed): report, don't fail — see synthetic.ibr under kSempe.
      pt.warnings.push_back(std::string(p.variant) + ": " +
                            std::to_string(p.lint->findings.size()) +
                            " static finding(s) but dynamically "
                            "indistinguishable over " +
                            std::to_string(pt.audit.masks.size()) +
                            " samples");
    }
  }

  // The CTE discipline: provably clean, for all secret values at once.
  if (pt.lint.has_cte && !pt.lint.cte.clean())
    pt.failures.push_back("cte variant has " +
                          std::to_string(pt.lint.cte.findings.size()) +
                          " static finding(s); constant-time code must "
                          "lint clean");

  // Seed sanity: every harnessed workload branches on its secrets, so a
  // clean natural/legacy lint means the taint never reached the branch —
  // a lost-seed or lost-propagation bug, not a secure workload.
  if (pt.lint.secret_width > 0 && pt.lint.natural_legacy.clean())
    pt.failures.push_back(
        "secret_width > 0 but the natural variant lints clean under the "
        "legacy policy (lint lost the taint)");

  return pt;
}

AuditPoint measure_tenant(const std::string& spec,
                          const security::AuditOptions& opt) {
  const workloads::WorkloadSpec parsed = workloads::WorkloadSpec::parse(spec);
  if (!workloads::WorkloadRegistry::instance().resolve(parsed.name).is_attack())
    throw SimError("tenant sweep requires an attack.* workload, got '" +
                   spec + "'");
  return measure_audit(spec, opt);
}

usize env_usize(const char* name, usize fallback, usize min) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  usize parsed = 0;
  bool ok = true;
  for (const char* c = v; *c != '\0' && ok; ++c) {
    const usize digit = static_cast<usize>(*c - '0');
    ok = *c >= '0' && *c <= '9' &&
         parsed <= (std::numeric_limits<usize>::max() - digit) / 10;
    parsed = parsed * 10 + digit;
  }
  if (!ok || parsed < min)
    throw SimError(std::string(name) + "='" + v +
                   "': expected a decimal integer >= " + std::to_string(min));
  return parsed;
}

}  // namespace sempe::sim
