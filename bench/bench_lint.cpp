// Static taint-lint sweep — every workload in the registry linted under
// the legacy/SeMPE/CTE policies (security/taint_lint.h) and cross-checked
// against the dynamic leakage audit (sim::measure_lint). This is the CI
// gate for the constant-time discipline: the exit status is nonzero if
//
//   - any workload is statically clean but dynamically distinguishable
//     (the lint missed a real channel — a soundness bug),
//   - any CTE variant has a static finding, or
//   - any secret-carrying workload lints clean under the legacy policy
//     (the lint lost the taint).
//
// Static-dirty-but-dynamic-clean points (e.g. synthetic.ibr under the
// SeMPE policy, whose regions the verifier rejects for containing jalr)
// print as warnings and do not gate.
//
// The harnessed workloads lint at width=3, matching bench_leakage, so the
// default 8 audit samples enumerate the whole 2^3 secret space; djpeg (no
// settable secret vector) is a zero-seed smoke point. SEMPE_BENCH_ITERS
// sets the harness iteration count (default 2), SEMPE_AUDIT_SAMPLES the
// dynamic sample budget (default 8). The points run concurrently through
// sim/batch_runner.h; output — including --json — is byte-identical for
// any --threads value.
#include <cstdio>
#include <string>

#include "sim/batch_runner.h"

int main(int argc, char** argv) {
  using namespace sempe;
  const usize iters = sim::env_usize("SEMPE_BENCH_ITERS", 2);
  security::AuditOptions opt;
  opt.samples = sim::env_usize("SEMPE_AUDIT_SAMPLES", 8);
  return sim::bench_main<sim::LintFamily>(
      argc, argv, "lint",
      "static taint lint: every registered workload x {legacy, SeMPE, CTE} "
      "policy, cross-checked against the dynamic audit",
      sim::spec_grid<sim::LintFamily>(sim::registry_audit_specs(iters), opt),
      [](std::FILE* out, const auto& sweep) {
        bool all_ok = true;
        for (const auto& pt : sweep.run.points) {
          const security::WorkloadLint& l = pt.lint;
          all_ok = all_ok && pt.ok();
          std::fprintf(
              out,
              "lint  %-58s  W=%zu  legacy: %zu  sempe: %zu (excused %zu)  "
              "cte: %s  %s\n",
              l.spec.c_str(), l.secret_width, l.natural_legacy.findings.size(),
              l.natural_sempe.findings.size(), l.natural_sempe.excused_sjmps,
              l.has_cte ? std::to_string(l.cte.findings.size()).c_str() : "-",
              pt.ok() ? "ok" : "FAIL");
          if (!pt.ok())
            std::fprintf(out, "  !! %s\n", pt.failure_summary().c_str());
          if (!pt.warnings.empty())
            std::fprintf(out, "  (warn) %s\n", pt.warning_summary().c_str());
        }
        return all_ok;
      });
}
