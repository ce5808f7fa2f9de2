// Leakage audit sweep — every workload in the registry swept over a
// sampled secret space (security/audit.h) and judged per attacker channel
// under legacy, SeMPE, and (where available) CTE. This is the end-to-end
// check of the paper's Section III claim: the exit status is nonzero if
// ANY channel of ANY workload stays open under SeMPE, or any run's merged
// results diverge from the host mirrors.
//
// The harnessed workloads are audited at width=3 so the default 8 samples
// enumerate the whole 2^3 secret space; djpeg (no settable secret vector)
// runs once per mode as a smoke point. SEMPE_BENCH_ITERS sets the harness
// iteration count (default 2), SEMPE_AUDIT_SAMPLES the sample budget
// (default 8). SEMPE_STAT_SAMPLES (>= 2) turns on the statistical tier
// (security/stat_audit.h) with that many samples per secret class and
// SEMPE_STAT_BUDGET caps the adaptive driver's total sample pairs; the
// statistical verdicts are reported per mode but do NOT move the exit
// status — the SeMPE gate stays the exact-equality tier. The points run
// concurrently through sim/batch_runner.h; output — including --json — is
// byte-identical for any --threads value.
#include <cstdio>
#include <string>

#include "sim/batch_runner.h"

int main(int argc, char** argv) {
  using namespace sempe;
  const usize iters = sim::env_usize("SEMPE_BENCH_ITERS", 2);
  security::AuditOptions opt;
  opt.samples = sim::env_usize("SEMPE_AUDIT_SAMPLES", 8);
  opt.stat_samples = sim::env_usize("SEMPE_STAT_SAMPLES", 0);
  opt.stat_budget = sim::env_usize("SEMPE_STAT_BUDGET", 0);
  return sim::bench_main<sim::LeakageFamily>(
      argc, argv, "leakage",
      "leakage audit: every registered workload x secret space x {legacy, "
      "SeMPE, CTE}",
      sim::leakage_grid(sim::registry_audit_specs(iters), opt),
      [](std::FILE* out, const auto& sweep) {
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
              std::fprintf(
                  out, " stat=%s(|t|=%.2f)",
                  security::stat_verdict_name(m.stat_verdict()),
                  m.stat_max_t() < 0 ? -m.stat_max_t() : m.stat_max_t());
          }
          std::fprintf(out, "  %s\n",
                       pt.results_ok() ? "ok" : "RESULTS MISMATCH");
          if (!pt.sempe_closed()) {
            const security::ModeAudit* s = a.mode("sempe");
            std::fprintf(out, "  !! SeMPE leak: %s\n",
                         s != nullptr && !s->first_divergence().empty()
                             ? s->first_divergence().c_str()
                             : "results mismatch");
          }
        }
        return all_ok;
      });
}
