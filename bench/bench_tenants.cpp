// Multi-tenant co-residence sweep — the attack.* workloads
// (workloads/attack.h) audited end-to-end through sim::measure_tenant:
// for every point, a victim tenant and a co-resident attacker tenant are
// interleaved by sim::Scheduler over one shared mem::Hierarchy, the
// attacker's probe observations feed both leakage-verdict tiers, and its
// guessed key masks are scored into a per-mode key-bit recovery rate.
//
// This is the end-to-end check of the paper's threat model: the exit
// status is nonzero unless, for EVERY point,
//
//   - the legacy baseline recovers >= 90% of the victim's key bits (an
//     attack the harness cannot demonstrate proves nothing),
//   - SeMPE and CTE stay at chance (exact tier clean, or statistical
//     tier no-evidence), and
//   - every run's merged results match the host mirrors.
//
// SEMPE_AUDIT_SAMPLES sets the secret-vector budget (default 4);
// SEMPE_STAT_SAMPLES / SEMPE_STAT_BUDGET enable the statistical tier as
// in bench_leakage. The points run concurrently through
// sim/batch_runner.h; output — including --json — is byte-identical for
// any --threads value.
#include <cstdio>
#include <string>

#include "sim/batch_runner.h"

int main(int argc, char** argv) {
  using namespace sempe;
  security::AuditOptions opt;
  opt.samples = sim::env_usize("SEMPE_AUDIT_SAMPLES", 4);
  opt.stat_samples = sim::env_usize("SEMPE_STAT_SAMPLES", 0);
  opt.stat_budget = sim::env_usize("SEMPE_STAT_BUDGET", 0);
  const std::vector<std::string> specs = {
      // The acceptance-criterion point, at its registry defaults.
      "attack.prime_probe?victim=crypto.modexp",
      // Wider key sweeps of both probe styles against the same victim.
      "attack.prime_probe?victim=crypto.modexp&width=4&size=8&bits=8&iters=2",
      "attack.flush_reload?victim=crypto.modexp&width=4&size=8&bits=8&iters=2",
  };
  return sim::bench_main<sim::TenantFamily>(
      argc, argv, "tenants",
      "multi-tenant co-residence: attack.* workloads x secret space x "
      "{legacy, SeMPE, CTE}, with key-bit recovery",
      sim::tenant_grid(specs, opt), [](std::FILE* out, const auto& sweep) {
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
          if (!pt.at_chance("sempe") || !pt.at_chance("cte"))
            std::fprintf(out, "  !! a protected mode is distinguishable: %s\n",
                         a.mode("sempe") != nullptr
                             ? a.mode("sempe")->first_divergence().c_str()
                             : "");
          if (!pt.results_ok()) std::fprintf(out, "  !! results mismatch\n");
        }
        return all_ok;
      });
}
