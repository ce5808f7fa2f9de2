// Real-scenario sweep — the crypto and data-structure kernels of the
// scenario pack (workloads/scenarios.h) resolved through the workload
// registry and timed across the full mode matrix (legacy baseline, SeMPE,
// CTE) at nesting widths 1 and 4, with the secrets all false (the Fig. 10
// convention: the baseline skips every guarded level) and all true. Each
// point functionally cross-checks the merged results of every mode
// against the host mirrors ("ok" column). The CTE column is where the
// paper's 10-100x software constant-time overheads show up: the oblivious
// T-table scan and worst-case probe windows do real extra work.
//
// SEMPE_BENCH_ITERS sets the harness iteration count per run (default 4).
// The points run concurrently through sim/batch_runner.h; output —
// including --json — is byte-identical for any --threads value (pinned by
// tests/golden_json_test.cpp).
#include <cstdio>
#include <string>

#include "sim/batch_runner.h"
#include "workloads/scenarios.h"

int main(int argc, char** argv) {
  using namespace sempe;
  const usize iters = sim::env_usize("SEMPE_BENCH_ITERS", 4);
  return sim::bench_main<sim::WorkloadFamily>(
      argc, argv, "scenarios",
      "real-scenario pack: crypto + data-structure kernels x {legacy, "
      "SeMPE, CTE}",
      sim::workload_grid(workloads::scenario_sweep_specs(iters), {}),
      [](std::FILE* out, const auto& sweep) {
        bool all_ok = true;
        for (const auto& pt : sweep.run.points) {
          all_ok = all_ok && pt.results_ok;
          std::fprintf(out,
                       "scenario  %-48s  SeMPE %6.2fx   CTE %7.2fx   %s\n",
                       pt.spec.c_str(), pt.sempe_slowdown(), pt.cte_slowdown(),
                       pt.results_ok ? "ok" : "RESULTS MISMATCH");
          if (!pt.results_ok)
            std::fprintf(out, "  !! %s\n", pt.mismatch_summary().c_str());
        }
        return all_ok;
      });
}
