// Synthetic kernel sweep — every kernel of the synthetic family
// (workloads/synthetic.h) resolved through the workload registry and
// timed across the full mode matrix (legacy baseline, SeMPE, CTE) at
// nesting widths 1 and 4, with the secrets all false (the paper's Fig. 10
// convention: the baseline skips every guarded level, so the SeMPE
// slowdown ~ W+1) and all true (every mode executes every level). Each
// point also functionally cross-checks the merged results of every mode
// against the host mirrors ("ok" column).
//
// SEMPE_BENCH_ITERS sets the harness iteration count per run (default 4).
// The points run concurrently through sim/batch_runner.h; output order is
// fixed regardless of --threads.
#include <cstdio>
#include <string>

#include "sim/batch_runner.h"
#include "workloads/synthetic.h"

int main(int argc, char** argv) {
  using namespace sempe;
  const usize iters = sim::env_usize("SEMPE_BENCH_ITERS", 4);
  std::vector<std::string> specs;
  for (const workloads::SynthKind kind : workloads::all_synth_kinds()) {
    for (const usize w : {usize{1}, usize{4}}) {
      for (const char* secrets : {"0", "1"}) {
        specs.push_back(std::string("synthetic.") +
                        workloads::synth_name(kind) +
                        "?width=" + std::to_string(w) +
                        "&iters=" + std::to_string(iters) + "&secrets=" +
                        secrets);
      }
    }
  }
  return sim::bench_main<sim::WorkloadFamily>(
      argc, argv, "synthetic",
      "synthetic kernel family: all kernels x {legacy, SeMPE, CTE}",
      sim::workload_grid(specs, {}), [](std::FILE* out, const auto& sweep) {
        bool all_ok = true;
        for (const auto& pt : sweep.run.points) {
          all_ok = all_ok && pt.results_ok;
          std::fprintf(out,
                       "synthetic  %-48s  SeMPE %6.2fx   CTE %7.2fx   %s\n",
                       pt.spec.c_str(), pt.sempe_slowdown(), pt.cte_slowdown(),
                       pt.results_ok ? "ok" : "RESULTS MISMATCH");
          if (!pt.results_ok)
            std::fprintf(out, "  !! %s\n", pt.mismatch_summary().c_str());
        }
        return all_ok;
      });
}
