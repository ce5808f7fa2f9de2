// Figure 10a — execution time slowdown vs nesting depth W (x-axis, 1..10),
// SeMPE (solid) vs CTE/FaCT (dashed), one series per microbenchmark,
// log-scale y in the paper.
//
// Paper shape: SeMPE ~ W+1 (8.4-10.6x at W=10); CTE from 3-32x at W=1 up to
// 12.9-187.3x at W=10; CTE/SeMPE ratio up to ~18x.
//
// SEMPE_BENCH_ITERS sets the iteration count per run (default 20). The 40
// (kind, W) points run concurrently through sim/batch_runner.h; output
// order is fixed regardless of --threads.
#include <cstdio>

#include "sim/batch_runner.h"

int main(int argc, char** argv) {
  using namespace sempe;
  sim::MicrobenchOptions opt;
  opt.iterations = sim::env_usize("SEMPE_BENCH_ITERS", 20);
  return sim::bench_main<sim::MicrobenchFamily>(
      argc, argv, "fig10a", "Figure 10a: slowdown vs nesting depth",
      sim::microbench_grid(sim::all_kinds(), {1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
                           opt),
      [](std::FILE* out, const auto& sweep) {
        for (const auto& pt : sweep.run.points)
          std::fprintf(out,
                       "Fig10a  %-10s W=%2zu  SeMPE %6.2fx   CTE %7.2fx   "
                       "(CTE/SeMPE %5.2fx)\n",
                       workloads::kind_name(pt.kind), pt.width,
                       pt.sempe_slowdown(), pt.cte_slowdown(),
                       pt.cte_vs_sempe());
        return true;
      });
}
