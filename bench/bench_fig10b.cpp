// Figure 10b — average slowdown normalized to the ideal case.
//
// The ideal for removing SDBCB is the sum of the execution times of all
// branch paths. Two operational definitions are reported:
//   * standalone: each path costed in isolation ((W+1) x single-workload
//     run) — the paper's definition; SeMPE beats it via the prefetching
//     effect between paths (values < 1).
//   * combined: all paths executed once within a single run (cross-path
//     locality already included); SeMPE pays only drains/SPM on top
//     (values slightly > 1).
// CTE, by contrast, is far above ideal and grows with W.
//
// All 40 (kind, W) points run concurrently through sim/batch_runner.h and
// are then averaged per W over the four kinds.
#include <cstdio>

#include "sim/batch_runner.h"

int main(int argc, char** argv) {
  using namespace sempe;
  sim::MicrobenchOptions opt;
  opt.iterations = sim::env_usize("SEMPE_BENCH_ITERS", 20);
  const std::vector<usize> widths = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  return sim::bench_main<sim::MicrobenchFamily>(
      argc, argv, "fig10b", "Figure 10b: slowdown normalized to the ideal",
      sim::microbench_grid(sim::all_kinds(), widths, opt),
      [&](std::FILE* out, const auto& sweep) {
        // The report averages per W over the kinds; a --jobs filter or
        // --shard may leave holes, so rows average only the points this
        // run has (and a width with no points prints no row).
        for (const usize w : widths) {
          double vs_standalone = 0, vs_combined = 0, cte_vs_standalone = 0;
          usize present = 0;
          for (const auto& pt : sweep.run.points) {
            if (pt.width != w) continue;
            ++present;
            vs_standalone += pt.sempe_vs_ideal_standalone();
            vs_combined += pt.sempe_vs_ideal_combined();
            cte_vs_standalone += sim::MicrobenchPoint::ratio(
                pt.cte_cycles, pt.ideal_standalone_cycles);
          }
          if (present == 0) continue;
          const double n = static_cast<double>(present);
          std::fprintf(out,
                       "Fig10b  W=%2zu  SeMPE/ideal(standalone) %5.2f   "
                       "SeMPE/ideal(combined) %5.2f   CTE/ideal %6.2f\n",
                       w, vs_standalone / n, vs_combined / n,
                       cte_vs_standalone / n);
        }
        return true;
      });
}
