// Table I — comparison of approaches to eliminate SDBCB.
//
// The qualitative rows come from the paper (GhostRider/Raccoon numbers are
// their reported worst-case overheads; we do not re-implement those
// systems). The CTE and SeMPE rows are *measured* on this simulator at the
// paper's deepest nesting configuration (W = 10), mirroring how Table I
// cites the microbenchmark worst case. The four kind points are
// independent, so they run concurrently through sim/batch_runner.h.
#include <algorithm>
#include <cstdio>

#include "sim/batch_runner.h"

int main(int argc, char** argv) {
  using namespace sempe;
  sim::MicrobenchOptions opt;
  opt.iterations = sim::env_usize("SEMPE_BENCH_ITERS", 20);
  return sim::bench_main<sim::MicrobenchFamily>(
      argc, argv, "table1", "Table I: approaches to eliminate SDBCB",
      sim::microbench_grid(sim::all_kinds(), {10}, opt),
      [](std::FILE* out, const auto& sweep) {
        // Worst case over whatever points this run has (--jobs / --shard
        // may restrict the set; the full table needs the unrestricted
        // sweep).
        double worst_cte = 0, worst_sempe = 0;
        for (const auto& pt : sweep.run.points) {
          worst_cte = std::max(worst_cte, pt.cte_slowdown());
          worst_sempe = std::max(worst_sempe, pt.sempe_slowdown());
        }
        std::fprintf(out,
            "\nTable I: Comparing approaches to eliminate SDBCB\n"
            "%-22s %-12s %-12s %-12s %-12s\n", "Aspect", "CTE", "GhostRider",
            "Raccoon", "SeMPE");
        std::fprintf(out,
            "%-22s %-12s %-12s %-12s %-12s\n", "Approach", "elim.branch",
                    "equal.path", "both paths", "both paths");
        std::fprintf(out,
            "%-22s %-12s %-12s %-12s %-12s\n", "Technique", "SW", "HW/SW",
                    "SW", "HW/SW");
        std::fprintf(out,
            "%-22s %-12s %-12s %-12s %-12s\n", "Prog. complexity", "High",
                    "Low", "Low", "Low");
        std::fprintf(out,
            "%-22s %-12s %-12s %-12s %-12s\n", "Reported overheads",
                    "187.3x", "1987x", "452x", "10.6x");
        char cte_s[32], sempe_s[32];
        std::snprintf(cte_s, sizeof cte_s, "%.1fx", worst_cte);
        std::snprintf(sempe_s, sizeof sempe_s, "%.1fx", worst_sempe);
        std::fprintf(out,
            "%-22s %-12s %-12s %-12s %-12s\n", "Measured here (W=10)",
                    cte_s, "-", "-", sempe_s);
        std::fprintf(out,
            "%-22s %-12s %-12s %-12s %-12s\n", "Simple architecture", "Yes",
                    "No", "Yes", "Yes");
        std::fprintf(out,
            "%-22s %-12s %-12s %-12s %-12s\n\n", "Backward compatible",
                    "Yes", "No", "No", "Yes");
        return true;
      });
}
