// Table II — the baseline microarchitecture model.
//
// Echoes the configured machine the way the paper reports it, and runs a
// self-check workload so the table is backed by a live simulation (IPC and
// cache behavior within sane bounds for the configuration). The self-check
// point dispatches through sim/batch_runner.h like every other bench.
#include <cstdio>

#include "sim/batch_runner.h"
#include "sim/machine_config.h"

int main(int argc, char** argv) {
  using namespace sempe;
  sim::MicrobenchJob selfcheck;
  selfcheck.label = "selfcheck/ones/W=2";
  selfcheck.kind = workloads::Kind::kOnes;
  selfcheck.width = 2;
  selfcheck.opt.iterations = sim::env_usize("SEMPE_BENCH_ITERS", 20);
  return sim::bench_main<sim::MicrobenchFamily>(
      argc, argv, "table2", "Table II: baseline machine model", {selfcheck},
      [](std::FILE* out, const auto& sweep) {
        std::fprintf(out, "\n%s\n",
                     sim::describe(sim::table2_machine()).c_str());
        // A --jobs filter or a non-owning shard can leave the single
        // self-check point to another invocation; the table still prints.
        if (!sweep.run.points.empty()) {
          const auto& pt = sweep.run.points[0];
          const double ipc =
              pt.baseline_cycles == 0
                  ? 0.0
                  : static_cast<double>(pt.baseline_instructions) /
                        static_cast<double>(pt.baseline_cycles);
          std::fprintf(out, "self-check IPC on ones/W=2: %.2f\n", ipc);
        }
        std::fprintf(out, "\n");
        return true;
      });
}
