// Simulator-throughput harness — makes wall-clock speed a measured,
// tracked quantity instead of folklore.
//
// Runs the representative registry workloads (every synthetic kernel plus
// the crypto.*/ds.* scenarios) through the full mode matrix (legacy,
// SeMPE, CTE) exactly like bench_synthetic/bench_scenarios, but times each
// point on the host and reports simulated-MIPS (millions of simulated
// instructions per host second) and ns per simulated instruction.
//
// The --json document keeps the usual deterministic fields (cycles,
// instructions, results_ok — byte-identical across --threads values) and
// adds the wall-clock fields wall_ms / simulated_mips / ns_per_instr,
// which are the measurement and naturally vary per host.
// strip_perf_timing() (or `grep -v` over those three keys) recovers the
// deterministic remainder. BENCH_perf.json at the repo root is the
// committed trajectory record; it is updated by hand after intentional
// performance changes (see README "Performance"), not enforced by a test.
//
// SEMPE_BENCH_ITERS sets the harness iteration count per run (default 8;
// larger than the other benches so each point is long enough to time).
#include <cstdio>
#include <string>

#include "sim/batch_runner.h"

int main(int argc, char** argv) {
  using namespace sempe;
  const usize iters = sim::env_usize("SEMPE_BENCH_ITERS", 8);
  return sim::bench_main<sim::PerfFamily>(
      argc, argv, "perf",
      "simulator throughput: representative workloads x {legacy, SeMPE, "
      "CTE}, wall-clock tracked",
      sim::spec_grid<sim::PerfFamily>(sim::perf_sweep_specs(iters), {}),
      [](std::FILE* out, const auto& sweep) {
        bool all_ok = true;
        u64 total_instructions = 0;
        double total_point_secs = 0.0;
        for (const auto& pp : sweep.run.points) {
          all_ok = all_ok && pp.point.results_ok;
          total_instructions += pp.simulated_instructions();
          total_point_secs += pp.wall_seconds;
          std::fprintf(
              out, "perf  %-44s  %8.2f MIPS  %7.1f ns/instr  %9llu instr  %s\n",
              pp.point.spec.c_str(), pp.simulated_mips(),
              pp.ns_per_instruction(),
              static_cast<unsigned long long>(pp.simulated_instructions()),
              pp.point.results_ok ? "ok" : "RESULTS MISMATCH");
          if (!pp.point.results_ok)
            std::fprintf(out, "  !! %s\n", pp.point.mismatch_summary().c_str());
        }
        const double agg_mips =
            total_point_secs <= 0.0
                ? 0.0
                : static_cast<double>(total_instructions) /
                      (total_point_secs * 1e6);
        const double sweep_mips =
            sweep.seconds <= 0.0
                ? 0.0
                : static_cast<double>(total_instructions) /
                      (sweep.seconds * 1e6);
        std::fprintf(out,
                     "aggregate: %llu simulated instructions, %.2f MIPS per "
                     "worker, %.2f MIPS end-to-end\n",
                     static_cast<unsigned long long>(total_instructions),
                     agg_mips, sweep_mips);
        return all_ok;
      });
}
