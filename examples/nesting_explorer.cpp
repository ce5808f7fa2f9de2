// Explore the Fig. 7 microbenchmark interactively: pick a workload and a
// nesting depth, see baseline / SeMPE / CTE cycles, the derived slowdowns
// (one row of Fig. 10a) and each run's results check.
//
//   build/examples/nesting_explorer [kind] [W] [iterations]
//   kind:       fibonacci | ones | quicksort | queens   (default fibonacci)
//   W:          nesting depth 0..30                     (default 4)
//   iterations: 1..2^24                                 (default 20)
//
// The point is the registry spec micro.KIND?width=W&iters=I&secrets=0, so
// the registry validates every argument: a bad one prints `error: ...` and
// exits 1.
#include <cstdio>
#include <string>

#include "sim/experiment.h"

using namespace sempe;

int main(int argc, char** argv) {
  const std::string kind = argc > 1 ? argv[1] : "fibonacci";
  const std::string width = argc > 2 ? argv[2] : "4";
  const std::string iters = argc > 3 ? argv[3] : "20";
  const std::string spec =
      "micro." + kind + "?width=" + width + "&iters=" + iters;
  try {
    const sim::WorkloadPoint pt = sim::measure_workload(spec + "&secrets=0");
    // The standalone sum-of-paths ideal, priced by the width-0 build.
    const sim::WorkloadPoint one = sim::measure_workload(
        "micro." + kind + "?width=0&iters=" + iters, {}, /*legacy_only=*/true);
    const Cycle ideal = sim::WorkloadPoint::ideal_standalone_cycles(
        one, workloads::WorkloadSpec::parse(pt.spec).get_u64("width", 0));

    // Each run's results check against the host mirror.
    const auto check = [](const sim::WorkloadPoint& p, const char* mode) {
      const sim::ModeResultCheck* c = p.check(mode);
      return c->ok ? std::string("OK") : "MISMATCH " + c->detail;
    };
    std::printf("microbenchmark %s\n\n", pt.spec.c_str());
    std::printf("  baseline (legacy, secrets=false): %10llu cycles"
                "             check: %s\n",
                (unsigned long long)pt.baseline_cycles,
                check(pt, "legacy").c_str());
    std::printf("  SeMPE (all paths executed):       %10llu cycles"
                "  (%6.2fx)  check: %s\n",
                (unsigned long long)pt.sempe_cycles, pt.sempe_slowdown(),
                check(pt, "sempe").c_str());
    std::printf("  CTE / FaCT-style:                 %10llu cycles"
                "  (%6.2fx)  check: %s\n",
                (unsigned long long)pt.cte_cycles, pt.cte_slowdown(),
                check(pt, "cte").c_str());
    std::printf("  ideal (sum of paths, standalone): %10llu cycles"
                "             check: %s\n",
                (unsigned long long)ideal, check(one, "legacy").c_str());
    std::printf("\n  SeMPE vs ideal: %.2f    CTE vs SeMPE: %.2fx\n",
                sim::WorkloadPoint::ratio(pt.sempe_cycles, ideal),
                sim::WorkloadPoint::ratio(pt.cte_cycles, pt.sempe_cycles));
    std::printf("\n(The paper's Fig. 10a plots these slowdowns for W=1..10;\n"
                " SeMPE tracks W+1 while CTE grows super-linearly.)\n");
    return pt.results_ok && one.results_ok ? 0 : 1;
  } catch (const SimError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
