// Value-pinned regression test for the timing model: every non-attack
// registry workload, at a small spec, runs in legacy, SeMPE and CTE mode on
// the full pipeline, and every PipelineStats counter plus the predictor and
// cache-hierarchy state digests is compared against
// tests/golden/sim_stats.golden. Unlike the schema goldens (which blank
// their values), this file pins the simulated numbers themselves, so a
// host-side speedup that claims bit-identical results is checked here.
//
// After an INTENDED change to simulated results, regenerate with:
//   SEMPE_UPDATE_GOLDEN=1 ./sim_stats_golden_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "workloads/registry.h"

namespace sempe::workloads {
namespace {

WorkloadRegistry& reg() { return WorkloadRegistry::instance(); }

// One small spec per non-attack generator. width=2&secrets=10 takes one
// nested secure region and skips the other, so SeMPE's drain/SPM path and
// the not-taken path are both on the pinned timeline.
const std::vector<std::string>& specs() {
  static const std::vector<std::string> s = {
      "crypto.aes?width=2&secrets=10&iters=2",
      "crypto.modexp?width=2&secrets=10&iters=2",
      "djpeg?pixels=16384&scale=8",
      "ds.hash_probe?width=2&secrets=10&iters=2",
      "micro.fibonacci?width=2&secrets=10&iters=2",
      "micro.ones?width=2&secrets=10&iters=2",
      "micro.queens?width=2&secrets=10&iters=2",
      "micro.quicksort?width=2&secrets=10&iters=2",
      "synthetic.cond_branch?width=2&secrets=10&iters=2&size=512",
      "synthetic.ibr?width=2&secrets=10&iters=2",
      "synthetic.ilp?width=2&secrets=10&iters=2",
      "synthetic.ptr_chase?width=2&secrets=10&iters=2",
      "synthetic.secret_mix?width=2&secrets=10&iters=2",
      "synthetic.stream?width=2&secrets=10&iters=2",
  };
  return s;
}

void render_run(std::ostream& os, const std::string& spec, const char* mode,
                const BuiltWorkload& w, cpu::ExecMode exec) {
  sim::RunConfig cfg;
  cfg.core.mode = exec;
  cfg.probe_addr = w.results_addr;
  cfg.probe_words = w.num_results;
  const sim::RunResult r = sim::run(w.program, cfg);
  EXPECT_EQ(r.probed, w.expected_results) << spec << " [" << mode << "]";
  os << "[" << spec << "] " << mode << "\n";
  const StatSet stats = r.stats.export_stats();
  for (const auto& [k, v] : stats.counters())
    os << "  " << k << " = " << v << "\n";
  os << std::hex << "  predictor_digest = 0x" << r.trace.predictor_digest
     << "\n  state_digest = 0x" << r.trace.cache_digest << std::dec << "\n";
}

TEST(SimStatsGolden, EveryNonAttackWorkloadHasASpec) {
  for (const std::string& name : reg().names()) {
    if (reg().resolve(name).is_attack()) continue;
    bool found = false;
    for (const std::string& s : specs())
      found = found || WorkloadSpec::parse(s).name == name;
    EXPECT_TRUE(found) << name << " has no entry in specs()";
  }
}

TEST(SimStatsGolden, CountersAndDigestsArePinned) {
  std::ostringstream out;
  for (const std::string& spec : specs()) {
    const WorkloadGenerator& gen =
        reg().resolve(WorkloadSpec::parse(spec).name);
    const BuiltWorkload secure = reg().build(spec, Variant::kSecure);
    render_run(out, spec, "legacy", secure, cpu::ExecMode::kLegacy);
    render_run(out, spec, "sempe", secure, cpu::ExecMode::kSempe);
    if (gen.has_cte_variant())
      render_run(out, spec, "cte", reg().build(spec, Variant::kCte),
                 cpu::ExecMode::kLegacy);
  }

  const std::string path = std::string(SEMPE_GOLDEN_DIR) + "/sim_stats.golden";
  if (std::getenv("SEMPE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream f(path);
    ASSERT_TRUE(f.good()) << "cannot write " << path;
    f << out.str();
    GTEST_SKIP() << "golden file rewritten: " << path;
  }
  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << "missing golden file " << path
                        << " (regenerate with SEMPE_UPDATE_GOLDEN=1)";
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_EQ(buf.str(), out.str())
      << "simulated counters drifted from sim_stats.golden. If the change "
         "to simulated results is intended, regenerate with "
         "SEMPE_UPDATE_GOLDEN=1 and say so.";
}

}  // namespace
}  // namespace sempe::workloads
