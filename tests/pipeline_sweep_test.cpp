// Property sweeps over the machine configuration: growing a resource never
// slows the machine down, shrinking it never speeds it up, and the SeMPE
// security property holds at every design point.
#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "workloads/registry.h"

namespace sempe {
namespace {

using workloads::BuiltWorkload;

BuiltWorkload build(const std::string& spec) {
  return workloads::WorkloadRegistry::instance().build(
      spec, workloads::Variant::kSecure);
}

BuiltWorkload bench_prog() {
  return build("micro.quicksort?size=24&width=2&iters=3&secrets=10");
}

Cycle cycles_with(const isa::Program& p, cpu::ExecMode mode,
                  const pipeline::PipelineConfig& pc) {
  sim::RunConfig rc;
  rc.core.mode = mode;
  rc.pipe = pc;
  rc.record_observations = false;
  return sim::run(p, rc).stats.cycles;
}

struct Knob {
  const char* name;
  void (*shrink)(pipeline::PipelineConfig&);
  void (*grow)(pipeline::PipelineConfig&);
};

const Knob kKnobs[] = {
    {"rob", [](auto& c) { c.rob_entries = 32; },
     [](auto& c) { c.rob_entries = 512; }},
    {"issue_width", [](auto& c) { c.issue_width = 2; },
     [](auto& c) { c.issue_width = 16; }},
    {"fetch_width", [](auto& c) { c.fetch_width = 2; },
     [](auto& c) { c.fetch_width = 16; }},
    {"retire_width", [](auto& c) { c.retire_width = 2; },
     [](auto& c) { c.retire_width = 24; }},
    {"iq", [](auto& c) { c.iq_int_entries = 8; },
     [](auto& c) { c.iq_int_entries = 128; }},
    {"lsq", [](auto& c) { c.load_queue = c.store_queue = 4; },
     [](auto& c) { c.load_queue = c.store_queue = 64; }},
    {"alus", [](auto& c) { c.alu_units = 1; },
     [](auto& c) { c.alu_units = 8; }},
    {"prf", [](auto& c) { c.phys_int_regs = 64; },
     [](auto& c) { c.phys_int_regs = 512; }},
    {"spm_port", [](auto& c) { c.spm_bytes_per_cycle = 8; },
     [](auto& c) { c.spm_bytes_per_cycle = 256; }},
};

class ResourceSweep : public ::testing::TestWithParam<usize> {};

TEST_P(ResourceSweep, MoreResourceNeverHurts) {
  const Knob& k = kKnobs[GetParam()];
  const auto b = bench_prog();
  pipeline::PipelineConfig small, base, large;
  k.shrink(small);
  k.grow(large);
  for (cpu::ExecMode mode : {cpu::ExecMode::kLegacy, cpu::ExecMode::kSempe}) {
    const Cycle cs = cycles_with(b.program, mode, small);
    const Cycle cb = cycles_with(b.program, mode, base);
    const Cycle cl = cycles_with(b.program, mode, large);
    // 1% slack: greedy issue-slot allocation (like real schedulers) can
    // exhibit small anomalies where a larger window reorders issue and
    // lengthens the critical path slightly.
    EXPECT_GE(cs + cs / 100, cb) << k.name << " shrink should not speed up";
    EXPECT_GE(cb + cb / 100, cl) << k.name << " grow should not slow down";
  }
}

TEST_P(ResourceSweep, SecurityHoldsAtEveryDesignPoint) {
  // Timing equality across secrets must hold regardless of machine size.
  const Knob& k = kKnobs[GetParam()];
  pipeline::PipelineConfig small;
  k.shrink(small);
  Cycle c[2];
  int i = 0;
  for (const char* s : {"0", "1"}) {
    const auto b =
        build(std::string("micro.ones?size=12&width=2&iters=2&secrets=") + s);
    c[i++] = cycles_with(b.program, cpu::ExecMode::kSempe, small);
  }
  EXPECT_EQ(c[0], c[1]) << k.name;
}

INSTANTIATE_TEST_SUITE_P(Knobs, ResourceSweep,
                         ::testing::Range<usize>(0, std::size(kKnobs)),
                         [](const auto& info) {
                           return std::string(kKnobs[info.param].name);
                         });

TEST(ResourceSweepFacts, TinyMachineStillCorrect) {
  pipeline::PipelineConfig tiny;
  tiny.fetch_width = 1;
  tiny.rename_width = 1;
  tiny.issue_width = 1;
  tiny.retire_width = 1;
  tiny.rob_entries = 8;
  tiny.iq_int_entries = 4;
  tiny.iq_fp_entries = 4;
  tiny.load_queue = tiny.store_queue = 2;
  tiny.alu_units = 1;
  const auto b = bench_prog();
  sim::RunConfig rc;
  rc.core.mode = cpu::ExecMode::kSempe;
  rc.pipe = tiny;
  rc.probe_addr = b.results_addr;
  rc.probe_words = b.num_results;
  const auto r = sim::run(b.program, rc);
  EXPECT_EQ(r.probed, b.expected_results);  // timing model never alters results
  EXPECT_GT(r.stats.cycles, r.instructions);  // scalar machine: CPI > 1
}

}  // namespace
}  // namespace sempe
