// Tests for the simulator-throughput harness (bench_perf's library layer)
// and the fixed-slot statistics refactor behind it.
//
// The counter refactor replaced the hot-path string-keyed StatSet in
// mem::Cache with enum-indexed arrays, keeping a cold export_stats() that
// renders the same named view. The equivalence suite here re-derives that
// view two independent ways (a mirror StatSet fed by the access results,
// and the PipelineStats/Hierarchy accessors) across a registry sweep in
// all three modes, so a slot/name drift can never hide.
#include <gtest/gtest.h>

#include "mem/cache.h"
#include "mem/hierarchy.h"
#include "sim/batch_runner.h"
#include "util/rng.h"

namespace sempe {
namespace {

using mem::Cache;
using mem::CacheConfig;
using mem::CacheStat;
using sim::MicrobenchOptions;
using sim::PerfFamily;
using sim::PerfPoint;

/// Sweep options with only the worker count set.
sim::SweepOptions on_threads(usize n) {
  sim::SweepOptions opt;
  opt.threads = n;
  return opt;
}

// ---------------------------------------------------------------------------
// Counter-refactor equivalence.

TEST(CounterEquivalence, CacheExportMatchesPreRefactorAccounting) {
  // Drive a small cache with a deterministic demand stream and maintain a
  // mirror StatSet performing exactly the add() calls the pre-refactor
  // access path performed. The fixed-slot export must render the identical
  // named view.
  Cache c(CacheConfig{.name = "T", .size_bytes = 1024, .assoc = 2,
                      .line_bytes = 64});
  StatSet mirror;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const Addr a = rng.next_below(64) * 64 + rng.next_below(8);
    const bool is_write = rng.next_below(4) == 0;
    mirror.add("accesses");
    if (is_write) mirror.add("writes");
    const auto r = c.access(a, is_write);
    if (!r.hit) mirror.add("misses");
    if (r.writeback) mirror.add("writebacks");
  }
  mirror.add("prefetch_fills", 0);  // no prefetches in this stream
  const StatSet exported = c.export_stats();
  EXPECT_EQ(exported.counters(), mirror.counters());
  // The typed accessors and the named view are the same slots.
  EXPECT_EQ(c.demand_accesses(), exported.get("accesses"));
  EXPECT_EQ(c.demand_misses(), exported.get("misses"));
  EXPECT_EQ(c.stat(CacheStat::kWrites), exported.get("writes"));
  EXPECT_EQ(c.stat(CacheStat::kWritebacks), exported.get("writebacks"));
  EXPECT_EQ(c.stat(CacheStat::kPrefetchFills), 0u);
}

TEST(CounterEquivalence, RegistrySweepNamedViewMatchesFixedSlots) {
  // A registry sweep across all three modes: every run's PipelineStats
  // named view must agree with the struct slots the JSON emitters consume,
  // and the hierarchy counters the stats were copied from.
  for (const char* spec :
       {"synthetic.cond_branch?width=2&iters=2&secrets=1",
        "crypto.aes?width=1&iters=2&secrets=1",
        "ds.hash_probe?width=1&iters=2&secrets=0"}) {
    const auto pt = sim::measure_workload(spec, MicrobenchOptions{});
    ASSERT_TRUE(pt.results_ok) << spec << ": " << pt.mismatch_summary();
  }
  // Direct run to reach the stats objects themselves.
  const auto parsed =
      workloads::WorkloadSpec::parse("synthetic.stream?width=2&iters=2");
  const auto& gen = workloads::WorkloadRegistry::instance().resolve(parsed.name);
  const auto built = gen.build(parsed, workloads::Variant::kSecure);
  for (const cpu::ExecMode mode :
       {cpu::ExecMode::kLegacy, cpu::ExecMode::kSempe}) {
    sim::RunConfig rc;
    rc.core.mode = mode;
    rc.record_observations = false;
    const sim::RunResult r = sim::run(built.program, rc);
    const StatSet v = r.stats.export_stats();
    EXPECT_EQ(v.get("cycles"), r.stats.cycles);
    EXPECT_EQ(v.get("instructions"), r.stats.instructions);
    EXPECT_EQ(v.get("loads"), r.stats.loads);
    EXPECT_EQ(v.get("stores"), r.stats.stores);
    EXPECT_EQ(v.get("cond_branches"), r.stats.cond_branches);
    EXPECT_EQ(v.get("il1_accesses"), r.stats.il1_accesses);
    EXPECT_EQ(v.get("dl1_accesses"), r.stats.dl1_accesses);
    EXPECT_EQ(v.get("dl1_misses"), r.stats.dl1_misses);
    EXPECT_EQ(v.get("l2_accesses"), r.stats.l2_accesses);
    EXPECT_GT(v.get("instructions"), 0u);
  }
}

TEST(CounterEquivalence, HierarchyExportAggregatesCacheViews) {
  mem::Hierarchy h;
  for (int i = 0; i < 200; ++i) {
    h.access_instr(static_cast<Addr>(i) * 64);
    h.access_data(0x10000 + static_cast<Addr>(i) * 64, i % 3 == 0,
                  static_cast<Addr>(i) * 4);
  }
  const StatSet s = h.export_stats();
  EXPECT_EQ(s.get("instr_accesses"), h.stat(mem::HierStat::kInstrAccesses));
  EXPECT_EQ(s.get("data_accesses"), h.stat(mem::HierStat::kDataAccesses));
  EXPECT_EQ(s.get("instr_accesses"), 200u);
  EXPECT_EQ(s.get("data_accesses"), 200u);
  EXPECT_EQ(s.get("IL1.accesses"), h.il1().demand_accesses());
  EXPECT_EQ(s.get("DL1.accesses"), h.dl1().demand_accesses());
  EXPECT_EQ(s.get("L2.accesses"), h.l2().demand_accesses());
  EXPECT_EQ(s.get("IL1.misses"), h.il1().demand_misses());
  // Every L1 demand access reached a cache; misses flowed into L2.
  EXPECT_EQ(s.get("IL1.accesses") + s.get("DL1.accesses"), 400u);
  EXPECT_GT(s.get("L2.accesses"), 0u);
}

// ---------------------------------------------------------------------------
// bench_perf determinism and schema.

std::vector<sim::WorkloadJob> small_perf_jobs() {
  return sim::spec_grid<PerfFamily>({"synthetic.stream?width=1&iters=2",
                         "crypto.modexp?width=1&iters=2&bits=8",
                         "ds.hash_probe?width=1&iters=2"},
                        MicrobenchOptions{});
}

TEST(PerfHarness, NonTimingFieldsByteIdenticalAcrossThreads) {
  const auto jobs = small_perf_jobs();
  const std::string full = sim::sweep_json<PerfFamily>(
      "perf", jobs, sim::run_sweep<PerfFamily>(jobs, on_threads(1)));
  const std::string j1 = sim::strip_perf_timing(full);
  const std::string j4 = sim::strip_perf_timing(sim::sweep_json<PerfFamily>(
      "perf", jobs, sim::run_sweep<PerfFamily>(jobs, on_threads(4))));
  EXPECT_EQ(j1, j4);
  // The strip really removed the wall-clock lines and nothing else.
  EXPECT_NE(full.find("\"wall_ms\""), std::string::npos);
  EXPECT_NE(full.find("\"simulated_mips\""), std::string::npos);
  EXPECT_NE(full.find("\"ns_per_instr\""), std::string::npos);
  EXPECT_EQ(j1.find("\"wall_ms\""), std::string::npos);
  EXPECT_EQ(j1.find("\"simulated_mips\""), std::string::npos);
  EXPECT_EQ(j1.find("\"ns_per_instr\""), std::string::npos);
  EXPECT_NE(j1.find("\"baseline_cycles\""), std::string::npos);
}

TEST(PerfHarness, SchemaCarriesMetaAndPerPointFields) {
  const auto jobs = small_perf_jobs();
  const auto run = sim::run_sweep<PerfFamily>(jobs, on_threads(2));
  const std::string json = sim::sweep_json<PerfFamily>("perf", jobs, run);
  for (const char* key :
       {"\"schema_version\": 3", "\"experiment\": \"perf\"",
        "\"modes\": \"legacy,sempe,cte\"", "\"results_ok\"",
        "\"baseline_cycles\"", "\"sempe_cycles\"", "\"cte_cycles\"",
        "\"total_instructions\"", "\"wall_ms\"", "\"simulated_mips\"",
        "\"ns_per_instr\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  for (const PerfPoint& pp : run.points) {
    EXPECT_TRUE(pp.point.results_ok) << pp.point.mismatch_summary();
    EXPECT_GT(pp.simulated_instructions(), 0u);
    EXPECT_GE(pp.wall_seconds, 0.0);
  }
}

TEST(PerfHarness, TimedPointsAreNeverCachedOrJournaled) {
  // A replayed wall clock would be a wrong measurement, so the perf family
  // has no key and refuses both persistence flags before running a job.
  const auto jobs = small_perf_jobs();
  const auto refused = [&](const char* flag) {
    sim::SweepOptions opt;
    (flag == std::string("--cache-dir") ? opt.cache_dir : opt.journal_path) =
        "unused";
    try {
      (void)sim::run_sweep<PerfFamily>(jobs, opt);
    } catch (const SimError& e) {
      return std::string(e.what()).find(flag) != std::string::npos;
    }
    return false;
  };
  EXPECT_TRUE(refused("--cache-dir"));
  EXPECT_TRUE(refused("--journal"));
  static_assert(!sim::CachedFamily<PerfFamily>);
  static_assert(sim::CachedFamily<sim::WorkloadFamily>);
}

TEST(PerfHarness, SweepSpecsResolveThroughRegistry) {
  // Every spec bench_perf times must resolve (unknown params throw).
  const auto specs = sim::perf_sweep_specs(/*iters=*/1);
  EXPECT_GE(specs.size(), 9u);
  for (const std::string& spec : specs) {
    const auto parsed = workloads::WorkloadSpec::parse(spec);
    EXPECT_NO_THROW(
        workloads::WorkloadRegistry::instance().resolve(parsed.name));
  }
}

TEST(PerfHarness, DerivedMetricsAreConsistent) {
  PerfPoint pp;
  pp.point.baseline_instructions = 1'000'000;
  pp.point.sempe_instructions = 2'000'000;
  pp.point.cte_instructions = 3'000'000;
  pp.wall_seconds = 0.5;
  EXPECT_EQ(pp.simulated_instructions(), 6'000'000u);
  EXPECT_DOUBLE_EQ(pp.simulated_mips(), 12.0);
  EXPECT_NEAR(pp.ns_per_instruction(), 83.333, 0.01);
  PerfPoint zero;
  EXPECT_DOUBLE_EQ(zero.simulated_mips(), 0.0);
  EXPECT_DOUBLE_EQ(zero.ns_per_instruction(), 0.0);
}

}  // namespace
}  // namespace sempe
