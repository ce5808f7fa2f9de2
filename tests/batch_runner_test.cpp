#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/batch_runner.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "workloads/registry.h"

namespace sempe {
namespace {

using sim::BatchCli;
using Family = sim::WorkloadFamily;

/// Sweep options with only the worker count set.
sim::SweepOptions on_threads(usize n) {
  sim::SweepOptions opt;
  opt.threads = n;
  return opt;
}

TEST(RunIndexed, ResultsComeBackInIndexOrder) {
  for (const usize threads : {usize{1}, usize{2}, usize{8}}) {
    const auto r =
        sim::run_indexed(100, threads, [](usize i) { return i * i; });
    ASSERT_EQ(r.size(), 100u);
    for (usize i = 0; i < r.size(); ++i) EXPECT_EQ(r[i], i * i);
  }
}

TEST(RunIndexed, HandlesEmptyAndOversubscribedPools) {
  EXPECT_TRUE(sim::run_indexed(0, 8, [](usize i) { return i; }).empty());
  const auto r = sim::run_indexed(3, 64, [](usize i) { return i + 1; });
  EXPECT_EQ(r, (std::vector<usize>{1, 2, 3}));
}

TEST(RunIndexed, RethrowsJobExceptions) {
  const auto boom = [](usize i) -> usize {
    SEMPE_CHECK_MSG(i != 3, "job " << i);
    return i;
  };
  EXPECT_THROW(sim::run_indexed(8, 4, boom), SimError);
  EXPECT_THROW(sim::run_indexed(8, 1, boom), SimError);
}

TEST(ResolveThreads, ClampsToJobsAndNeverReturnsZero) {
  EXPECT_EQ(sim::resolve_threads(4, 10), 4u);
  EXPECT_EQ(sim::resolve_threads(16, 3), 3u);
  EXPECT_GE(sim::resolve_threads(0, 100), 1u);
}

std::vector<char*> make_argv(std::vector<std::string>& store) {
  std::vector<char*> argv;
  argv.reserve(store.size());
  for (std::string& s : store) argv.push_back(s.data());
  return argv;
}

TEST(BatchCli, StripsOwnFlagsAndKeepsTheRest) {
  std::vector<std::string> store = {"bench", "--threads=6", "keepme",
                                    "--json=out.json", "--help"};
  std::vector<char*> argv = make_argv(store);
  int argc = static_cast<int>(argv.size());
  const BatchCli cli = sim::parse_batch_cli(argc, argv.data());
  EXPECT_TRUE(cli.ok);
  EXPECT_EQ(cli.sweep.threads, 6u);
  EXPECT_TRUE(cli.want_json);
  EXPECT_EQ(cli.json_path, "out.json");
  EXPECT_TRUE(cli.help);
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[0], "bench");
  EXPECT_STREQ(argv[1], "keepme");
}

TEST(BatchCli, BareJsonMeansStdout) {
  std::vector<std::string> store = {"bench", "--json"};
  std::vector<char*> argv = make_argv(store);
  int argc = static_cast<int>(argv.size());
  const BatchCli cli = sim::parse_batch_cli(argc, argv.data());
  EXPECT_TRUE(cli.want_json);
  EXPECT_TRUE(cli.json_path.empty());
  EXPECT_EQ(argc, 1);
}

// Fast sweep used by the determinism checks.
std::vector<sim::WorkloadJob> small_grid() {
  std::vector<sim::WorkloadJob> jobs;
  for (const char* kind : {"ones", "fibonacci"})
    for (const char* w : {"1", "2"})
      jobs.push_back({std::string(kind) + "/W=" + w,
                      std::string("micro.") + kind + "?width=" + w +
                          "&iters=4&secrets=0"});
  return jobs;
}

TEST(BatchRunner, JsonIsByteIdenticalAcrossThreadCounts) {
  const auto jobs = small_grid();
  const auto r1 = sim::run_sweep<Family>(jobs, on_threads(1));
  const auto r2 = sim::run_sweep<Family>(jobs, on_threads(2));
  const auto r8 = sim::run_sweep<Family>(jobs, on_threads(8));
  const std::string j1 = sim::sweep_json<Family>("determinism", jobs, r1);
  const std::string j2 = sim::sweep_json<Family>("determinism", jobs, r2);
  const std::string j8 = sim::sweep_json<Family>("determinism", jobs, r8);
  EXPECT_FALSE(j1.empty());
  EXPECT_EQ(j1, j2);
  EXPECT_EQ(j1, j8);
  // Sanity: results are real, not all-zero placeholders.
  for (const sim::WorkloadPoint& p : r1.points) {
    EXPECT_TRUE(p.results_ok) << p.spec;
    EXPECT_GT(p.baseline_cycles, 0u);
    EXPECT_GT(p.sempe_cycles, 0u);
  }
}

TEST(BatchRunner, JsonOpensWithMetadataHeader) {
  const auto jobs = small_grid();
  const std::string j = sim::sweep_json<Family>(
      "header", jobs, sim::run_sweep<Family>(jobs, on_threads(2)));
  // The meta object precedes the points array and carries the schema
  // version, experiment name, workload description, and mode list. The
  // threads field is the constant 0 (thread-count invariant) — a real
  // worker count here would defeat the byte-identity guarantee.
  const auto meta_at = j.find("\"meta\": {");
  const auto points_at = j.find("\"points\": [");
  ASSERT_NE(meta_at, std::string::npos);
  ASSERT_NE(points_at, std::string::npos);
  EXPECT_LT(meta_at, points_at);
  EXPECT_NE(j.find("\"schema_version\": 4"), std::string::npos);
  EXPECT_NE(j.find("\"experiment\": \"header\""), std::string::npos);
  EXPECT_NE(j.find("\"workload\": \"micro.ones,micro.fibonacci\""),
            std::string::npos);
  EXPECT_NE(j.find("\"modes\": \"legacy,sempe,cte\""), std::string::npos);
  EXPECT_NE(j.find("\"threads\": 0"), std::string::npos);
}

TEST(BatchRunner, WorkloadJsonByteIdenticalAcrossThreadCountsInclHeader) {
  sim::MachineOptions opt;
  const auto jobs = sim::workload_grid(
      {"synthetic.stream?size=24&iters=2",
       "synthetic.ilp?size=6&chains=2&depth=3&iters=2&width=2",
       "micro.ones?size=8&iters=2"},
      opt);
  using sim::WorkloadFamily;
  const auto r1 = sim::run_sweep<WorkloadFamily>(jobs, on_threads(1));
  const auto r4 = sim::run_sweep<WorkloadFamily>(jobs, on_threads(4));
  const std::string j1 =
      sim::sweep_json<WorkloadFamily>("determinism", jobs, r1);
  const std::string j4 =
      sim::sweep_json<WorkloadFamily>("determinism", jobs, r4);
  EXPECT_EQ(j1, j4);
  // Header names the distinct generators of the sweep.
  EXPECT_NE(
      j1.find("\"workload\": \"synthetic.stream,synthetic.ilp,micro.ones\""),
      std::string::npos);
  for (const sim::WorkloadPoint& p : r1.points) {
    EXPECT_TRUE(p.results_ok) << p.spec;
    EXPECT_GT(p.baseline_cycles, 0u);
    EXPECT_GT(p.sempe_cycles, 0u);
    EXPECT_GT(p.cte_cycles, 0u);
  }
}

TEST(BatchRunner, IdealStandaloneIsWidthPlusOneTimesSingleRun) {
  // Fig. 10b's ideals are legacy-only workload jobs: ideal-combined is the
  // legacy run of the all-secrets-true build, and ideal-standalone is
  // (W+1) x t1, where t1 is the legacy run of the width-0 build. Each
  // job's baseline must be exactly an independent run of that build under
  // the job's machine knobs, no other mode may run, and the standalone
  // ideal the reports print must be (W+1) x that independent t1.
  sim::MachineOptions opt;
  opt.enable_prefetchers = false;  // a non-default knob must reach the run
  const std::vector<sim::WorkloadJob> jobs = {
      {"ones/W=3", "micro.ones?width=3&iters=4&secrets=0", opt},
      {"ones/W=3/ideal-combined", "micro.ones?width=3&iters=4&secrets=1", opt,
       /*legacy_only=*/true},
      {"ones/ideal-standalone", "micro.ones?width=0&iters=4", opt,
       /*legacy_only=*/true},
  };
  const auto run = sim::run_sweep<Family>(jobs, on_threads(2));
  const auto& full = run.points[0];
  ASSERT_TRUE(full.results_ok) << full.mismatch_summary();
  for (usize k = 1; k < jobs.size(); ++k) {
    const sim::WorkloadPoint& pt = run.points[k];
    const workloads::BuiltWorkload built =
        workloads::WorkloadRegistry::instance().build(
            jobs[k].spec, workloads::Variant::kSecure);
    sim::RunConfig rc;
    rc.core.mode = cpu::ExecMode::kLegacy;
    rc.record_observations = false;
    rc.pipe.memory.enable_prefetchers = false;
    const Cycle t = sim::run(built.program, rc).cycles();
    EXPECT_GT(t, 0u);
    EXPECT_EQ(pt.baseline_cycles, t) << jobs[k].label;
    EXPECT_TRUE(pt.results_ok) << pt.mismatch_summary();
    ASSERT_EQ(pt.checks.size(), 1u) << jobs[k].label;
    EXPECT_EQ(pt.checks[0].mode, "legacy");
    EXPECT_EQ(pt.sempe_cycles, 0u);
    EXPECT_EQ(pt.cte_cycles, 0u);
    if (k == 2) {
      EXPECT_EQ(sim::WorkloadPoint::ideal_standalone_cycles(pt, 3), 4 * t);
    }
  }
  // Every path executes once in the combined run, so it costs more than
  // the all-false baseline; the width-0 run has one path and no nest, so
  // it costs less.
  EXPECT_GT(run.points[1].baseline_cycles, full.baseline_cycles);
  EXPECT_LT(run.points[2].baseline_cycles, full.baseline_cycles);
}

}  // namespace
}  // namespace sempe
