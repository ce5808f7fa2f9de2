// End-to-end properties across the whole stack: the experiment drivers
// produce the shapes the paper reports (in miniature), and the Table II
// machine description is consistent.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "sim/experiment.h"
#include "sim/machine_config.h"
#include "util/check.h"

namespace sempe::sim {
namespace {

using workloads::Kind;

MicrobenchOptions fast_opts() {
  MicrobenchOptions o;
  o.iterations = 3;
  o.size = 0;  // per-kind defaults (note: size is N for queens — keep small)
  return o;
}

TEST(Experiment, SempeSlowdownTracksPathCount) {
  // Fig. 10a's core shape: SeMPE slowdown ~ W+1.
  MicrobenchOptions o;
  o.iterations = 4;
  o.size = 60;
  for (usize w : {usize{1}, usize{3}}) {
    const auto pt = measure_microbench(Kind::kFibonacci, w, o);
    const double s = pt.sempe_slowdown();
    EXPECT_GT(s, 0.6 * static_cast<double>(w + 1)) << "W=" << w;
    EXPECT_LT(s, 2.0 * static_cast<double>(w + 1)) << "W=" << w;
  }
}

TEST(Experiment, CteSlowerThanSempe) {
  // Fig. 10a: CTE (dashed) above SeMPE (solid) for every workload.
  for (Kind kd : {Kind::kOnes, Kind::kQuicksort, Kind::kQueens}) {
    const auto pt = measure_microbench(kd, 2, fast_opts());
    EXPECT_GT(pt.cte_cycles, pt.sempe_cycles) << workloads::kind_name(kd);
  }
}

TEST(Experiment, QueensIsCtesWorstCase) {
  const auto fib = measure_microbench(Kind::kFibonacci, 1, fast_opts());
  const auto queens = measure_microbench(Kind::kQueens, 1, fast_opts());
  EXPECT_GT(queens.cte_vs_sempe(), fib.cte_vs_sempe());
}

TEST(Experiment, SempeNearIdeal) {
  // Fig. 10b: SeMPE over the combined ideal stays close to 1.
  MicrobenchOptions o;
  o.iterations = 4;
  o.size = 60;
  const auto pt = measure_microbench(Kind::kFibonacci, 3, o);
  EXPECT_GT(pt.sempe_vs_ideal_combined(), 0.9);
  EXPECT_LT(pt.sempe_vs_ideal_combined(), 1.8);
}

TEST(Experiment, BaselineCheaperThanEverything) {
  const auto pt = measure_microbench(Kind::kOnes, 2, fast_opts());
  EXPECT_LT(pt.baseline_cycles, pt.sempe_cycles);
  EXPECT_LT(pt.baseline_cycles, pt.cte_cycles);
  EXPECT_LT(pt.baseline_cycles, pt.ideal_combined_cycles);
}

/// Fig. 8's SeMPE overhead for one (format, pixels) cell, measured through
/// the registry with its decoded checksum checked in both modes.
double djpeg_overhead(const std::string& format, usize pixels) {
  const WorkloadPoint pt = measure_workload(
      "djpeg?format=" + format + "&pixels=" + std::to_string(pixels) +
      "&scale=8");
  EXPECT_TRUE(pt.results_ok) << pt.spec << ": " << pt.mismatch_summary();
  return pt.sempe_slowdown() - 1.0;
}

TEST(Experiment, DjpegOverheadOrderingMatchesFigure8) {
  // PPM has the largest secure-region share -> largest overhead.
  const usize px = 32 * 1024;
  const double ppm = djpeg_overhead("ppm", px);
  const double gif = djpeg_overhead("gif", px);
  const double bmp = djpeg_overhead("bmp", px);
  EXPECT_GT(ppm, gif);
  EXPECT_GT(gif, bmp);
  EXPECT_LT(ppm, 1.5);
  EXPECT_GT(bmp, 0.05);
}

TEST(Experiment, DjpegOverheadStableAcrossImageSizes) {
  EXPECT_NEAR(djpeg_overhead("gif", 16 * 1024),
              djpeg_overhead("gif", 64 * 1024), 0.10);
}

TEST(MachineConfig, DescribesTable2) {
  const auto cfg = table2_machine();
  const std::string d = describe(cfg);
  EXPECT_NE(d.find("8 instructions / cycle"), std::string::npos);
  EXPECT_NE(d.find("192 uops"), std::string::npos);
  EXPECT_NE(d.find("256 INT, 256 FP"), std::string::npos);
  EXPECT_NE(d.find("32KB"), std::string::npos);
  EXPECT_NE(d.find("64 Bytes/cycle"), std::string::npos);
}

TEST(MachineConfig, Table2Values) {
  const auto cfg = table2_machine();
  EXPECT_EQ(cfg.fetch_width, 8u);
  EXPECT_EQ(cfg.retire_width, 12u);
  EXPECT_EQ(cfg.rob_entries, 192u);
  EXPECT_EQ(cfg.iq_int_entries, 60u);
  EXPECT_EQ(cfg.load_queue, 32u);
  EXPECT_EQ(cfg.memory.il1.size_bytes, 16u * 1024);
  EXPECT_EQ(cfg.memory.dl1.size_bytes, 32u * 1024);
  EXPECT_EQ(cfg.memory.l2.size_bytes, 256u * 1024);
  EXPECT_EQ(cfg.spm_bytes_per_cycle, 64u);
}

TEST(EnvKnobs, ParseAndFallback) {
  EXPECT_EQ(env_usize("SEMPE_SURELY_UNSET_VAR", 17), 17u);
  constexpr const char* kVar = "SEMPE_ENV_KNOB_TEST";
  const auto with = [&](const char* value, usize min) {
    ::setenv(kVar, value, 1);
    return env_usize(kVar, 17, min);
  };
  EXPECT_EQ(with("", 1), 17u);  // set but empty = unset
  EXPECT_EQ(with("2", 1), 2u);
  EXPECT_EQ(with("0", 0), 0u);  // 0 where 0 means off
  EXPECT_EQ(with("18446744073709551615", 0), 18446744073709551615u);
  // Anything else is an error naming the variable and the value, never a
  // silent fallback to the default run.
  for (const char* bad : {"2x", "abc", "-3", "+3", " 3", "3 ", "0x10",
                          "18446744073709551616", "99999999999999999999"}) {
    try {
      with(bad, 0);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const SimError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(kVar), std::string::npos) << msg;
      EXPECT_NE(msg.find(std::string("'") + bad + "'"), std::string::npos)
          << msg;
    }
  }
  EXPECT_THROW(with("0", 1), SimError);  // iterations, scale, samples
  ::unsetenv(kVar);
}

}  // namespace
}  // namespace sempe::sim
