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

/// micro.<kind> at nesting depth `w` with the spec parameters `params`
/// (by default all secrets false, the Fig. 10 convention), result-checked;
/// `legacy_only` runs the baseline alone, as the ideal jobs do.
WorkloadPoint micro(Kind kd, usize w,
                    const std::string& params = "iters=3&secrets=0",
                    bool legacy_only = false) {
  const WorkloadPoint pt = measure_workload(
      std::string("micro.") + workloads::kind_name(kd) +
          "?width=" + std::to_string(w) + "&" + params,
      {}, legacy_only);
  EXPECT_TRUE(pt.results_ok) << pt.spec << ": " << pt.mismatch_summary();
  return pt;
}

TEST(Experiment, SempeSlowdownTracksPathCount) {
  // Fig. 10a's core shape: SeMPE slowdown ~ W+1.
  for (usize w : {usize{1}, usize{3}}) {
    const auto pt = micro(Kind::kFibonacci, w, "iters=4&size=60&secrets=0");
    const double s = pt.sempe_slowdown();
    EXPECT_GT(s, 0.6 * static_cast<double>(w + 1)) << "W=" << w;
    EXPECT_LT(s, 2.0 * static_cast<double>(w + 1)) << "W=" << w;
  }
}

TEST(Experiment, CteSlowerThanSempe) {
  // Fig. 10a: CTE (dashed) above SeMPE (solid) for every workload.
  for (Kind kd : {Kind::kOnes, Kind::kQuicksort, Kind::kQueens}) {
    const auto pt = micro(kd, 2);
    EXPECT_GT(pt.cte_cycles, pt.sempe_cycles) << workloads::kind_name(kd);
  }
}

TEST(Experiment, QueensIsCtesWorstCase) {
  const auto cte_vs_sempe = [](const WorkloadPoint& pt) {
    return WorkloadPoint::ratio(pt.cte_cycles, pt.sempe_cycles);
  };
  EXPECT_GT(cte_vs_sempe(micro(Kind::kQueens, 1)),
            cte_vs_sempe(micro(Kind::kFibonacci, 1)));
}

TEST(Experiment, SempeNearIdeal) {
  // Fig. 10b: SeMPE over the combined ideal (the legacy-only run with
  // every secret true) stays close to 1.
  const auto pt = micro(Kind::kFibonacci, 3, "iters=4&size=60&secrets=0");
  const auto ideal =
      micro(Kind::kFibonacci, 3, "iters=4&size=60&secrets=1", true);
  const double r = WorkloadPoint::ratio(pt.sempe_cycles, ideal.baseline_cycles);
  EXPECT_GT(r, 0.9);
  EXPECT_LT(r, 1.8);
}

TEST(Experiment, BaselineCheaperThanEverything) {
  const auto pt = micro(Kind::kOnes, 2);
  EXPECT_LT(pt.baseline_cycles, pt.sempe_cycles);
  EXPECT_LT(pt.baseline_cycles, pt.cte_cycles);
  EXPECT_LT(pt.baseline_cycles,
            micro(Kind::kOnes, 2, "iters=3&secrets=1", true).baseline_cycles);
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
