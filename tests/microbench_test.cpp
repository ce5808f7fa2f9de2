// The Fig. 7 microbenchmark (the registry's micro.* specs): correctness in
// both modes, for both variants, across secrets; plus the structural
// properties the evaluation relies on (instruction scaling with W, jbTable
// depth == W, etc.).
#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "workloads/registry.h"

namespace sempe::workloads {
namespace {

/// Build micro.<kind> at nesting depth `w` with the secrets string
/// `secrets` (one digit per level, or one digit for all), small enough
/// that every case runs in milliseconds.
BuiltWorkload build_mb(Kind kd, usize w, const std::string& secrets,
                       Variant variant = Variant::kSecure) {
  const usize size = kd == Kind::kFibonacci   ? 20
                     : kd == Kind::kOnes      ? 16
                     : kd == Kind::kQuicksort ? 12
                                              : 4;
  return WorkloadRegistry::instance().build(
      std::string("micro.") + kind_name(kd) + "?size=" + std::to_string(size) +
          "&width=" + std::to_string(w) + "&iters=2&secrets=" + secrets,
      variant);
}

sim::FunctionalResult run_mb(const BuiltWorkload& b, cpu::ExecMode mode) {
  return sim::run_functional(b.program, mode, {}, b.results_addr,
                             b.num_results);
}

class MicrobenchAllKinds : public ::testing::TestWithParam<Kind> {};

TEST_P(MicrobenchAllKinds, SecureVariantCorrectInBothModes) {
  for (usize w : {usize{0}, usize{1}, usize{3}}) {
    // All true: every level's result visible.
    const BuiltWorkload b = build_mb(GetParam(), w, "1");
    const auto legacy = run_mb(b, cpu::ExecMode::kLegacy);
    const auto sempe = run_mb(b, cpu::ExecMode::kSempe);
    EXPECT_EQ(legacy.probed, b.expected_results) << "legacy W=" << w;
    EXPECT_EQ(sempe.probed, b.expected_results) << "sempe W=" << w;
  }
}

TEST_P(MicrobenchAllKinds, SecureVariantCorrectWithMixedSecrets) {
  // Level 2 false cuts off levels 2..4.
  const BuiltWorkload b = build_mb(GetParam(), 4, "1011");
  const auto legacy = run_mb(b, cpu::ExecMode::kLegacy);
  const auto sempe = run_mb(b, cpu::ExecMode::kSempe);
  EXPECT_EQ(legacy.probed, b.expected_results);
  EXPECT_EQ(sempe.probed, b.expected_results);
  // Expected: level1 visible, levels 2-4 zero, level5 visible.
  ASSERT_EQ(b.expected_results.size(), 5u);
  EXPECT_NE(b.expected_results[0], 0u);
  EXPECT_EQ(b.expected_results[1], 0u);
  EXPECT_EQ(b.expected_results[2], 0u);
  EXPECT_EQ(b.expected_results[3], 0u);
  EXPECT_NE(b.expected_results[4], 0u);
}

TEST_P(MicrobenchAllKinds, CteVariantCorrectAcrossSecrets) {
  for (const char* secrets : {"000", "111", "101"}) {
    const BuiltWorkload b = build_mb(GetParam(), 3, secrets, Variant::kCte);
    const auto r = run_mb(b, cpu::ExecMode::kLegacy);
    EXPECT_EQ(r.probed, b.expected_results) << secrets;
  }
}

TEST_P(MicrobenchAllKinds, CteInstructionCountSecretIndependent) {
  u64 counts[2];
  int i = 0;
  for (const char* s : {"0", "1"}) {
    const BuiltWorkload b = build_mb(GetParam(), 2, s, Variant::kCte);
    counts[i++] = sim::run_functional(b.program, cpu::ExecMode::kLegacy)
                      .instructions;
  }
  EXPECT_EQ(counts[0], counts[1]);
}

TEST_P(MicrobenchAllKinds, SempeInstructionCountSecretIndependent) {
  u64 counts[2];
  int i = 0;
  for (const char* s : {"0", "1"}) {
    const BuiltWorkload b = build_mb(GetParam(), 2, s);
    counts[i++] =
        sim::run_functional(b.program, cpu::ExecMode::kSempe).instructions;
  }
  EXPECT_EQ(counts[0], counts[1]);
}

INSTANTIATE_TEST_SUITE_P(Kinds, MicrobenchAllKinds,
                         ::testing::Values(Kind::kFibonacci, Kind::kOnes,
                                           Kind::kQuicksort, Kind::kQueens),
                         [](const auto& info) {
                           return std::string(kind_name(info.param));
                         });

TEST(Microbench, JbTableDepthEqualsNestingWidth) {
  const BuiltWorkload b = build_mb(Kind::kFibonacci, 7, "0");
  const auto r = sim::run_functional(b.program, cpu::ExecMode::kSempe);
  EXPECT_EQ(r.jb_high_water, 7u);
}

TEST(Microbench, SempeExecutesAllLevelsRegardlessOfSecrets) {
  // With all secrets false, legacy skips all W workloads; SeMPE runs them.
  const BuiltWorkload b = build_mb(Kind::kOnes, 4, "0");
  const auto legacy = sim::run_functional(b.program, cpu::ExecMode::kLegacy);
  const auto sempe = sim::run_functional(b.program, cpu::ExecMode::kSempe);
  // SeMPE executes ~ (W+1)x the workload instructions of legacy.
  EXPECT_GT(sempe.instructions, 3 * legacy.instructions);
}

TEST(Microbench, InstructionsScaleLinearlyWithWidthUnderSempe) {
  u64 prev = 0;
  for (usize w : {usize{1}, usize{2}, usize{4}}) {
    const BuiltWorkload b = build_mb(Kind::kFibonacci, w, "0");
    const u64 n =
        sim::run_functional(b.program, cpu::ExecMode::kSempe).instructions;
    EXPECT_GT(n, prev);
    prev = n;
  }
}

TEST(Microbench, WidthZeroHasNoSecureBranches) {
  const BuiltWorkload b = build_mb(Kind::kQuicksort, 0, "0");
  const auto r = run_mb(b, cpu::ExecMode::kSempe);
  EXPECT_EQ(r.jb_high_water, 0u);
  EXPECT_EQ(r.probed.size(), 1u);
  EXPECT_EQ(r.probed, b.expected_results);
}

TEST(Microbench, RejectsExcessiveWidth) {
  EXPECT_THROW(build_mb(Kind::kFibonacci, 31, "0"), SimError);
}

TEST(Microbench, SameBinaryBothModes) {
  // Backward compatibility: identical encoded words run in both modes.
  const BuiltWorkload b = build_mb(Kind::kQueens, 2, "11");
  const auto legacy = run_mb(b, cpu::ExecMode::kLegacy);
  const auto sempe = run_mb(b, cpu::ExecMode::kSempe);
  EXPECT_EQ(legacy.probed, sempe.probed);
}

}  // namespace
}  // namespace sempe::workloads
