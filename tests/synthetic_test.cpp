// The synthetic kernel family: per-kernel functional determinism (same
// seed => same checksum), legacy-vs-SeMPE architectural-state equivalence,
// and CTE correctness/constant-instruction-count, for every kernel.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "workloads/registry.h"
#include "workloads/synthetic.h"

namespace sempe::workloads {
namespace {

WorkloadRegistry& reg() { return WorkloadRegistry::instance(); }

/// Test-sized parameterization of one kernel (kernel knobs left at their
/// defaults except where smaller values keep runs fast).
std::string small_spec(const std::string& name, const std::string& extra) {
  const std::map<std::string, std::string> knobs = {
      {"synthetic.ptr_chase", "?size=16&steps=32"},
      {"synthetic.stream", "?size=32"},
      {"synthetic.cond_branch", "?size=48"},
      {"synthetic.ibr", "?size=32&targets=4"},
      {"synthetic.ilp", "?size=8&chains=2&depth=4"},
      {"synthetic.secret_mix", "?size=32"},
  };
  return name + knobs.at(name) + "&iters=2" + extra;
}

std::vector<std::string> row_names() {
  std::vector<std::string> out;
  for (const HarnessedRow& row : synthetic_rows()) out.push_back(row.name);
  return out;
}

sim::FunctionalResult run_wl(const BuiltWorkload& b, cpu::ExecMode mode) {
  return sim::run_functional(b.program, mode, {}, b.results_addr,
                             b.num_results);
}

class SyntheticAllKinds : public ::testing::TestWithParam<std::string> {};

TEST_P(SyntheticAllKinds, SameSeedSameChecksumAndProgram) {
  const std::string spec = small_spec(GetParam(), "&seed=7");
  const BuiltWorkload a = reg().build(spec, Variant::kSecure);
  const BuiltWorkload b = reg().build(spec, Variant::kSecure);
  EXPECT_EQ(a.program.code(), b.program.code());
  EXPECT_EQ(a.expected_results, b.expected_results);
  EXPECT_EQ(run_wl(a, cpu::ExecMode::kLegacy).probed,
            run_wl(b, cpu::ExecMode::kLegacy).probed);
}

TEST_P(SyntheticAllKinds, DifferentSeedDifferentChecksum) {
  // ptr_chase caveat: summing the visited offsets over a whole number of
  // cycle laps is permutation- (hence seed-) invariant, so take the kernel
  // off the lap boundary (steps not a multiple of size) for this check.
  const std::string base =
      GetParam() == "synthetic.ptr_chase"
          ? std::string("synthetic.ptr_chase?size=16&steps=37&iters=2")
          : small_spec(GetParam(), "");
  const BuiltWorkload a = reg().build(base + "&seed=7", Variant::kSecure);
  const BuiltWorkload b = reg().build(base + "&seed=8", Variant::kSecure);
  EXPECT_NE(a.expected_results, b.expected_results) << GetParam();
}

TEST_P(SyntheticAllKinds, LegacyAndSempeAgreeOnArchitecturalResults) {
  for (const char* secrets : {"&secrets=11", "&secrets=01", "&secrets=00"}) {
    const BuiltWorkload b = reg().build(
        small_spec(GetParam(), std::string("&width=2") + secrets),
        Variant::kSecure);
    const auto legacy = run_wl(b, cpu::ExecMode::kLegacy);
    const auto sempe = run_wl(b, cpu::ExecMode::kSempe);
    EXPECT_EQ(legacy.probed, b.expected_results)
        << GetParam() << " legacy " << secrets;
    EXPECT_EQ(sempe.probed, b.expected_results)
        << GetParam() << " sempe " << secrets;
  }
}

TEST_P(SyntheticAllKinds, CteVariantCorrectAcrossSecrets) {
  for (const char* secrets : {"&secrets=11", "&secrets=10", "&secrets=00"}) {
    const BuiltWorkload b = reg().build(
        small_spec(GetParam(), std::string("&width=2") + secrets),
        Variant::kCte);
    const auto r = run_wl(b, cpu::ExecMode::kLegacy);
    EXPECT_EQ(r.probed, b.expected_results)
        << GetParam() << " cte " << secrets;
  }
}

TEST_P(SyntheticAllKinds, CteInstructionCountSecretIndependent) {
  u64 counts[2];
  int i = 0;
  for (const char* secrets : {"&secrets=0", "&secrets=1"}) {
    const BuiltWorkload b = reg().build(
        small_spec(GetParam(), std::string("&width=2") + secrets),
        Variant::kCte);
    counts[i++] =
        sim::run_functional(b.program, cpu::ExecMode::kLegacy).instructions;
  }
  EXPECT_EQ(counts[0], counts[1]) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SyntheticAllKinds, ::testing::ValuesIn(row_names()),
    [](const auto& info) {
      return info.param.substr(std::string("synthetic.").size());
    });

TEST(Synthetic, CondBranchTakenRatioExtremesAreCorrect) {
  for (const char* taken : {"0", "1000", "250"}) {
    const BuiltWorkload b =
        reg().build(std::string("synthetic.cond_branch?size=64&taken=") +
                        taken + "&iters=2",
                    Variant::kSecure);
    EXPECT_EQ(run_wl(b, cpu::ExecMode::kSempe).probed, b.expected_results)
        << "taken=" << taken;
  }
}

TEST(Synthetic, IbrTargetPoolSizesRunCorrectly) {
  for (const char* targets : {"2", "16", "64"}) {
    const BuiltWorkload b =
        reg().build(std::string("synthetic.ibr?size=48&targets=") + targets +
                        "&iters=2",
                    Variant::kSecure);
    EXPECT_EQ(run_wl(b, cpu::ExecMode::kSempe).probed, b.expected_results)
        << "targets=" << targets;
  }
}

TEST(Synthetic, OutOfRangeParametersThrow) {
  EXPECT_THROW(reg().build("synthetic.ptr_chase?stride=60", Variant::kSecure),
               SimError);
  EXPECT_THROW(reg().build("synthetic.cond_branch?taken=1001",
                           Variant::kSecure),
               SimError);
  EXPECT_THROW(reg().build("synthetic.ibr?targets=65", Variant::kSecure),
               SimError);
  EXPECT_THROW(reg().build("synthetic.ilp?chains=9", Variant::kSecure),
               SimError);
  EXPECT_THROW(reg().build("synthetic.stream?size=1", Variant::kSecure),
               SimError);
}

}  // namespace
}  // namespace sempe::workloads
