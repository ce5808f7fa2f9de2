// The real-scenario workload pack: per-kernel functional determinism,
// legacy-vs-SeMPE architectural equivalence, CTE correctness and
// constant-instruction-count, parameter range checks, and the
// scenario-level security claims — each scenario's legacy mode leaks
// through the channel the catalog documents, while SeMPE and CTE are
// indistinguishable on every channel.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "security/audit.h"
#include "sim/simulator.h"
#include "workloads/registry.h"
#include "workloads/scenarios.h"

namespace sempe::workloads {
namespace {

WorkloadRegistry& reg() { return WorkloadRegistry::instance(); }

/// Test-sized parameterization of one scenario kernel.
std::string small_spec(const std::string& name, const std::string& extra) {
  const std::map<std::string, std::string> knobs = {
      {"crypto.aes", "?size=4&rounds=1"},
      {"crypto.modexp", "?size=4&bits=8"},
      {"ds.hash_probe", "?size=8&slots=32"},
  };
  return name + knobs.at(name) + "&iters=2" + extra;
}

std::vector<std::string> row_names() {
  std::vector<std::string> out;
  for (const HarnessedRow& row : scenario_rows()) out.push_back(row.name);
  return out;
}

sim::FunctionalResult run_wl(const BuiltWorkload& b, cpu::ExecMode mode) {
  return sim::run_functional(b.program, mode, {}, b.results_addr,
                             b.num_results);
}

class ScenarioAllKinds : public ::testing::TestWithParam<std::string> {};

TEST_P(ScenarioAllKinds, SameSeedSameChecksumAndProgram) {
  const std::string spec = small_spec(GetParam(), "&seed=7");
  const BuiltWorkload a = reg().build(spec, Variant::kSecure);
  const BuiltWorkload b = reg().build(spec, Variant::kSecure);
  EXPECT_EQ(a.program.code(), b.program.code());
  EXPECT_EQ(a.expected_results, b.expected_results);
  EXPECT_EQ(run_wl(a, cpu::ExecMode::kLegacy).probed,
            run_wl(b, cpu::ExecMode::kLegacy).probed);
}

TEST_P(ScenarioAllKinds, DifferentSeedDifferentChecksum) {
  const std::string base = small_spec(GetParam(), "");
  const BuiltWorkload a = reg().build(base + "&seed=7", Variant::kSecure);
  const BuiltWorkload b = reg().build(base + "&seed=8", Variant::kSecure);
  EXPECT_NE(a.expected_results, b.expected_results)
      << GetParam();
}

TEST_P(ScenarioAllKinds, LegacyAndSempeAgreeOnArchitecturalResults) {
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

TEST_P(ScenarioAllKinds, CteVariantCorrectAcrossSecrets) {
  for (const char* secrets : {"&secrets=11", "&secrets=10", "&secrets=00"}) {
    const BuiltWorkload b = reg().build(
        small_spec(GetParam(), std::string("&width=2") + secrets),
        Variant::kCte);
    const auto r = run_wl(b, cpu::ExecMode::kLegacy);
    EXPECT_EQ(r.probed, b.expected_results)
        << GetParam() << " cte " << secrets;
  }
}

TEST_P(ScenarioAllKinds, CteInstructionCountSecretIndependent) {
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
    Kinds, ScenarioAllKinds,
    ::testing::ValuesIn(row_names()),
    [](const auto& info) {
      std::string n = info.param;
      for (char& c : n)
        if (c == '.') c = '_';
      return n;
    });

TEST(Scenarios, ModexpBitWidthsRunCorrectly) {
  for (const char* bits : {"1", "13", "31"}) {
    const BuiltWorkload b = reg().build(
        std::string("crypto.modexp?size=4&bits=") + bits + "&iters=2",
        Variant::kSecure);
    EXPECT_EQ(run_wl(b, cpu::ExecMode::kSempe).probed, b.expected_results)
        << "bits=" << bits;
  }
}

TEST(Scenarios, HashProbeOccupancyExtremesAreCorrect) {
  // fill=0: every probe misses on its first slot; fill=900: long chains.
  for (const char* fill : {"0", "500", "900"}) {
    const BuiltWorkload b = reg().build(
        std::string("ds.hash_probe?slots=16&size=8&fill=") + fill +
            "&iters=2",
        Variant::kSecure);
    EXPECT_EQ(run_wl(b, cpu::ExecMode::kSempe).probed, b.expected_results)
        << "fill=" << fill;
    const BuiltWorkload c = reg().build(
        std::string("ds.hash_probe?slots=16&size=8&fill=") + fill +
            "&iters=2",
        Variant::kCte);
    EXPECT_EQ(run_wl(c, cpu::ExecMode::kLegacy).probed, c.expected_results)
        << "cte fill=" << fill;
  }
}

TEST(Scenarios, OutOfRangeParametersThrow) {
  EXPECT_THROW(reg().build("crypto.aes?rounds=17", Variant::kSecure),
               SimError);
  EXPECT_THROW(reg().build("crypto.aes?size=4097", Variant::kSecure),
               SimError);
  EXPECT_THROW(reg().build("crypto.modexp?bits=64", Variant::kSecure),
               SimError);
  EXPECT_THROW(reg().build("ds.hash_probe?slots=48", Variant::kSecure),
               SimError);  // not a power of two
  EXPECT_THROW(reg().build("ds.hash_probe?slots=4", Variant::kSecure),
               SimError);
  EXPECT_THROW(reg().build("ds.hash_probe?fill=901", Variant::kSecure),
               SimError);
  EXPECT_THROW(reg().build("crypto.aes?stride=64", Variant::kSecure),
               SimError);  // unknown key
}

TEST(Scenarios, SweepSpecsCoverEveryFamilyAndParse) {
  const auto specs = row_sweep_specs(scenario_rows(), 3);
  EXPECT_EQ(specs.size(), scenario_rows().size() * 2 * 2);
  for (const std::string& s : specs) {
    const WorkloadSpec parsed = WorkloadSpec::parse(s);
    EXPECT_NE(reg().find(parsed.name), nullptr) << s;
    EXPECT_EQ(parsed.get_u64("iters", 0), 3u) << s;
  }
}

// ---------------------------------------------------------------------------
// The scenario-level security claims (the catalog's "leaks through"
// column). Legacy must be distinguishable through the documented channel
// — the audit re-derives the attack the scenario models — while SeMPE and
// CTE verdicts are indistinguishable on every channel.

TEST(ScenarioAudit, LegacyLeaksThroughTheDocumentedChannel) {
  struct Claim {
    const char* spec;
    security::Channel channel;
  };
  const Claim claims[] = {
      // aes: the skipped round pass's T-table lines (cache/memory channel).
      {"crypto.aes?width=2&iters=1&size=4&rounds=1",
       security::Channel::kMemory},
      // modexp: the skipped multiply's instructions (fetch channel).
      {"crypto.modexp?width=2&iters=1&size=4&bits=8",
       security::Channel::kFetch},
      // hash_probe: the skipped probe chains' table lines (memory channel).
      {"ds.hash_probe?width=2&iters=1&size=8&slots=32",
       security::Channel::kMemory},
  };
  security::AuditOptions opt;
  opt.samples = 4;  // exhaustive at width=2
  for (const Claim& claim : claims) {
    const security::WorkloadAudit a =
        security::audit_workload(claim.spec, opt);
    EXPECT_TRUE(a.sempe_closed()) << claim.spec << "\n" << a.to_string();

    const security::ModeAudit* legacy = a.mode("legacy");
    ASSERT_NE(legacy, nullptr) << claim.spec;
    EXPECT_TRUE(legacy->results_ok) << legacy->mismatch;
    bool claimed_open = false;
    for (const security::ChannelVerdict& v : legacy->channels)
      if (v.channel == claim.channel) claimed_open = !v.closed();
    EXPECT_TRUE(claimed_open)
        << claim.spec << ": legacy did not leak through "
        << security::channel_name(claim.channel) << "\n"
        << a.to_string();
    // Timing leaks too (the skipped pass is real work).
    EXPECT_GT(legacy->leaked_bits(), 0.0) << claim.spec;

    const security::ModeAudit* cte = a.mode("cte");
    ASSERT_NE(cte, nullptr) << claim.spec;
    EXPECT_TRUE(cte->indistinguishable())
        << claim.spec << ": " << cte->first_divergence();
    EXPECT_TRUE(cte->results_ok) << cte->mismatch;
  }
}

}  // namespace
}  // namespace sempe::workloads
