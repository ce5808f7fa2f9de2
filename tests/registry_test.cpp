// The workload registry: spec grammar, name resolution, and the
// resolve/round-trip property of every registered generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sim/simulator.h"
#include "workloads/registry.h"
#include "workloads/scenarios.h"
#include "workloads/synthetic.h"

namespace sempe::workloads {
namespace {

WorkloadRegistry& reg() { return WorkloadRegistry::instance(); }

TEST(WorkloadSpec, ParsesNameOnly) {
  const WorkloadSpec s = WorkloadSpec::parse("djpeg");
  EXPECT_EQ(s.name, "djpeg");
  EXPECT_TRUE(s.params.empty());
  EXPECT_EQ(s.to_string(), "djpeg");
}

TEST(WorkloadSpec, ParsesParamsInOrder) {
  const WorkloadSpec s =
      WorkloadSpec::parse("synthetic.ptr_chase?size=4096&stride=64");
  EXPECT_EQ(s.name, "synthetic.ptr_chase");
  ASSERT_EQ(s.params.size(), 2u);
  EXPECT_EQ(s.params[0].first, "size");
  EXPECT_EQ(s.params[0].second, "4096");
  EXPECT_EQ(s.get_u64("stride", 0), 64u);
  EXPECT_EQ(s.to_string(), "synthetic.ptr_chase?size=4096&stride=64");
}

TEST(WorkloadSpec, RejectsBadGrammar) {
  EXPECT_THROW(WorkloadSpec::parse(""), SimError);
  EXPECT_THROW(WorkloadSpec::parse("?size=1"), SimError);
  EXPECT_THROW(WorkloadSpec::parse("name?"), SimError);
  EXPECT_THROW(WorkloadSpec::parse("name?size"), SimError);
  EXPECT_THROW(WorkloadSpec::parse("name?=1"), SimError);
  EXPECT_THROW(WorkloadSpec::parse("name?size=1&size=2"), SimError);
}

TEST(WorkloadSpec, RejectsNonNumericValueOnNumericGet) {
  const WorkloadSpec s = WorkloadSpec::parse("x?size=abc");
  EXPECT_THROW(s.get_u64("size", 0), SimError);
  EXPECT_EQ(s.get_u64("absent", 7), 7u);
  // Negative values must not wrap through strtoull to huge u64s.
  EXPECT_THROW(WorkloadSpec::parse("x?n=-1").get_u64("n", 0), SimError);
  EXPECT_THROW(WorkloadSpec::parse("x?n=+1").get_u64("n", 0), SimError);
  EXPECT_THROW(WorkloadSpec::parse("x?n=99999999999999999999").get_u64("n", 0),
               SimError);
}

TEST(WorkloadRegistry, OutOfRangeItersRejectedWithSpecMessage) {
  EXPECT_THROW(reg().build("micro.ones?iters=-1", Variant::kSecure), SimError);
  EXPECT_THROW(reg().build("micro.ones?iters=0", Variant::kSecure), SimError);
  EXPECT_THROW(reg().build("micro.ones?iters=4294967296", Variant::kSecure),
               SimError);
}

TEST(WorkloadRegistry, HugeWidthRejectedBeforeSecretsAllocation) {
  // Must be a clean SimError, not std::bad_alloc from a ~2^50-element
  // secrets vector.
  EXPECT_THROW(
      reg().build("micro.ones?width=999999999999999", Variant::kSecure),
      SimError);
  EXPECT_THROW(reg().build("micro.ones?width=31", Variant::kSecure), SimError);
}

TEST(WorkloadRegistry, ExplicitZeroSizeResolvesToDefaultNotInfiniteLoop) {
  // size=0 must mean "use the default" (and the canonical spec must echo
  // the resolved value), never reach the emitters as a literal 0 trip
  // count — that would underflow the countdown loops into ~2^64 laps.
  const BuiltWorkload m =
      reg().build("micro.ones?size=0&iters=2", Variant::kSecure);
  EXPECT_NE(m.spec.find("size=256"), std::string::npos) << m.spec;
  const BuiltWorkload s =
      reg().build("synthetic.ptr_chase?size=0&steps=0&iters=2",
                  Variant::kSecure);
  EXPECT_NE(s.spec.find("size=256"), std::string::npos) << s.spec;
  EXPECT_NE(s.spec.find("steps=513"), std::string::npos) << s.spec;
  EXPECT_THROW(reg().build("micro.ones?size=1048577", Variant::kSecure),
               SimError);
}

TEST(WorkloadRegistry, TakenRatioNotTruncatedBeforeRangeCheck) {
  // 2^32 + 1000 would wrap to 1000 under a u32 narrowing and silently run
  // as a different workload than the spec records.
  EXPECT_THROW(
      reg().build("synthetic.cond_branch?taken=4294968296", Variant::kSecure),
      SimError);
  EXPECT_THROW(
      reg().build("synthetic.cond_branch?taken=1001", Variant::kSecure),
      SimError);
}

TEST(WorkloadRegistry, PtrChaseFootprintRejectedBeforeAllocation) {
  // size and stride are each in range, but the size x stride input image
  // would be 4 GiB (and 2^27 bytes just past the cap); the spec-level
  // check must fire before anything is allocated.
  for (const char* spec :
       {"synthetic.ptr_chase?size=1048576&stride=4096&iters=1",
        "synthetic.ptr_chase?size=262145&stride=256&iters=1"}) {
    try {
      reg().build(spec, Variant::kSecure);
      ADD_FAILURE() << spec << " should have been rejected";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("workload 'synthetic.ptr_chase'"),
                std::string::npos)
          << e.what();
    }
  }
}

/// The SimError message building `spec` throws ("" when it builds).
std::string build_error(const std::string& spec) {
  try {
    reg().build(spec, Variant::kSecure);
  } catch (const SimError& e) {
    return e.what();
  }
  return "";
}

TEST(WorkloadRegistry, RangeErrorNamesTheWorkloadAndTheKey) {
  EXPECT_EQ(build_error("synthetic.ibr?targets=1"),
            "workload 'synthetic.ibr': targets=1 out of range [2, 64]");
  EXPECT_EQ(build_error("crypto.modexp?bits=64"),
            "workload 'crypto.modexp': bits=64 out of range [1, 63]");
  EXPECT_EQ(build_error("ds.hash_probe?slots=48"),
            "workload 'ds.hash_probe': slots=48 is not a power of two");
  EXPECT_EQ(
      build_error("attack.prime_probe?victim=crypto.modexp&size=99999"),
      "workload 'attack.prime_probe': size=99999 out of range [1, 4096]");
}

TEST(WorkloadRegistry, VariantAndFlatHarnessLimitsNameTheWorkload) {
  // CTE queens supports N in [2, 8] only; the natural build takes [1, 12].
  EXPECT_NO_THROW(reg().build("micro.queens?size=9&iters=1", Variant::kSecure));
  try {
    reg().build("micro.queens?size=9&iters=1", Variant::kCte);
    ADD_FAILURE() << "CTE queens at size=9 should have been rejected";
  } catch (const SimError& e) {
    EXPECT_EQ(std::string(e.what()),
              "workload 'micro.queens': size=9 out of range [2, 8] for the "
              "CTE variant");
  }
  EXPECT_NE(build_error("attack.prime_probe?width=0&iters=1")
                .find("workload 'attack.prime_probe': width=0"),
            std::string::npos);
}

// Every ranged key of every harnessed row, and every victim knob of the
// attacks: max+1 — and min-1 where that is not a zero-means-default value,
// and min+1 where a rule narrows the range — must throw a SimError naming
// both the workload and the key.
TEST(WorkloadRegistry, EveryRangedKeyRejectsOutOfRangeValues) {
  const auto expect_named = [](const std::string& workload,
                               const std::string& key,
                               const std::string& spec) {
    const std::string msg = build_error(spec);
    EXPECT_NE(msg.find("workload '" + workload + "'"), std::string::npos)
        << spec << ": " << msg;
    EXPECT_NE(msg.find(key + "="), std::string::npos) << spec << ": " << msg;
  };
  usize checked = 0;
  for (const auto* rows :
       {&micro_rows(), &synthetic_rows(), &scenario_rows()}) {
    for (const HarnessedRow& row : *rows) {
      for (const KernelKey& key : row.keys) {
        std::vector<u64> bad = {key.max + 1};
        if (key.min > 0 && !key.zero_is_default) bad.push_back(key.min - 1);
        if (key.rule != KeyRule::kRange) bad.push_back(key.min + 1);
        for (const u64 v : bad) {
          const std::string kv =
              std::string(key.name) + "=" + std::to_string(v);
          expect_named(row.name, key.name,
                       std::string(row.name) + "?" + kv + "&iters=1");
          // In the attacks every victim knob takes 0 as "default".
          if (rows == &scenario_rows() && v != 0)
            expect_named("attack.prime_probe", key.name,
                         std::string("attack.prime_probe?victim=") + row.name +
                             "&" + kv + "&iters=1");
          ++checked;
        }
      }
    }
  }
  EXPECT_GE(checked, 20u);
}

TEST(WorkloadRegistry, AllBuiltinsRegistered) {
  const std::vector<std::string> expected = {
      "attack.flush_reload",
      "attack.prime_probe",
      "crypto.aes",
      "crypto.modexp",
      "djpeg",
      "ds.hash_probe",
      "micro.fibonacci",
      "micro.ones",
      "micro.queens",
      "micro.quicksort",
      "synthetic.cond_branch",
      "synthetic.ibr",
      "synthetic.ilp",
      "synthetic.ptr_chase",
      "synthetic.secret_mix",
      "synthetic.stream",
  };
  EXPECT_EQ(reg().names(), expected);
}

// The --list-workloads surface: every generator appears in the catalog
// with its parameter names, defaults, and secret width.
TEST(WorkloadRegistry, CatalogListsParamsDefaultsAndSecretWidth) {
  const std::string cat = reg().catalog();
  for (const std::string& name : reg().names()) {
    EXPECT_NE(cat.find("  " + name + "  [secret width "), std::string::npos)
        << name;
    EXPECT_FALSE(reg().resolve(name).params().empty())
        << name << ": built-in generators must declare their parameters";
  }
  // Parameter names and defaults, across the generator families.
  EXPECT_NE(cat.find("size=400"), std::string::npos);    // micro.fibonacci
  EXPECT_NE(cat.find("rounds=2"), std::string::npos);    // crypto.aes
  EXPECT_NE(cat.find("bits=16"), std::string::npos);     // crypto.modexp
  EXPECT_NE(cat.find("slots=64"), std::string::npos);    // ds.hash_probe
  EXPECT_NE(cat.find("taken=500"), std::string::npos);   // synthetic
  EXPECT_NE(cat.find("format=ppm"), std::string::npos);  // djpeg
  EXPECT_NE(cat.find("width=1"), std::string::npos);     // harness keys
  EXPECT_NE(cat.find("secrets=1"), std::string::npos);
  // Secret widths: 1 for harnessed generators' default specs, 0 + no CTE
  // for djpeg.
  EXPECT_NE(cat.find("crypto.aes  [secret width 1]"), std::string::npos);
  EXPECT_NE(cat.find("djpeg  [secret width 0; no CTE variant]"),
            std::string::npos);
}

// Every parameter a generator declares is accepted by its build at its
// declared default ("0" stands for a derived default) — the catalog
// cannot drift from the spec checker.
TEST(WorkloadRegistry, EveryDeclaredParamIsAcceptedAtItsDefault) {
  for (const std::string& name : reg().names()) {
    std::string spec = name;
    char sep = '?';
    for (const ParamInfo& p : reg().resolve(name).params()) {
      spec += sep;
      // Shrink djpeg so the default-pixels build stays test-sized.
      const bool shrink = name == "djpeg" && p.key == "scale";
      spec += p.key + "=" + (shrink ? "64" : p.fallback);
      sep = '&';
    }
    EXPECT_NO_THROW(reg().build(spec, Variant::kSecure)) << spec;
  }
}

TEST(WorkloadRegistry, UnknownNameThrowsListingRegistered) {
  try {
    reg().resolve("nope");
    FAIL() << "resolve() should have thrown";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown workload 'nope'"), std::string::npos);
    EXPECT_NE(msg.find("synthetic.ptr_chase"), std::string::npos);
  }
}

TEST(WorkloadRegistry, UnknownParameterKeyThrows) {
  EXPECT_THROW(reg().build("micro.fibonacci?bogus=1", Variant::kSecure),
               SimError);
  EXPECT_THROW(reg().build("synthetic.stream?stride=64", Variant::kSecure),
               SimError);
}

TEST(WorkloadRegistry, DuplicateRegistrationThrows) {
  class Dup final : public WorkloadGenerator {
   public:
    std::string name() const override { return "djpeg"; }
    std::string summary() const override { return ""; }
    std::vector<ParamInfo> params() const override { return {}; }
    BuiltWorkload build(const WorkloadSpec&, Variant) const override {
      return {};
    }
  };
  EXPECT_THROW(reg().add(std::make_unique<Dup>()), SimError);
}

TEST(WorkloadRegistry, DjpegRejectsCteVariant) {
  EXPECT_FALSE(reg().resolve("djpeg").has_cte_variant());
  EXPECT_THROW(reg().build("djpeg", Variant::kCte), SimError);
}

TEST(WorkloadRegistry, BadSecretsStringsThrow) {
  EXPECT_THROW(reg().build("micro.ones?secrets=2", Variant::kSecure),
               SimError);
  EXPECT_THROW(
      reg().build("micro.ones?width=3&secrets=10", Variant::kSecure),
      SimError);
}

// The round-trip property for every registered generator: building from
// the bare name yields a canonical spec with every parameter resolved;
// that spec parses, re-serializes unchanged, and rebuilds into the same
// workload.
TEST(WorkloadRegistry, EveryGeneratorRoundTripsItsCanonicalSpec) {
  // The canonical text of each seed spec below, pinned so key order and
  // defaulting cannot drift: the user's keys keep their place, then every
  // absent key follows in canonical order.
  const std::map<std::string, std::string> canonical = {
      {"attack.flush_reload",
       "attack.flush_reload?size=16&iters=2&victim=crypto.modexp&bits=16&"
       "set_bits=4&quantum=2000&passes=0&width=1&secrets=1&seed=42"},
      {"attack.prime_probe",
       "attack.prime_probe?size=16&iters=2&victim=crypto.modexp&bits=16&"
       "set_bits=4&quantum=2000&passes=0&width=1&secrets=1&seed=42"},
      {"crypto.aes",
       "crypto.aes?size=16&iters=2&rounds=2&width=1&secrets=1&seed=42"},
      {"crypto.modexp",
       "crypto.modexp?size=16&iters=2&bits=16&width=1&secrets=1&seed=42"},
      {"djpeg", "djpeg?scale=64&format=ppm&pixels=262144&seed=1"},
      {"ds.hash_probe",
       "ds.hash_probe?size=16&iters=2&slots=64&fill=750&width=1&secrets=1&"
       "seed=42"},
      {"micro.fibonacci",
       "micro.fibonacci?size=6&iters=2&width=1&secrets=1&seed=42"},
      {"micro.ones", "micro.ones?size=6&iters=2&width=1&secrets=1&seed=42"},
      {"micro.queens", "micro.queens?size=6&iters=2&width=1&secrets=1&seed=42"},
      {"micro.quicksort",
       "micro.quicksort?size=6&iters=2&width=1&secrets=1&seed=42"},
      {"synthetic.cond_branch",
       "synthetic.cond_branch?size=16&iters=2&taken=500&width=1&secrets=1&"
       "seed=42"},
      {"synthetic.ibr",
       "synthetic.ibr?size=16&iters=2&targets=8&width=1&secrets=1&seed=42"},
      {"synthetic.ilp",
       "synthetic.ilp?size=16&iters=2&chains=4&depth=8&width=1&secrets=1&"
       "seed=42"},
      {"synthetic.ptr_chase",
       "synthetic.ptr_chase?size=16&iters=2&stride=64&steps=33&width=1&"
       "secrets=1&seed=42"},
      {"synthetic.secret_mix",
       "synthetic.secret_mix?size=16&iters=2&width=1&secrets=1&seed=42"},
      {"synthetic.stream",
       "synthetic.stream?size=16&iters=2&width=1&secrets=1&seed=42"},
  };
  EXPECT_EQ(canonical.size(), reg().names().size());
  for (const std::string& name : reg().names()) {
    // Small overrides so the heavyweight generators stay test-sized.
    std::string seed_spec = name;
    if (name == "djpeg") seed_spec += "?scale=64";
    else if (name.rfind("micro.", 0) == 0) seed_spec += "?size=6&iters=2";
    else seed_spec += "?size=16&iters=2";

    const BuiltWorkload a = reg().build(seed_spec, Variant::kSecure);
    ASSERT_EQ(canonical.count(name), 1u) << name;
    EXPECT_EQ(a.spec, canonical.at(name));

    const WorkloadSpec parsed = WorkloadSpec::parse(a.spec);
    EXPECT_EQ(parsed.name, name);
    EXPECT_EQ(parsed.to_string(), a.spec) << name;

    const BuiltWorkload b = reg().build(a.spec, Variant::kSecure);
    EXPECT_EQ(b.spec, a.spec) << name;
    EXPECT_EQ(b.program.num_instructions(), a.program.num_instructions())
        << name;
    EXPECT_EQ(b.program.code(), a.program.code()) << name;
    EXPECT_EQ(b.results_addr, a.results_addr) << name;
    EXPECT_EQ(b.expected_results, a.expected_results) << name;
    ASSERT_GT(a.num_results, 0u) << name;

    // The canonical spec runs, and its results match the host mirror.
    const auto r = sim::run_functional(a.program, cpu::ExecMode::kSempe, {},
                                       a.results_addr, a.num_results);
    EXPECT_EQ(r.probed, a.expected_results) << name;
  }
}

}  // namespace
}  // namespace sempe::workloads
