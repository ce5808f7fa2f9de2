// Static taint lint (security/taint_lint.h): analyzer unit tests over
// hand-built programs — one per finding kind, plus the propagation and
// precision properties the design depends on — and the registry-wide
// pinned-findings tables: every natural variant must reproduce exactly
// its sJMP sites under the legacy policy, every CTE variant must lint
// clean, and the SeMPE policy must excuse every verified region (with
// synthetic.ibr as the pinned static-dirty/dynamic-clean exception).
#include "security/taint_lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "isa/program_builder.h"
#include "sim/experiment.h"
#include "util/check.h"
#include "workloads/registry.h"
#include "workloads/workload_regs.h"

namespace sempe::security {
namespace {

using isa::ProgramBuilder;
using isa::Reg;
using isa::Secure;
using workloads::rCond;
using workloads::rSecrets;

constexpr Reg kT0 = 10;
constexpr Reg kT1 = 11;
constexpr Reg kT2 = 12;
constexpr Reg kT3 = 13;

/// A builder pre-loaded with a one-word secret allocation bound to
/// rSecrets (the harness convention) and a public scratch allocation in
/// kT0. Returns the pair of allocation bases.
struct Fixture {
  ProgramBuilder pb;
  Addr secrets = 0;
  Addr scratch = 0;

  Fixture() {
    secrets = pb.alloc_words({0x5ec7e7});
    scratch = pb.alloc_words({1, 2, 3, 4});
    pb.li(rSecrets, static_cast<i64>(secrets));
    pb.li(kT0, static_cast<i64>(scratch));
  }

  LintResult lint(LintPolicy policy = LintPolicy::kCte) {
    pb.halt();
    LintOptions opt;
    opt.policy = policy;
    const isa::Program prog = pb.build();
    return lint_program(prog, resolve_secrets_base(prog), opt);
  }
};

std::vector<TaintKind> kinds_of(const LintResult& r) {
  std::vector<TaintKind> ks;
  for (const TaintFinding& f : r.findings) ks.push_back(f.kind);
  return ks;
}

TEST(TaintLint, SecretBranchIsFlagged) {
  Fixture fx;
  fx.pb.ld(rCond, rSecrets, 0);
  auto skip = fx.pb.new_label();
  fx.pb.beq(rCond, isa::kRegZero, skip);
  fx.pb.bind(skip);
  const LintResult r = fx.lint();
  ASSERT_EQ(r.findings.size(), 1u) << r.to_string();
  EXPECT_EQ(r.findings[0].kind, TaintKind::kSecretBranch);
  EXPECT_EQ(r.tainted_branches, 1u);
}

TEST(TaintLint, PublicBranchIsClean) {
  Fixture fx;
  fx.pb.ld(kT1, kT0, 0);  // public scratch load
  auto skip = fx.pb.new_label();
  fx.pb.beq(kT1, isa::kRegZero, skip);
  fx.pb.bind(skip);
  const LintResult r = fx.lint();
  EXPECT_TRUE(r.clean()) << r.to_string();
}

TEST(TaintLint, SecretIndexedLoadIsFlagged) {
  Fixture fx;
  fx.pb.ld(kT1, rSecrets, 0);    // secret value
  fx.pb.add(kT2, kT0, kT1);      // scratch + secret -> tainted pointer
  fx.pb.ld(kT3, kT2, 0);         // secret-indexed load
  const LintResult r = fx.lint();
  ASSERT_EQ(r.findings.size(), 1u) << r.to_string();
  EXPECT_EQ(r.findings[0].kind, TaintKind::kSecretLoadAddr);
}

TEST(TaintLint, SecretIndexedStoreIsFlagged) {
  Fixture fx;
  fx.pb.ld(kT1, rSecrets, 0);
  fx.pb.add(kT2, kT0, kT1);
  fx.pb.st(isa::kRegZero, kT2, 0);  // secret-indexed store
  const LintResult r = fx.lint();
  ASSERT_EQ(r.findings.size(), 1u) << r.to_string();
  EXPECT_EQ(r.findings[0].kind, TaintKind::kSecretStoreAddr);
}

TEST(TaintLint, SecretDivAndRemOperandsAreFlagged) {
  Fixture fx;
  fx.pb.ld(kT1, rSecrets, 0);
  fx.pb.li(kT2, 7);
  fx.pb.div(kT3, kT2, kT1);  // secret divisor
  fx.pb.rem(kT3, kT1, kT2);  // secret dividend
  const LintResult r = fx.lint();
  ASSERT_EQ(r.findings.size(), 2u) << r.to_string();
  EXPECT_EQ(r.findings[0].kind, TaintKind::kSecretDivRem);
  EXPECT_EQ(r.findings[1].kind, TaintKind::kSecretDivRem);
}

TEST(TaintLint, SecretIndirectTargetIsFlagged) {
  Fixture fx;
  fx.pb.ld(kT1, rSecrets, 0);
  fx.pb.jalr(isa::kRegZero, kT1);  // secret jump target
  const LintResult r = fx.lint();
  const auto ks = kinds_of(r);
  ASSERT_FALSE(r.findings.empty()) << r.to_string();
  EXPECT_NE(std::find(ks.begin(), ks.end(), TaintKind::kSecretIndirect),
            ks.end());
}

TEST(TaintLint, CmovConsumesSecretWithoutFindingButPropagates) {
  // cmov is the sanctioned constant-time select: using a secret condition
  // is NOT a finding, but the merged value must stay tainted — branching
  // on it afterwards is.
  Fixture fx;
  fx.pb.ld(rCond, rSecrets, 0);
  fx.pb.li(kT1, 1);
  fx.pb.li(kT2, 2);
  fx.pb.cmov(kT1, rCond, kT2);  // kT1 = rCond ? kT2 : kT1 — no finding
  const Addr branch_pc = fx.pb.here();
  auto skip = fx.pb.new_label();
  fx.pb.beq(kT1, isa::kRegZero, skip);  // ...but this leaks it
  fx.pb.bind(skip);
  const LintResult r = fx.lint();
  ASSERT_EQ(r.findings.size(), 1u) << r.to_string();
  EXPECT_EQ(r.findings[0].kind, TaintKind::kSecretBranch);
  EXPECT_EQ(r.findings[0].pc, branch_pc);
}

TEST(TaintLint, ConstantRewriteClearsTaint) {
  // A strong update (li) kills the taint: the register no longer depends
  // on the secret, so the branch is clean. This is what keeps the harness
  // loop bound (li rT0, iters; blt rIter, rT0, loop) out of the findings.
  Fixture fx;
  fx.pb.ld(kT1, rSecrets, 0);
  fx.pb.li(kT1, 42);  // overwrite: taint gone
  auto skip = fx.pb.new_label();
  fx.pb.beq(kT1, isa::kRegZero, skip);
  fx.pb.bind(skip);
  const LintResult r = fx.lint();
  EXPECT_TRUE(r.clean()) << r.to_string();
}

TEST(TaintLint, TaintFlowsThroughMemory) {
  // Secret stored to public scratch, loaded back, branched on: the memory
  // abstraction must carry the taint through the round trip.
  Fixture fx;
  fx.pb.ld(kT1, rSecrets, 0);
  fx.pb.st(kT1, kT0, 8);  // spill the secret
  fx.pb.ld(kT2, kT0, 8);  // reload it
  auto skip = fx.pb.new_label();
  fx.pb.beq(kT2, isa::kRegZero, skip);
  fx.pb.bind(skip);
  const LintResult r = fx.lint();
  ASSERT_EQ(r.findings.size(), 1u) << r.to_string();
  EXPECT_EQ(r.findings[0].kind, TaintKind::kSecretBranch);
}

TEST(TaintLint, AllocationProvenanceKeepsTaintedStoresApart) {
  // A tainted store through a pointer into allocation A must not taint
  // loads from allocation B: per-allocation summaries, not one global
  // dirty bit, are what keep the CTE variants (masked stores into their
  // own output slots) clean.
  Fixture fx;
  const Addr other = fx.pb.alloc_words({7, 8});
  fx.pb.ld(kT1, rSecrets, 0);
  fx.pb.li(kT3, static_cast<i64>(other));
  fx.pb.ld(kT2, kT3, 0);     // public index, from the OTHER allocation
  fx.pb.add(kT2, kT0, kT2);  // pointer into scratch, unknown offset
  fx.pb.st(kT1, kT2, 0);     // tainted store into scratch (summary bit)
  fx.pb.ld(kT3, kT3, 8);  // reload from the other allocation: still clean
  auto skip = fx.pb.new_label();
  fx.pb.beq(kT3, isa::kRegZero, skip);
  fx.pb.bind(skip);
  const LintResult r = fx.lint();
  EXPECT_TRUE(r.clean()) << r.to_string();
}

TEST(TaintLint, LoopCarriedTaintReachesFixpoint) {
  // The branch at the loop head is only tainted via the back edge: the
  // first pass sees an untainted accumulator, so a single-pass analysis
  // would miss it. The fixpoint must not.
  Fixture fx;
  fx.pb.li(kT1, 0);  // accumulator
  fx.pb.li(kT2, 0);  // induction
  auto loop = fx.pb.new_label();
  auto skip = fx.pb.new_label();
  fx.pb.bind(loop);
  const Addr head_pc = fx.pb.here();
  fx.pb.beq(kT1, isa::kRegZero, skip);  // tainted from pass 2 on
  fx.pb.bind(skip);
  fx.pb.ld(kT3, rSecrets, 0);
  fx.pb.add(kT1, kT1, kT3);  // accumulate the secret
  fx.pb.addi(kT2, kT2, 1);
  fx.pb.li(kT3, 4);
  fx.pb.blt(kT2, kT3, loop);
  const LintResult r = fx.lint();
  EXPECT_GE(r.passes, 2u);
  ASSERT_EQ(r.findings.size(), 1u) << r.to_string();
  EXPECT_EQ(r.findings[0].pc, head_pc);
}

TEST(TaintLint, SempePolicyExcusesVerifiedSjmpOnly) {
  // The harness shape: an sJMP skipping a straight-line body to an eosjmp
  // join. The region verifier accepts it, so the SeMPE policy excuses the
  // tainted sJMP; the legacy policy (prefix ignored) still flags it.
  const auto build = [](LintPolicy policy) {
    Fixture fx;
    fx.pb.ld(rCond, rSecrets, 0);
    auto join = fx.pb.new_label();
    fx.pb.beq(rCond, isa::kRegZero, join, Secure::kYes);  // sJMP
    fx.pb.addi(kT1, kT1, 1);                              // guarded body
    fx.pb.bind(join);
    fx.pb.eosjmp();
    return fx.lint(policy);
  };
  const LintResult legacy = build(LintPolicy::kLegacy);
  ASSERT_EQ(legacy.findings.size(), 1u) << legacy.to_string();
  EXPECT_EQ(legacy.findings[0].kind, TaintKind::kSecretBranch);
  EXPECT_EQ(legacy.excused_sjmps, 0u);

  const LintResult sempe = build(LintPolicy::kSempe);
  EXPECT_TRUE(sempe.clean()) << sempe.to_string();
  EXPECT_EQ(sempe.excused_sjmps, 1u);
  EXPECT_EQ(sempe.tainted_branches, 1u);
}

TEST(TaintLint, NoSeedsMeansNoFindings) {
  ProgramBuilder pb;
  const Addr data = pb.alloc_words({1, 2, 3});
  pb.li(kT0, static_cast<i64>(data));
  pb.ld(kT1, kT0, 0);
  auto skip = pb.new_label();
  pb.beq(kT1, isa::kRegZero, skip);
  pb.bind(skip);
  pb.halt();
  const LintResult r = lint_program(pb.build(), TaintSeeds::none());
  EXPECT_TRUE(r.clean()) << r.to_string();
}

TEST(TaintLint, ResolveSecretsBaseFindsHarnessAllocation) {
  const workloads::BuiltWorkload built =
      workloads::WorkloadRegistry::instance().build(
          "synthetic.cond_branch?width=2&iters=1", workloads::Variant::kSecure);
  const TaintSeeds seeds = resolve_secrets_base(built.program);
  ASSERT_EQ(seeds.ranges.size(), 1u);
  // The harness secret array is width words.
  EXPECT_EQ(seeds.ranges[0].bytes, 2u * 8u);
  EXPECT_NE(built.program.allocation_of(seeds.ranges[0].addr), nullptr);
}

// ---------------------------------------------------------------------------
// Registry-wide pinned-findings tables.

/// The sJMP sites of a program — the exact PC set the legacy policy must
/// report for a harnessed natural variant (and nothing else).
std::set<Addr> sjmp_pcs(const isa::Program& prog) {
  std::set<Addr> pcs;
  for (usize i = 0; i < prog.num_instructions(); ++i) {
    const Addr pc = prog.pc_of(i);
    if (prog.fetch(pc).is_sjmp()) pcs.insert(pc);
  }
  return pcs;
}

std::set<Addr> finding_pcs(const LintResult& r) {
  std::set<Addr> pcs;
  for (const TaintFinding& f : r.findings) pcs.insert(f.pc);
  return pcs;
}

TEST(TaintLintRegistry, PinnedFindingsAcrossEveryWorkload) {
  const std::vector<WorkloadLint> lints = lint_registry(3, 2);
  ASSERT_EQ(lints.size(),
            workloads::WorkloadRegistry::instance().names().size());
  for (const WorkloadLint& wl : lints) {
    SCOPED_TRACE(wl.spec);
    if (wl.secret_width == 0) {
      // djpeg: no settable secret vector, so no seeds and no findings.
      EXPECT_TRUE(wl.natural_legacy.clean());
      EXPECT_TRUE(wl.natural_sempe.clean());
      continue;
    }
    // Natural variant, legacy policy: exactly the sJMP sites, every one a
    // secret-branch finding — the W per-level guards of the harness.
    const workloads::BuiltWorkload nat =
        workloads::WorkloadRegistry::instance().build(wl.spec,
                                                      workloads::Variant::kSecure);
    const std::set<Addr> expected = sjmp_pcs(nat.program);
    EXPECT_EQ(expected.size(), wl.secret_width);
    EXPECT_EQ(finding_pcs(wl.natural_legacy), expected);
    for (const TaintFinding& f : wl.natural_legacy.findings)
      EXPECT_EQ(f.kind, TaintKind::kSecretBranch) << f.to_string();

    // SeMPE policy: every verified sJMP excused. synthetic.ibr is the
    // pinned exception — the region verifier rejects regions containing
    // indirect calls, so its sJMPs stay findings (static-dirty even
    // though the dynamic audit shows the channel closed).
    if (wl.spec.rfind("synthetic.ibr", 0) == 0) {
      EXPECT_EQ(finding_pcs(wl.natural_sempe), expected);
      EXPECT_EQ(wl.natural_sempe.excused_sjmps, 0u);
    } else {
      EXPECT_TRUE(wl.natural_sempe.clean()) << wl.natural_sempe.to_string();
      EXPECT_EQ(wl.natural_sempe.excused_sjmps, wl.secret_width);
    }

    // CTE variant: the constant-time discipline must lint fully clean.
    ASSERT_TRUE(wl.has_cte);
    EXPECT_TRUE(wl.cte.clean()) << wl.cte.to_string();
  }
}

TEST(TaintLintRegistry, MeasureLintCrossChecksAgainstDynamicAudit) {
  security::AuditOptions opt;
  opt.samples = 4;
  const sim::AuditPoint pt =
      sim::measure_audit("synthetic.cond_branch?width=2&iters=1", opt);
  EXPECT_TRUE(pt.ok()) << pt.failure_summary();
  EXPECT_TRUE(pt.warnings.empty()) << pt.warning_summary();
  EXPECT_EQ(pt.lint.natural_legacy.findings.size(), 2u);

  // The pinned precision caveat: ibr is static-dirty under the SeMPE
  // policy but dynamically indistinguishable — a warning, not a failure.
  const sim::AuditPoint ibr =
      sim::measure_audit("synthetic.ibr?width=2&iters=1", opt);
  EXPECT_TRUE(ibr.ok()) << ibr.failure_summary();
  EXPECT_FALSE(ibr.warnings.empty());
}

TEST(TaintLintRegistry, LintVerdictsDoNotDependOnTheStatTier) {
  // The lint experiment reports the same audit points as the leakage
  // experiment, which run the statistical tier when SEMPE_STAT_SAMPLES is
  // set; the cross-check reads the exact tier only, so its verdicts must
  // not move.
  for (const char* spec :
       {"synthetic.cond_branch?width=2&iters=1", "synthetic.ibr?width=2&iters=1"}) {
    security::AuditOptions off;
    off.samples = 4;
    security::AuditOptions on = off;
    on.stat_samples = 8;
    const sim::AuditPoint a = sim::measure_audit(spec, off);
    const sim::AuditPoint b = sim::measure_audit(spec, on);
    EXPECT_GT(b.audit.stat_pairs, 0u) << spec;  // the tier did run
    EXPECT_EQ(a.failures, b.failures) << spec;
    EXPECT_EQ(a.warnings, b.warnings) << spec;
    EXPECT_EQ(finding_pcs(a.lint.natural_legacy),
              finding_pcs(b.lint.natural_legacy)) << spec;
    EXPECT_EQ(finding_pcs(a.lint.natural_sempe),
              finding_pcs(b.lint.natural_sempe)) << spec;
    EXPECT_EQ(finding_pcs(a.lint.cte), finding_pcs(b.lint.cte)) << spec;
    for (const char* mode : {"legacy", "sempe", "cte"}) {
      const security::ModeAudit* ma = a.audit.mode(mode);
      const security::ModeAudit* mb = b.audit.mode(mode);
      ASSERT_NE(ma, nullptr) << spec << " " << mode;
      ASSERT_NE(mb, nullptr) << spec << " " << mode;
      EXPECT_EQ(ma->indistinguishable(), mb->indistinguishable())
          << spec << " " << mode;
    }
  }
}

}  // namespace
}  // namespace sempe::security
