// The leakage-audit subsystem end to end: secret-mask sampling, the
// secrets=0b spec grammar, per-channel partitioning, and the headline
// acceptance property — every registered workload audited over >= 8
// sampled secret vectors is indistinguishable on every channel under
// SeMPE, while the legacy core is distinguishable wherever a secret
// dimension exists.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "security/audit.h"
#include "sim/batch_runner.h"
#include "workloads/harness.h"
#include "workloads/registry.h"

namespace sempe::security {
namespace {

using workloads::WorkloadRegistry;
using workloads::WorkloadSpec;

/// Sweep options with only the worker count set.
sim::SweepOptions on_threads(usize n) {
  sim::SweepOptions opt;
  opt.threads = n;
  return opt;
}

/// Small-but-real audit spec for a registry name: width=3 gives an
/// exhaustive 2^3 = 8-vector secret space; sizes are shrunk so the full
/// registry sweep stays test-sized. Unknown (future) names fall back to
/// the harness knobs only.
std::string audit_spec(const std::string& name) {
  if (name == "djpeg") return "djpeg?pixels=4096&scale=16";
  std::string spec = name + "?width=3&iters=1";
  if (name == "micro.fibonacci") spec += "&size=64";
  if (name == "micro.ones") spec += "&size=64";
  if (name == "micro.quicksort") spec += "&size=32";
  if (name == "micro.queens") spec += "&size=4";
  if (name == "synthetic.ptr_chase") spec += "&size=64";
  if (name == "synthetic.stream") spec += "&size=128";
  if (name == "synthetic.cond_branch") spec += "&size=128";
  if (name == "synthetic.ibr") spec += "&size=64";
  if (name == "synthetic.ilp") spec += "&size=32";
  if (name == "synthetic.secret_mix") spec += "&size=64";
  if (name == "crypto.aes") spec += "&size=4&rounds=1";
  if (name == "crypto.modexp") spec += "&size=4&bits=8";
  if (name == "ds.hash_probe") spec += "&size=8&slots=32";
  if (name == "attack.prime_probe") spec += "&size=4&bits=8";
  if (name == "attack.flush_reload") spec += "&size=4&bits=8";
  return spec;
}

// ---------------------------------------------------------------------------
// Secret-mask sampling.

TEST(SecretMasks, ExhaustiveWhenTheSpaceFits) {
  const auto masks = sample_secret_masks(3, 8, 1);
  ASSERT_EQ(masks.size(), 8u);
  for (u64 m = 0; m < 8; ++m) EXPECT_EQ(masks[m], m);
  // More budget than space: still exhaustive, never duplicated.
  EXPECT_EQ(sample_secret_masks(2, 100, 1).size(), 4u);
}

TEST(SecretMasks, SampledSpacesKeepCornersAndAreDistinct) {
  const auto masks = sample_secret_masks(20, 8, 7);
  ASSERT_EQ(masks.size(), 8u);
  EXPECT_EQ(masks[0], 0u);
  EXPECT_EQ(masks[1], (1u << 20) - 1);  // all-ones corner
  std::set<u64> distinct(masks.begin(), masks.end());
  EXPECT_EQ(distinct.size(), masks.size());
  for (const u64 m : masks) EXPECT_LT(m, 1u << 20);
}

TEST(SecretMasks, DeterministicPerSeed) {
  EXPECT_EQ(sample_secret_masks(16, 6, 42), sample_secret_masks(16, 6, 42));
  EXPECT_NE(sample_secret_masks(16, 6, 42), sample_secret_masks(16, 6, 43));
}

TEST(SecretMasks, WidthZeroHasOnePoint) {
  EXPECT_EQ(sample_secret_masks(0, 8, 1), (std::vector<u64>{0}));
}

// ---------------------------------------------------------------------------
// The secrets=0b mask-literal grammar and its encoder.

TEST(SecretsGrammar, LiteralEncodesMsbFirst) {
  using workloads::secrets_literal;
  EXPECT_EQ(secrets_literal(0, 3), "0b000");
  EXPECT_EQ(secrets_literal(5, 4), "0b0101");
  EXPECT_EQ(secrets_literal(7, 3), "0b111");
  EXPECT_EQ(secrets_literal(0, 0), "0b0");
}

TEST(SecretsGrammar, MaskDecodesLsbFirstIntoLevels) {
  using workloads::secrets_from_mask;
  EXPECT_EQ(secrets_from_mask(5, 4), (std::vector<u8>{1, 0, 1, 0}));
  EXPECT_EQ(secrets_from_mask(0, 2), (std::vector<u8>{0, 0}));
  EXPECT_TRUE(secrets_from_mask(0, 0).empty());
  EXPECT_THROW(secrets_from_mask(4, 2), SimError);  // does not fit
}

TEST(SecretsGrammar, LiteralRoundTripsThroughTheSpecPath) {
  const auto spec =
      WorkloadSpec::parse("synthetic.stream?width=3&secrets=0b101");
  const auto h =
      workloads::harness_config_from_spec(spec, workloads::Variant::kSecure);
  EXPECT_EQ(h.secrets, (std::vector<u8>{1, 0, 1}));
}

TEST(SecretsGrammar, RejectsMalformedLiterals) {
  const auto config = [](const std::string& secrets) {
    return workloads::harness_config_from_spec(
        WorkloadSpec::parse("synthetic.stream?width=3&secrets=" + secrets),
        workloads::Variant::kSecure);
  };
  EXPECT_THROW(config("0b102"), SimError);   // non-binary digit
  EXPECT_THROW(config("0b1111"), SimError);  // mask does not fit width=3
  EXPECT_NO_THROW(config("0b0111"));         // leading zeros are fine
}

TEST(SecretsGrammar, EverySweptMaskProducesDistinctExpectedResults) {
  // The harness's host mirror must react to the swept secrets — otherwise
  // the audit's functional cross-check would be vacuous.
  std::set<std::vector<u64>> distinct;
  for (u64 mask = 0; mask < 8; ++mask) {
    const auto b = WorkloadRegistry::instance().build(
        "synthetic.stream?width=3&iters=1&secrets=" +
            workloads::secrets_literal(mask, 3),
        workloads::Variant::kSecure);
    distinct.insert(b.expected_results);
  }
  // Levels execute up to the first zero secret; the merged-result vector
  // still separates 4 prefix classes.
  EXPECT_GE(distinct.size(), 4u);
}

// ---------------------------------------------------------------------------
// secret_width through the registry.

TEST(SecretWidth, HarnessedGeneratorsExposeTheirWidth) {
  const auto& reg = WorkloadRegistry::instance();
  EXPECT_EQ(reg.resolve("synthetic.stream")
                .secret_width(WorkloadSpec::parse("synthetic.stream?width=5")),
            5u);
  EXPECT_EQ(reg.resolve("micro.quicksort")
                .secret_width(WorkloadSpec::parse("micro.quicksort")),
            1u);  // width defaults to 1
  EXPECT_EQ(reg.resolve("djpeg").secret_width(WorkloadSpec::parse("djpeg")),
            0u);  // no settable secret vector
}

// ---------------------------------------------------------------------------
// audit_workload mechanics on one known-leaky kernel.

TEST(Audit, LegacyModeRederivesTheVulnerability) {
  AuditOptions opt;
  opt.samples = 8;
  const WorkloadAudit a =
      audit_workload("synthetic.cond_branch?width=3&iters=1&size=128", opt);
  EXPECT_EQ(a.secret_width, 3u);
  EXPECT_EQ(a.masks.size(), 8u);
  EXPECT_NE(a.spec.find("secrets=swept"), std::string::npos) << a.spec;

  const ModeAudit* legacy = a.mode("legacy");
  ASSERT_NE(legacy, nullptr);
  EXPECT_TRUE(legacy->results_ok) << legacy->mismatch;
  EXPECT_FALSE(legacy->indistinguishable());
  EXPECT_GT(legacy->leaked_bits(), 1.0);
  // The Fig. 7 nest reveals the position of the first zero secret: 4
  // classes over the 8-vector space on the timing channel.
  bool saw_timing = false;
  for (const ChannelVerdict& v : legacy->channels) {
    if (v.channel != Channel::kTiming) continue;
    saw_timing = true;
    EXPECT_EQ(v.num_classes, 4u);
    EXPECT_FALSE(v.first_divergence.empty());
    EXPECT_NE(v.first_divergence.find("secrets 0b"), std::string::npos)
        << v.first_divergence;
  }
  EXPECT_TRUE(saw_timing);

  const ModeAudit* sempe = a.mode("sempe");
  ASSERT_NE(sempe, nullptr);
  EXPECT_TRUE(sempe->indistinguishable()) << sempe->first_divergence();
  EXPECT_EQ(sempe->leaked_bits(), 0.0);
  EXPECT_EQ(sempe->open_channels(), "");
  EXPECT_TRUE(a.sempe_closed());

  // Every recorded pipeline channel got a verdict in every mode — all of
  // them except the probe channel, which only a co-resident attack
  // workload records.
  for (const ModeAudit& m : a.modes)
    EXPECT_EQ(m.channels.size(), kNumChannels - 1) << m.mode;
}

TEST(Audit, SingleSampleAuditOfSecretWorkloadIsRejected) {
  // One secret vector compares nothing: every channel would pass
  // vacuously, indistinguishable in output shape from a real sweep.
  AuditOptions opt;
  opt.samples = 1;
  EXPECT_THROW(
      audit_workload("synthetic.stream?width=1&iters=1&size=64", opt),
      SimError);
  // Width-0 workloads have nothing to sweep; one sample IS the space.
  EXPECT_NO_THROW(audit_workload("djpeg?pixels=4096&scale=16", opt));
}

TEST(Audit, ZeroSamplesIsASimErrorNotACheckFailure) {
  // --samples=0 must surface as a catchable diagnostic (sempe_run --audit
  // prints it and exits 2), not a process abort — for width-0 workloads
  // too, where the exact tier would otherwise sweep nothing silently.
  AuditOptions opt;
  opt.samples = 0;
  EXPECT_THROW(
      audit_workload("synthetic.stream?width=1&iters=1&size=64", opt),
      SimError);
  EXPECT_THROW(audit_workload("djpeg?pixels=4096&scale=16", opt), SimError);
}

// ---------------------------------------------------------------------------
// The statistical tier end to end (security/stat_audit.h).

TEST(StatAudit, ModexpLegacyIsFlaggedWhileSempeAndCteAreNot) {
  AuditOptions opt;
  opt.samples = 8;
  opt.stat_samples = 32;  // one round reaches kMinNoEvidenceSamples
  opt.stat_budget = 96;   // exactly one round per mode, no adaptive slack
  const WorkloadAudit a =
      audit_workload("crypto.modexp?width=3&iters=1&size=4&bits=8", opt);
  EXPECT_EQ(a.stat_pairs, 96u);

  const ModeAudit* legacy = a.mode("legacy");
  ASSERT_NE(legacy, nullptr);
  EXPECT_EQ(legacy->stat_verdict(), StatVerdict::kLeak);
  EXPECT_FALSE(legacy->stat_leak_channels().empty());
  // The timing channel separates secret classes by thousands of cycles;
  // either the t statistic or the MI estimate must be decisive.
  bool timing_flagged = false;
  for (const ChannelVerdict& v : legacy->channels) {
    EXPECT_EQ(v.stat.n_fixed, 32u) << channel_name(v.channel);
    EXPECT_EQ(v.stat.n_random, 32u) << channel_name(v.channel);
    if (v.channel == Channel::kTiming)
      timing_flagged = v.stat.verdict == StatVerdict::kLeak;
  }
  EXPECT_TRUE(timing_flagged);

  for (const char* mode : {"sempe", "cte"}) {
    const ModeAudit* m = a.mode(mode);
    ASSERT_NE(m, nullptr) << mode;
    EXPECT_EQ(m->stat_verdict(), StatVerdict::kNoEvidence) << mode;
    EXPECT_EQ(m->stat_leak_channels(), "") << mode;
    EXPECT_EQ(m->stat_samples(), 32u) << mode;
    EXPECT_DOUBLE_EQ(m->stat_max_t(), 0.0) << mode;
    EXPECT_DOUBLE_EQ(m->stat_max_mi_bits(), 0.0) << mode;
  }
}

TEST(StatAudit, AdaptiveDriverSpendsTheBudgetDeterministically) {
  // stat_samples=8 rounds under a 80-pair budget: 24 pairs buy the
  // mandatory round per mode, legacy is flagged leak immediately and
  // drops out, then the driver feeds the still-inconclusive tests —
  // sempe (lowest mode index) up to no-evidence, then cte, then ties go
  // back to sempe. The final per-mode counts are pinned: a change in the
  // scheduling policy or the estimators shows up here.
  AuditOptions opt;
  opt.samples = 8;
  opt.stat_samples = 8;
  opt.stat_budget = 80;
  const WorkloadAudit a =
      audit_workload("crypto.modexp?width=3&iters=1&size=4&bits=8", opt);
  EXPECT_EQ(a.stat_pairs, 80u);
  ASSERT_NE(a.mode("legacy"), nullptr);
  ASSERT_NE(a.mode("sempe"), nullptr);
  ASSERT_NE(a.mode("cte"), nullptr);
  EXPECT_EQ(a.mode("legacy")->stat_samples(), 8u);
  EXPECT_EQ(a.mode("sempe")->stat_samples(), 40u);
  EXPECT_EQ(a.mode("cte")->stat_samples(), 32u);
  EXPECT_EQ(a.mode("sempe")->stat_verdict(), StatVerdict::kNoEvidence);
  EXPECT_EQ(a.mode("cte")->stat_verdict(), StatVerdict::kNoEvidence);

  // Same options, same audit — bit-identical statistics both times.
  const WorkloadAudit b =
      audit_workload("crypto.modexp?width=3&iters=1&size=4&bits=8", opt);
  for (usize mi = 0; mi < a.modes.size(); ++mi)
    for (usize ci = 0; ci < a.modes[mi].channels.size(); ++ci)
      EXPECT_EQ(a.modes[mi].channels[ci].stat, b.modes[mi].channels[ci].stat)
          << a.modes[mi].mode;
}

TEST(StatAudit, ZeroWidthWorkloadsSkipTheTier) {
  // djpeg has no secret dimension: nothing to class-split, so the tier
  // stays off (kNotRun) rather than fabricating a vacuous verdict.
  AuditOptions opt;
  opt.samples = 2;
  opt.stat_samples = 8;
  const WorkloadAudit a = audit_workload("djpeg?pixels=4096&scale=16", opt);
  EXPECT_EQ(a.stat_pairs, 0u);
  for (const ModeAudit& m : a.modes) {
    EXPECT_EQ(m.stat_verdict(), StatVerdict::kNotRun) << m.mode;
    for (const ChannelVerdict& v : m.channels)
      EXPECT_EQ(v.stat.verdict, StatVerdict::kNotRun) << m.mode;
  }
}

TEST(StatAudit, SingleStatSampleIsRejected) {
  // One sample per class has no variance to test; a silent t=0 would
  // masquerade as evidence of closure.
  AuditOptions opt;
  opt.samples = 4;
  opt.stat_samples = 1;
  EXPECT_THROW(
      audit_workload("synthetic.stream?width=2&iters=1&size=64", opt),
      SimError);
}

TEST(Audit, ModeMatrixRespectsCteAvailability) {
  AuditOptions opt;
  opt.samples = 2;
  const WorkloadAudit with_cte =
      audit_workload("synthetic.stream?width=1&iters=1&size=64", opt);
  EXPECT_NE(with_cte.mode("cte"), nullptr);

  const WorkloadAudit no_cte = audit_workload("djpeg?pixels=4096&scale=16", opt);
  EXPECT_EQ(no_cte.mode("cte"), nullptr);   // djpeg has no CTE variant
  EXPECT_EQ(no_cte.secret_width, 0u);
  EXPECT_EQ(no_cte.masks.size(), 1u);       // nothing to sweep
  EXPECT_TRUE(no_cte.sempe_closed());

  opt.include_cte = false;
  const WorkloadAudit skipped =
      audit_workload("synthetic.stream?width=1&iters=1&size=64", opt);
  EXPECT_EQ(skipped.mode("cte"), nullptr);
}

// ---------------------------------------------------------------------------
// The acceptance sweep: every registered workload.

TEST(Audit, EveryRegisteredWorkloadIsClosedUnderSempe) {
  AuditOptions opt;
  opt.samples = 8;
  for (const std::string& name : WorkloadRegistry::instance().names()) {
    const WorkloadAudit a = audit_workload(audit_spec(name), opt);
    EXPECT_TRUE(a.sempe_closed())
        << name << ": " << a.to_string();
    for (const ModeAudit& m : a.modes)
      EXPECT_TRUE(m.results_ok) << name << " " << m.mode << ": " << m.mismatch;
    if (a.secret_width > 0) {
      // >= 8 sampled secret vectors, and the legacy core must be
      // distinguishable — the audit can re-derive the vulnerability.
      EXPECT_GE(a.masks.size(), 8u) << name;
      const ModeAudit* legacy = a.mode("legacy");
      ASSERT_NE(legacy, nullptr) << name;
      EXPECT_FALSE(legacy->indistinguishable())
          << name << " legacy unexpectedly closed: " << a.to_string();
      EXPECT_GT(legacy->leaked_bits(), 0.0) << name;
    }
  }
}

// ---------------------------------------------------------------------------
// The sim-layer fan-out: measure_audit through the audit family row.

TEST(LeakageJobs, BatchPathMatchesDirectAuditAndSerializes) {
  security::AuditOptions opt;
  opt.samples = 4;
  const std::vector<std::string> specs = {
      "synthetic.cond_branch?width=2&iters=1&size=64",
      "synthetic.stream?width=2&iters=1&size=64",
  };
  const auto jobs = sim::spec_grid<sim::AuditFamily>(specs, opt);
  ASSERT_EQ(jobs.size(), 2u);
  const auto run1 = sim::run_sweep<sim::AuditFamily>(jobs, on_threads(1));
  const auto run2 = sim::run_sweep<sim::AuditFamily>(jobs, on_threads(2));
  ASSERT_EQ(run1.points.size(), 2u);

  for (const auto& pt : run1.points) {
    EXPECT_TRUE(pt.sempe_closed()) << pt.audit.to_string();
    EXPECT_TRUE(pt.legacy_leaks()) << pt.audit.to_string();
    EXPECT_TRUE(pt.results_ok());
  }

  const std::string j1 =
      sim::sweep_json<sim::AuditFamily>("leakage", jobs, run1);
  const std::string j2 =
      sim::sweep_json<sim::AuditFamily>("leakage", jobs, run2);
  EXPECT_EQ(j1, j2);  // byte-identical across thread counts
  EXPECT_NE(j1.find("\"experiment\": \"leakage\""), std::string::npos);
  EXPECT_NE(j1.find("\"sempe_distinguishable\": 0"), std::string::npos);
  EXPECT_NE(j1.find("\"legacy_distinguishable\": 1"), std::string::npos);
  EXPECT_NE(j1.find("\"secret_width\": 2"), std::string::npos);
  EXPECT_EQ(j1.find("\"sempe_distinguishable\": 1"), std::string::npos);
  // With the tier off, the schema still carries the stat keys, all not-run.
  EXPECT_NE(j1.find("\"legacy_stat_verdict\": \"not-run\""),
            std::string::npos);
  EXPECT_NE(j1.find("\"stat_pairs\": 0"), std::string::npos);
}

TEST(LeakageJobs, StatisticalVerdictsReachTheJson) {
  security::AuditOptions opt;
  opt.samples = 8;
  opt.stat_samples = 32;
  opt.stat_budget = 96;
  const auto jobs = sim::spec_grid<sim::AuditFamily>(
      {"crypto.modexp?width=3&iters=1&size=4&bits=8"}, opt);
  const auto json = [&](usize threads) {
    return sim::sweep_json<sim::AuditFamily>(
        "leakage", jobs,
        sim::run_sweep<sim::AuditFamily>(jobs, on_threads(threads)));
  };
  const std::string j1 = json(1);
  EXPECT_EQ(j1, json(4));
  EXPECT_NE(j1.find("\"legacy_stat_verdict\": \"leak\""), std::string::npos)
      << j1;
  EXPECT_NE(j1.find("\"sempe_stat_verdict\": \"no-evidence\""),
            std::string::npos)
      << j1;
  EXPECT_NE(j1.find("\"cte_stat_verdict\": \"no-evidence\""),
            std::string::npos)
      << j1;
  EXPECT_NE(j1.find("\"stat_pairs\": 96"), std::string::npos) << j1;
  EXPECT_NE(j1.find("\"legacy_stat_channels\": \""), std::string::npos);
  EXPECT_NE(j1.find("\"sempe_stat_samples\": 32"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Per-mode result checks in measure_workload (the un-folded results_ok).

TEST(WorkloadChecks, PerModeVerdictsAreRecorded) {
  const auto pt =
      sim::measure_workload("synthetic.stream?width=1&iters=1&size=64");
  EXPECT_TRUE(pt.results_ok);
  ASSERT_EQ(pt.checks.size(), 3u);  // legacy, sempe, cte
  for (const char* mode : {"legacy", "sempe", "cte"}) {
    const sim::ModeResultCheck* c = pt.check(mode);
    ASSERT_NE(c, nullptr) << mode;
    EXPECT_TRUE(c->ok);
    EXPECT_EQ(c->detail, "");
  }
  EXPECT_EQ(pt.check("bogus"), nullptr);
  EXPECT_EQ(pt.mismatch_summary(), "");

  const auto dj = sim::measure_workload("djpeg?pixels=4096&scale=16");
  EXPECT_FALSE(dj.has_cte);
  EXPECT_EQ(dj.checks.size(), 2u);  // no cte run
  EXPECT_EQ(dj.check("cte"), nullptr);
}

// ---------------------------------------------------------------------------
// Per-channel estimates (the grouping primitive the audit is built on).

TEST(ChannelEstimate, SingleChannelPartitionIgnoresOtherChannels) {
  ObservationTrace a, b, c;
  b.total_cycles = 5;
  b.mem_hash = 1;
  c.mem_hash = 1;
  const auto timing = estimate_channel({a, b, c}, Channel::kTiming);
  EXPECT_EQ(timing.num_classes, 2u);  // {a,c} vs {b}
  const auto mem = estimate_channel({a, b, c}, Channel::kMemory);
  EXPECT_EQ(mem.num_classes, 2u);     // {a} vs {b,c}
  const auto fetch = estimate_channel({a, b, c}, Channel::kFetch);
  EXPECT_TRUE(fetch.closed());
}

TEST(ChannelEstimate, UnrecordedTracesCarryNoObservation) {
  ObservationTrace a, b;
  b.total_cycles = 77;
  b.recorded = channel_bit(Channel::kFetch);  // timing not recorded
  const auto e = estimate_channel({a, b}, Channel::kTiming);
  EXPECT_EQ(e.num_traces, 1u);  // only `a` observes timing
  EXPECT_TRUE(e.closed());
}

}  // namespace
}  // namespace sempe::security
