// The sweep orchestration subsystem: content-address job keys
// (sim/job_key.h), the on-disk cache and the resume journal
// (sim/sweep_cache.h), the point codec (sim/sweep_codec.h), shard
// partitioning, and the byte-identity contract that ties them together —
// a sweep's --json output must not depend on thread count, cache
// temperature, or whether the run resumed from a killed journal, and a
// sharded sweep reassembles through the cache into the unsharded bytes.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "obs/report.h"
#include "sim/batch_runner.h"
#include "sim/job_key.h"
#include "sim/sweep_cache.h"
#include "sim/sweep_codec.h"
#include "util/check.h"

namespace sempe {
namespace {

namespace fs = std::filesystem;

using sim::BatchCli;
using sim::JobIdentity;
using sim::LeakageFamily;
using sim::SweepCache;
using sim::SweepJournal;
using sim::SweepOptions;
using sim::WorkloadFamily;
using sim::WorkloadJob;

/// The cache key of `job` as family F under fingerprint `fp`.
template <typename F>
std::string key(const typename F::Job& job, const std::string& fp = "fp") {
  return sim::job_identity<F>(job, fp).key();
}

// Fresh directory per test, removed on teardown.
class TempDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("sempe_sweep_") + info->test_suite_name() + "_" +
            info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& leaf) const {
    return (dir_ / leaf).string();
  }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// Job identity keys.

TEST(JobKey, PermutedSpecParamsShareOneKey) {
  EXPECT_EQ(sim::canonical_spec_key("synthetic.cond_branch?width=3&iters=2"),
            sim::canonical_spec_key("synthetic.cond_branch?iters=2&width=3"));
  sim::WorkloadJob a;
  a.label = "a";
  a.spec = "synthetic.ptr_chase?size=4096&stride=64";
  sim::WorkloadJob b;
  b.label = "a completely different label";
  b.spec = "synthetic.ptr_chase?stride=64&size=4096";
  EXPECT_EQ(key<sim::WorkloadFamily>(a), key<sim::WorkloadFamily>(b));
}

TEST(JobKey, LabelIsCosmetic) {
  WorkloadJob a;
  a.label = "one";
  a.spec = "micro.ones?width=2&iters=2&secrets=0";
  WorkloadJob b = a;
  b.label = "two";
  EXPECT_EQ(key<WorkloadFamily>(a), key<WorkloadFamily>(b));
}

TEST(JobKey, EveryIdentityFieldChangesTheKey) {
  const JobIdentity base{"workload", "micro.ones?width=2", "spm=64",
                         "legacy,sempe", 1, "fp"};
  std::vector<JobIdentity> variants(6, base);
  variants[0].family = "djpeg";
  variants[1].spec = "micro.ones?width=3";
  variants[2].machine = "spm=128";
  variants[3].modes = "legacy,sempe,cte";
  variants[4].schema_version = 2;
  variants[5].fingerprint = "other";
  std::set<std::string> keys = {base.key()};
  for (const JobIdentity& v : variants) {
    EXPECT_NE(v.key(), base.key()) << v.canonical_text();
    keys.insert(v.key());
  }
  EXPECT_EQ(keys.size(), 7u);  // all pairwise distinct, too
}

TEST(JobKey, MachineKnobsAndGridCoordinatesChangeTheKey) {
  WorkloadJob base;
  base.spec = "micro.ones?width=2&iters=2&secrets=0";
  const std::string k0 = key<WorkloadFamily>(base);

  WorkloadJob v = base;
  v.spec = "micro.fibonacci?width=2&iters=2&secrets=0";
  EXPECT_NE(key<WorkloadFamily>(v), k0);
  v.spec = "micro.ones?width=3&iters=2&secrets=0";
  EXPECT_NE(key<WorkloadFamily>(v), k0);
  v.spec = "micro.ones?width=2&iters=3&secrets=0";
  EXPECT_NE(key<WorkloadFamily>(v), k0);
  v = base;
  v.opt.snapshot_model = cpu::SnapshotModel::kLRS;
  EXPECT_NE(key<WorkloadFamily>(v), k0);
  v = base;
  v.opt.spm_bytes_per_cycle *= 2;
  EXPECT_NE(key<WorkloadFamily>(v), k0);
  v = base;
  v.opt.enable_prefetchers = !v.opt.enable_prefetchers;
  EXPECT_NE(key<WorkloadFamily>(v), k0);
  v = base;
  v.opt.extra_front_end_depth = 1;
  EXPECT_NE(key<WorkloadFamily>(v), k0);
  v = base;
  v.opt.rename_width_override = 4;
  EXPECT_NE(key<WorkloadFamily>(v), k0);
  v = base;
  v.legacy_only = true;
  EXPECT_NE(key<WorkloadFamily>(v), k0);
  EXPECT_NE(key<WorkloadFamily>(base, "fp2"), k0);
}

TEST(JobKey, LegacyOnlyJobsNarrowTheModeLineAlone) {
  // A legacy-only job (a Fig. 10b ideal) never shares a cache entry with
  // the full job of its spec, and the full job's key text is exactly the
  // text every earlier cache entry of that spec was keyed by.
  WorkloadJob full;
  full.label = "ones/W=1";
  full.spec = "micro.ones?width=1&iters=2&secrets=0";
  WorkloadJob legacy = full;
  legacy.legacy_only = true;
  const std::string machine =
      "machine=snapshot_model=0 spm_bytes_per_cycle=64 enable_prefetchers=1 "
      "extra_front_end_depth=0 rename_width_override=0\n";
  const std::string head =
      "family=workload\nspec=micro.ones?iters=2&secrets=0&width=1\n" +
      machine;
  const std::string tail = "schema=4\nfingerprint=fp\n";
  EXPECT_EQ(sim::job_identity<WorkloadFamily>(full, "fp").canonical_text(),
            head + "modes=legacy,sempe,cte\n" + tail);
  EXPECT_EQ(sim::job_identity<WorkloadFamily>(legacy, "fp").canonical_text(),
            head + "modes=legacy\n" + tail);
  EXPECT_NE(key<WorkloadFamily>(full), key<WorkloadFamily>(legacy));
}

TEST(JobKey, OptionsTheMeasurementIgnoresAreExcluded) {
  // AuditOptions::progress only steers stderr.
  sim::LeakageJob l;
  l.spec = "synthetic.cond_branch?width=2";
  sim::LeakageJob l2 = l;
  l2.opt.progress = !l2.opt.progress;
  EXPECT_EQ(key<LeakageFamily>(l), key<LeakageFamily>(l2));
  l2 = l;
  l2.opt.samples += 1;  // sample budget DOES shape the audit
  EXPECT_NE(key<LeakageFamily>(l2), key<LeakageFamily>(l));
}

TEST(JobKey, StatisticalTierOptionsShapeTheKey) {
  // Every statistical knob changes the verdicts, so each must miss the
  // cache rather than replay an audit computed under different settings.
  sim::LeakageJob base;
  base.spec = "synthetic.cond_branch?width=2";
  const std::string k0 = key<LeakageFamily>(base);

  sim::LeakageJob v = base;
  v.opt.stat_samples = 8;
  const std::string k_on = key<LeakageFamily>(v);
  EXPECT_NE(k_on, k0);
  v.opt.stat_budget = 64;
  EXPECT_NE(key<LeakageFamily>(v), k_on);
  v = base;
  v.opt.confidence = 3.0;
  EXPECT_NE(key<LeakageFamily>(v), k0);
}

TEST(JobKey, SchemaVersionBumpInvalidatesStaleCacheEntries) {
  // The schema version is part of the identity hash: entries cached by a
  // binary with the old point layout live under different keys, so the
  // new decoder can never be fed an old blob.
  sim::LeakageJob job;
  job.spec = "synthetic.cond_branch?width=2";
  const JobIdentity id = sim::job_identity<LeakageFamily>(job, "fp");
  EXPECT_EQ(id.schema_version, sim::kResultSchemaVersion);
  EXPECT_EQ(sim::kResultSchemaVersion, 4);  // the latest bump

  JobIdentity stale = id;
  stale.schema_version = 3;  // what a pre-bump binary would have hashed
  EXPECT_NE(stale.key(), id.key());
  EXPECT_NE(id.canonical_text().find("schema=4"), std::string::npos);
}

TEST(JobKey, TenantJobKeyCoversEveryExperimentCoordinate) {
  // The co-residence result depends on the victim sub-spec, the probe
  // shape, the scheduler quantum, the tenant count, and the audit budget;
  // each must land in the identity so no two distinct experiments share a
  // cache entry.
  sim::TenantJob base;
  base.spec =
      "attack.prime_probe?victim=crypto.modexp&width=2&size=8&bits=8"
      "&iters=2&quantum=2000";
  const std::string k0 = key<sim::TenantFamily>(base);

  sim::TenantJob v = base;  // a different victim kernel
  v.spec =
      "attack.prime_probe?victim=ds.hash_probe&width=2&size=8&bits=8"
      "&iters=2&quantum=2000";
  EXPECT_NE(key<sim::TenantFamily>(v), k0);

  v = base;  // a different attacker (probe style)
  v.spec =
      "attack.flush_reload?victim=crypto.modexp&width=2&size=8&bits=8"
      "&iters=2&quantum=2000";
  EXPECT_NE(key<sim::TenantFamily>(v), k0);

  v = base;  // a different victim shape under the same kernel
  v.spec =
      "attack.prime_probe?victim=crypto.modexp&width=2&size=8&bits=16"
      "&iters=2&quantum=2000";
  EXPECT_NE(key<sim::TenantFamily>(v), k0);

  v = base;  // a different scheduler quantum
  v.spec =
      "attack.prime_probe?victim=crypto.modexp&width=2&size=8&bits=8"
      "&iters=2&quantum=1500";
  EXPECT_NE(key<sim::TenantFamily>(v), k0);

  v = base;  // a different co-residence degree
  v.tenants = 3;
  EXPECT_NE(key<sim::TenantFamily>(v), k0);

  v = base;  // the audit budget shapes the result, like LeakageJob
  v.opt.samples += 1;
  EXPECT_NE(key<sim::TenantFamily>(v), k0);

  // Labels stay cosmetic and permuted params still share one key.
  v = base;
  v.label = "some other label";
  EXPECT_EQ(key<sim::TenantFamily>(v), k0);
  v = base;
  v.spec =
      "attack.prime_probe?quantum=2000&iters=2&bits=8&size=8&width=2"
      "&victim=crypto.modexp";
  EXPECT_EQ(key<sim::TenantFamily>(v), k0);
}

TEST(JobKey, KeyIsSixteenHexDigits) {
  WorkloadJob j;
  j.spec = "micro.ones?width=1";
  const std::string k = key<WorkloadFamily>(j);
  ASSERT_EQ(k.size(), 16u);
  for (const char c : k)
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << k;
}

// ---------------------------------------------------------------------------
// Cache and journal stores.

class SweepStoreTest : public TempDirTest {};

TEST_F(SweepStoreTest, CacheHitMissAndStaleFingerprint) {
  const std::string key = "00deadbeef001234";
  {
    const SweepCache cache(path("cache"), "fp-A");
    EXPECT_EQ(cache.lookup(key).status, SweepCache::Status::kMiss);
    EXPECT_TRUE(cache.store(key, "blob contents\nline 2\n"));
    const auto hit = cache.lookup(key);
    ASSERT_EQ(hit.status, SweepCache::Status::kHit);
    EXPECT_EQ(hit.blob, "blob contents\nline 2\n");
  }
  // Same entry under a different build fingerprint: stale, not a hit —
  // a recompile must never serve old results.
  const SweepCache other(path("cache"), "fp-B");
  EXPECT_EQ(other.lookup(key).status, SweepCache::Status::kStale);
}

TEST_F(SweepStoreTest, JournalReplaysItsPrefixAndDetectsTruncation) {
  const std::string jpath = path("sweep.journal");
  {
    SweepJournal j(jpath);
    EXPECT_EQ(j.replayed(), 0u);
    j.append("key-one", "first blob\n");
    j.append("key-two", "second blob\nwith two lines\n");
  }
  {
    SweepJournal j(jpath);
    EXPECT_EQ(j.replayed(), 2u);
    EXPECT_FALSE(j.truncated_tail());
    ASSERT_NE(j.find("key-one"), nullptr);
    EXPECT_EQ(*j.find("key-one"), "first blob\n");
    ASSERT_NE(j.find("key-two"), nullptr);
    EXPECT_EQ(*j.find("key-two"), "second blob\nwith two lines\n");
    EXPECT_EQ(j.find("key-three"), nullptr);
  }
  // Chop a few bytes off the end — the signature of a sweep killed
  // mid-append. The well-formed prefix survives; the torn record is
  // dropped and flagged.
  fs::resize_file(jpath, fs::file_size(jpath) - 3);
  SweepJournal j(jpath);
  EXPECT_EQ(j.replayed(), 1u);
  EXPECT_TRUE(j.truncated_tail());
  ASSERT_NE(j.find("key-one"), nullptr);
  EXPECT_EQ(j.find("key-two"), nullptr);
}

// ---------------------------------------------------------------------------
// Point codec: decode(encode(p)) must be *exactly* p, because cached
// points feed the byte-identity contract.

TEST(SweepCodec, MicrobenchRoundTripIsExact) {
  // A full micro.* point and a legacy-only one (a Fig. 10b ideal).
  for (const bool legacy_only : {false, true}) {
    const auto pt = sim::measure_workload(
        "micro.fibonacci?width=2&iters=2&secrets=0", {}, legacy_only);
    ASSERT_TRUE(pt.results_ok) << pt.mismatch_summary();
    const std::string blob = sim::encode_point<WorkloadFamily>(pt);
    const auto back = sim::decode_point<WorkloadFamily>(blob);
    EXPECT_EQ(sim::encode_point<WorkloadFamily>(back), blob);
    EXPECT_EQ(back.spec, pt.spec);
    EXPECT_EQ(back.baseline_cycles, pt.baseline_cycles);
    EXPECT_EQ(back.sempe_cycles, pt.sempe_cycles);
    EXPECT_EQ(back.checks.size(), legacy_only ? 1u : 3u);
  }
}

TEST(SweepCodec, LeakageRoundTripPreservesTheFullAudit) {
  security::AuditOptions opt;
  opt.samples = 2;
  const auto pt =
      sim::measure_leakage("synthetic.cond_branch?width=2&iters=1", opt);
  const std::string blob = sim::encode_point<LeakageFamily>(pt);
  const auto back = sim::decode_point<LeakageFamily>(blob);
  EXPECT_EQ(sim::encode_point<LeakageFamily>(back), blob);
  // to_string is what sempe_run --audit prints; a cache hit must print
  // the same report a fresh audit would.
  EXPECT_EQ(back.audit.to_string(), pt.audit.to_string());
}

TEST(SweepCodec, LeakageRoundTripIsBitExactWithTheStatisticalTier) {
  // The statistical fields are f64s (t, dof, effect, mi_bits) and must
  // survive the hexfloat codec bit-exactly: a cache hit has to replay the
  // same verdicts a fresh audit would compute, down to the last ulp.
  security::AuditOptions opt;
  opt.samples = 8;
  opt.stat_samples = 8;
  opt.stat_budget = 48;
  const auto pt = sim::measure_leakage(
      "crypto.modexp?width=3&iters=1&size=4&bits=8", opt);
  EXPECT_GT(pt.audit.stat_pairs, 0u);

  const std::string blob = sim::encode_point<LeakageFamily>(pt);
  const auto back = sim::decode_point<LeakageFamily>(blob);
  EXPECT_EQ(sim::encode_point<LeakageFamily>(back), blob);
  EXPECT_EQ(back.audit.stat_pairs, pt.audit.stat_pairs);
  ASSERT_EQ(back.audit.modes.size(), pt.audit.modes.size());
  bool saw_nonzero_t = false;
  for (usize mi = 0; mi < pt.audit.modes.size(); ++mi) {
    const auto& m = pt.audit.modes[mi];
    const auto& bm = back.audit.modes[mi];
    ASSERT_EQ(bm.channels.size(), m.channels.size()) << m.mode;
    for (usize ci = 0; ci < m.channels.size(); ++ci) {
      const security::ChannelStat& s = m.channels[ci].stat;
      const security::ChannelStat& bs = bm.channels[ci].stat;
      // operator== on ChannelStat compares the doubles exactly.
      EXPECT_EQ(bs, s) << m.mode;
      saw_nonzero_t = saw_nonzero_t || s.t != 0.0;
    }
  }
  // The exactness claim is vacuous unless some statistic is a real
  // nontrivial double (legacy modexp timing guarantees one).
  EXPECT_TRUE(saw_nonzero_t);
  EXPECT_EQ(back.audit.to_string(), pt.audit.to_string());
}

TEST(SweepCodec, TenantRoundTripPreservesKeyRecoveryBitExactly) {
  // The schema-v3 recovery fields must survive the codec bit-exactly —
  // the counters as decimal u64s and the derived recovery-rate doubles
  // (leaked through the f64 hexfloat path for every statistic) down to
  // the last ulp — so a cache hit replays the same gate verdict a fresh
  // two-tenant run would compute.
  security::AuditOptions opt;
  opt.samples = 2;
  const auto pt = sim::measure_tenant(
      "attack.prime_probe?victim=crypto.modexp&width=2&size=8&bits=8&iters=2",
      opt);
  const security::ModeAudit* legacy = pt.audit.mode("legacy");
  ASSERT_NE(legacy, nullptr);
  EXPECT_TRUE(legacy->attack);
  EXPECT_GT(legacy->key_bits_total, 0u);

  const std::string blob = sim::encode_point<sim::TenantFamily>(pt);
  const auto back = sim::decode_point<sim::TenantFamily>(blob);
  EXPECT_EQ(sim::encode_point<sim::TenantFamily>(back), blob);
  ASSERT_EQ(back.audit.modes.size(), pt.audit.modes.size());
  for (usize mi = 0; mi < pt.audit.modes.size(); ++mi) {
    const security::ModeAudit& m = pt.audit.modes[mi];
    const security::ModeAudit& bm = back.audit.modes[mi];
    EXPECT_EQ(bm.attack, m.attack) << m.mode;
    EXPECT_EQ(bm.key_bits_total, m.key_bits_total) << m.mode;
    EXPECT_EQ(bm.key_bits_recovered, m.key_bits_recovered) << m.mode;
    EXPECT_EQ(bm.recovery_rate(), m.recovery_rate()) << m.mode;
  }
  EXPECT_EQ(back.audit.to_string(), pt.audit.to_string());
  // A tenant blob must not decode as a leakage point (family header).
  EXPECT_THROW(sim::decode_point<LeakageFamily>(blob), SimError);
  // And the tenant path refuses non-attack workloads outright.
  EXPECT_THROW(sim::measure_tenant("micro.ones?width=1&iters=1"), SimError);
}

TEST(SweepCodec, WorkloadStatsMatchDirectRunsAndRoundTrip) {
  // Each mode's stats are those of a direct sim::run of the same built
  // program and mode, the bare totals copy them, and the codec carries
  // them exactly: Fig. 9's miss rates read these stats.
  using workloads::Variant;
  const auto counters = [](const pipeline::PipelineStats& s) {
    return s.export_stats().counters();
  };
  for (const std::string spec :
       {"djpeg?pixels=4096&scale=16",
        "synthetic.cond_branch?size=32&width=1&iters=1",
        "crypto.modexp?width=2&secrets=10&iters=2"}) {
    const sim::WorkloadPoint pt = sim::measure_workload(spec);
    ASSERT_TRUE(pt.results_ok) << spec << ": " << pt.mismatch_summary();
    const sim::WorkloadPoint back = sim::decode_point<sim::WorkloadFamily>(
        sim::encode_point<sim::WorkloadFamily>(pt));
    const workloads::WorkloadSpec parsed = workloads::WorkloadSpec::parse(spec);
    const auto& gen =
        workloads::WorkloadRegistry::instance().resolve(parsed.name);
    EXPECT_EQ(pt.has_cte, parsed.name != "djpeg") << spec;

    struct Mode {
      const char* name;
      Variant variant;
      cpu::ExecMode exec;
      const pipeline::PipelineStats& stats;
      const pipeline::PipelineStats& decoded;
      Cycle cycles;
      u64 instructions;
    };
    const Mode modes[] = {
        {"legacy", Variant::kSecure, cpu::ExecMode::kLegacy,
         pt.baseline_stats, back.baseline_stats, pt.baseline_cycles,
         pt.baseline_instructions},
        {"sempe", Variant::kSecure, cpu::ExecMode::kSempe, pt.sempe_stats,
         back.sempe_stats, pt.sempe_cycles, pt.sempe_instructions},
        {"cte", Variant::kCte, cpu::ExecMode::kLegacy, pt.cte_stats,
         back.cte_stats, pt.cte_cycles, pt.cte_instructions},
    };
    for (const Mode& m : modes) {
      const std::string at = spec + " [" + m.name + "]";
      pipeline::PipelineStats direct;  // stays zero for a mode not run
      if (m.variant == Variant::kSecure || pt.has_cte) {
        sim::RunConfig rc;
        rc.core.mode = m.exec;
        const sim::RunResult r =
            sim::run(gen.build(parsed, m.variant).program, rc);
        EXPECT_EQ(r.instructions, r.stats.instructions) << at;
        direct = r.stats;
      }
      EXPECT_EQ(counters(m.stats), counters(direct)) << at;
      EXPECT_EQ(m.cycles, m.stats.cycles) << at;
      EXPECT_EQ(m.instructions, m.stats.instructions) << at;
      EXPECT_EQ(counters(m.decoded), counters(m.stats)) << at;
    }
  }
}

TEST(SweepCodec, CorruptBlobsThrow) {
  EXPECT_THROW(sim::decode_point<WorkloadFamily>(""), SimError);
  EXPECT_THROW(sim::decode_point<WorkloadFamily>("not a point blob\n"),
               SimError);
  // A valid header of the wrong family must fail loudly, not mis-decode.
  const auto pt =
      sim::measure_workload("micro.ones?width=1&iters=1&secrets=0");
  const std::string blob = sim::encode_point<WorkloadFamily>(pt);
  EXPECT_THROW(sim::decode_point<LeakageFamily>(blob), SimError);
  // A missing field fails too.
  std::string truncated = blob.substr(0, blob.rfind("u cte_instructions"));
  EXPECT_THROW(sim::decode_point<WorkloadFamily>(truncated), SimError);
  // So does an out-of-range enum.
  security::AuditOptions opt;
  opt.samples = 2;
  const std::string audit = sim::encode_point<LeakageFamily>(
      sim::measure_leakage("synthetic.cond_branch?size=32&width=1&iters=1",
                           opt));
  const std::string field = "u audit.modes.0.channels.0.channel ";
  std::string bad_enum = audit;
  const usize at = bad_enum.find(field);
  ASSERT_NE(at, std::string::npos);
  bad_enum.replace(at + field.size(), 1, "99");
  EXPECT_NO_THROW(sim::decode_point<LeakageFamily>(audit));
  EXPECT_THROW(sim::decode_point<LeakageFamily>(bad_enum), SimError);
}

// ---------------------------------------------------------------------------
// Orchestrated sweeps: cache temperature, resume.

std::vector<WorkloadJob> small_grid() {
  std::vector<WorkloadJob> jobs;
  for (const char* kind : {"ones", "fibonacci"})
    for (const char* w : {"1", "2"})
      jobs.push_back({std::string(kind) + "/W=" + w,
                      std::string("micro.") + kind + "?width=" + w +
                          "&iters=2&secrets=0"});
  return jobs;
}

class SweepOrchestrationTest : public TempDirTest {};

TEST_F(SweepOrchestrationTest, WarmCacheIsByteIdenticalAndCounted) {
  const auto jobs = small_grid();
  const std::string plain = sim::sweep_json<WorkloadFamily>(
      "orch", jobs, sim::run_sweep<WorkloadFamily>(jobs, {}));

  SweepOptions opt;
  opt.threads = 2;
  opt.cache_dir = path("cache");
  const auto cold = sim::run_sweep<WorkloadFamily>(jobs, opt);
  EXPECT_EQ(cold.cache.hits, 0u);
  EXPECT_EQ(cold.cache.misses, jobs.size());
  EXPECT_EQ(cold.cache.stores, jobs.size());
  EXPECT_EQ(sim::sweep_json<WorkloadFamily>("orch", jobs, cold), plain);

  const auto warm = sim::run_sweep<WorkloadFamily>(jobs, opt);
  EXPECT_EQ(warm.cache.hits, jobs.size());
  EXPECT_EQ(warm.cache.misses, 0u);
  EXPECT_EQ(warm.cache.stores, 0u);
  EXPECT_EQ(sim::sweep_json<WorkloadFamily>("orch", jobs, warm), plain);
}

TEST_F(SweepOrchestrationTest, StaleFingerprintEntriesAreReExecuted) {
  const auto jobs = small_grid();

  // The fingerprint is part of the job key, so a rebuild simply misses at
  // a fresh key — old entries are never even consulted.
  SweepOptions before;
  before.cache_dir = path("cache");
  before.fingerprint = "build-one";
  (void)sim::run_sweep<WorkloadFamily>(jobs, before);
  SweepOptions after = before;
  after.fingerprint = "build-two";
  const auto rebuilt = sim::run_sweep<WorkloadFamily>(jobs, after);
  EXPECT_EQ(rebuilt.cache.hits, 0u);
  EXPECT_EQ(rebuilt.cache.misses, jobs.size());
  EXPECT_EQ(rebuilt.cache.stores, jobs.size());

  // The header check is the second line of defense: an entry copied in
  // under a MATCHING key but produced by a different build must be
  // reported stale and re-executed, never served.
  const SweepCache imposter(path("cache"), "some-other-build");
  EXPECT_TRUE(imposter.store(key<WorkloadFamily>(jobs[0], "build-two"),
                             "bogus payload\n"));
  const auto poisoned = sim::run_sweep<WorkloadFamily>(jobs, after);
  EXPECT_EQ(poisoned.cache.stale, 1u);
  EXPECT_EQ(poisoned.cache.hits, jobs.size() - 1);
  // ...and the re-execution repaired the poisoned entry in place.
  const auto warm = sim::run_sweep<WorkloadFamily>(jobs, after);
  EXPECT_EQ(warm.cache.hits, jobs.size());
  EXPECT_EQ(warm.cache.stale, 0u);
}

TEST_F(SweepOrchestrationTest, ResumeAfterKilledJournalIsByteIdentical) {
  const auto jobs = small_grid();
  const std::string fresh = sim::sweep_json<WorkloadFamily>(
      "orch", jobs, sim::run_sweep<WorkloadFamily>(jobs, {}));

  SweepOptions opt;
  opt.journal_path = path("sweep.journal");
  (void)sim::run_sweep<WorkloadFamily>(jobs, opt);

  // Kill simulation: tear bytes off the journal tail, losing one record.
  const auto full_size = fs::file_size(opt.journal_path);
  fs::resize_file(opt.journal_path, full_size - 4);

  const auto resumed = sim::run_sweep<WorkloadFamily>(jobs, opt);
  EXPECT_EQ(resumed.cache.journal_hits, jobs.size() - 1);
  EXPECT_EQ(resumed.cache.misses, 1u);
  EXPECT_EQ(sim::sweep_json<WorkloadFamily>("orch", jobs, resumed), fresh);

  // The resumed run re-journaled the lost record: a third run replays
  // everything and executes nothing.
  const auto replayed = sim::run_sweep<WorkloadFamily>(jobs, opt);
  EXPECT_EQ(replayed.cache.journal_hits, jobs.size());
  EXPECT_EQ(sim::sweep_json<WorkloadFamily>("orch", jobs, replayed), fresh);
}

TEST_F(SweepOrchestrationTest, CacheHitSupersedesACorruptJournalRecord) {
  // A journal record that fails to decode falls through to the cache. The
  // cache hit must be mirrored into the journal, so a later resume replays
  // every job even after the cache is gone.
  const auto jobs = small_grid();
  SweepOptions opt;
  opt.cache_dir = path("cache");
  opt.journal_path = path("sweep.journal");
  (void)sim::run_sweep<WorkloadFamily>(jobs, opt);

  // Break the first record's blob header in place; the framing survives.
  std::string text;
  {
    std::ifstream in(opt.journal_path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  const auto at = text.find("sempe-point 1 ");
  ASSERT_NE(at, std::string::npos);
  text[at] = 'X';
  std::ofstream(opt.journal_path, std::ios::binary) << text;

  const auto repaired = sim::run_sweep<WorkloadFamily>(jobs, opt);
  EXPECT_EQ(repaired.cache.corrupt, 1u);
  EXPECT_EQ(repaired.cache.hits, 1u);
  EXPECT_EQ(repaired.cache.journal_hits, jobs.size() - 1);

  fs::remove_all(opt.cache_dir);
  const auto resumed = sim::run_sweep<WorkloadFamily>(jobs, opt);
  EXPECT_EQ(resumed.cache.journal_hits, jobs.size());
  EXPECT_EQ(resumed.cache.stores, 0u);  // nothing executed
  EXPECT_EQ(sim::sweep_json<WorkloadFamily>("orch", jobs, resumed),
            sim::sweep_json<WorkloadFamily>("orch", jobs, repaired));
}

TEST_F(SweepOrchestrationTest, TenantWarmCacheJsonIsByteIdentical) {
  // The byte-identity contract extends to the new tenant family: a warm
  // cache must replay the exact gate flags and recovery rates of the cold
  // two-tenant run.
  security::AuditOptions aopt;
  aopt.samples = 2;
  const auto jobs = sim::tenant_grid(
      {"attack.prime_probe?victim=crypto.modexp&width=2&size=8&bits=8"
       "&iters=2"},
      aopt);
  SweepOptions opt;
  opt.cache_dir = path("cache");
  const auto cold = sim::run_sweep<sim::TenantFamily>(jobs, opt);
  EXPECT_EQ(cold.cache.misses, jobs.size());
  const std::string fresh = sim::sweep_json<sim::TenantFamily>("tenants", jobs, cold);
  EXPECT_NE(fresh.find("\"legacy_recovery_above_chance\": 1"),
            std::string::npos);
  EXPECT_NE(fresh.find("\"sempe_at_chance\": 1"), std::string::npos);
  EXPECT_NE(fresh.find("\"cte_at_chance\": 1"), std::string::npos);

  const auto warm = sim::run_sweep<sim::TenantFamily>(jobs, opt);
  EXPECT_EQ(warm.cache.hits, jobs.size());
  EXPECT_EQ(sim::sweep_json<sim::TenantFamily>("tenants", jobs, warm), fresh);
}

// ---------------------------------------------------------------------------
// Duplicate jobs: a sweep resolves each distinct job key once and hands
// the point to every job that shares the key.

/// `jobs`, then every job again under a second label.
template <typename Job>
std::vector<Job> doubled(std::vector<Job> jobs) {
  const usize n = jobs.size();
  for (usize k = 0; k < n; ++k) {
    Job twin = jobs[k];
    twin.label += "/again";
    jobs.push_back(std::move(twin));
  }
  return jobs;
}

class SweepDedupTest : public TempDirTest {
 protected:
  template <typename F>
  void expect_each_key_runs_once(const std::vector<typename F::Job>& jobs) {
    const usize distinct = jobs.size() / 2;
    SweepOptions opt;
    opt.threads = 2;
    opt.cache_dir = path("cache");
    obs::Session::Options oopt;
    oopt.metrics = true;
    obs::Session session(oopt);
    sim::SweepRun<typename F::Point> cold;
    {
      const obs::ScopedSession scoped(&session);
      cold = sim::run_sweep<F>(jobs, opt);
    }
    EXPECT_EQ(cold.cache.misses, distinct);
    EXPECT_EQ(cold.cache.stores, distinct);
    const auto merged = session.metrics().merged();
    const auto completed = merged.counters().find("jobs.completed");
    ASSERT_NE(completed, merged.counters().end());
    EXPECT_EQ(completed->second, distinct);
    const std::string doc = sim::sweep_json<F>("dup", jobs, cold);
    EXPECT_NE(doc.find("/again"), std::string::npos);

    const auto warm = sim::run_sweep<F>(jobs, opt);
    EXPECT_EQ(warm.cache.hits, distinct);
    EXPECT_EQ(warm.cache.stores, 0u);
    EXPECT_EQ(sim::sweep_json<F>("dup", jobs, warm), doc);

    // No cache and no journal: the same planning pass, the same document.
    EXPECT_EQ(sim::sweep_json<F>("dup", jobs, sim::run_sweep<F>(jobs, {})),
              doc);
  }
};

TEST_F(SweepDedupTest, MicrobenchDuplicatesRunOnce) {
  expect_each_key_runs_once<WorkloadFamily>(doubled(small_grid()));
}

TEST_F(SweepDedupTest, TenantDuplicatesRunOnce) {
  security::AuditOptions aopt;
  aopt.samples = 2;
  expect_each_key_runs_once<sim::TenantFamily>(doubled(sim::tenant_grid(
      {"attack.prime_probe?victim=crypto.modexp&width=2&size=8&bits=8"
       "&iters=2"},
      aopt)));
}

// ---------------------------------------------------------------------------
// Shards: a job filter whose results the cache reassembles.

/// The jobs --shard=index/count keeps of `jobs`.
template <typename Job>
std::vector<Job> shard_of(std::vector<Job> jobs, usize index, usize count) {
  BatchCli cli;
  cli.shard_index = index;
  cli.shard_count = count;
  sim::apply_job_filter(jobs, cli);
  return jobs;
}

TEST(SweepShard, PartitionIsExactAndDeterministic) {
  const auto jobs = small_grid();
  std::set<std::string> seen;
  for (usize s = 0; s < 3; ++s) {
    const auto shard = shard_of(jobs, s, 3);
    EXPECT_EQ(shard.size(), (jobs.size() - s + 2) / 3);
    for (usize k = 0; k < shard.size(); ++k) {
      EXPECT_EQ(shard[k].label, jobs[s + 3 * k].label);  // round-robin
      EXPECT_TRUE(seen.insert(shard[k].label).second)
          << shard[k].label << " is in two shards";
    }
  }
  EXPECT_EQ(seen.size(), jobs.size());
}

TEST(SweepShard, ShardsTheJobsThatSurviveTheRegex) {
  BatchCli cli;
  cli.jobs_regex = "/W=1$";
  cli.shard_index = 1;
  cli.shard_count = 2;
  auto jobs = small_grid();  // ones/W=1 ones/W=2 fibonacci/W=1 fibonacci/W=2
  sim::apply_job_filter(jobs, cli);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].label, "fibonacci/W=1");
}

class SweepShardTest : public TempDirTest {
 protected:
  /// Run `jobs` as `count` shards, each into its own cache directory, copy
  /// the directories into one, and rerun the full list against it: every
  /// job must be a cache hit, and the document must be `cold`'s bytes.
  template <typename F>
  void expect_reassembles(const std::vector<typename F::Job>& jobs,
                          usize count, const std::string& cold) {
    const std::string merged = path("merged" + std::to_string(count));
    for (usize s = 0; s < count; ++s) {
      SweepOptions opt;
      opt.threads = 2;
      opt.cache_dir = path("shard" + std::to_string(count) + "_" +
                           std::to_string(s));
      const auto shard = shard_of(jobs, s, count);
      const auto run = sim::run_sweep<F>(shard, opt);
      EXPECT_EQ(run.cache.misses, shard.size());
      fs::copy(opt.cache_dir, merged,
               fs::copy_options::recursive | fs::copy_options::skip_existing);
    }
    SweepOptions full;
    full.threads = 2;
    full.cache_dir = merged;
    const auto run = sim::run_sweep<F>(jobs, full);
    EXPECT_EQ(run.cache.misses, 0u);
    EXPECT_EQ(run.cache.hits, jobs.size());
    EXPECT_EQ(run.cache.stores, 0u);  // nothing executed
    EXPECT_EQ(sim::sweep_json<F>("orch", jobs, run), cold);
  }
};

TEST_F(SweepShardTest, CacheReassemblesMicrobenchShards) {
  const auto jobs = small_grid();
  const std::string cold = sim::sweep_json<WorkloadFamily>(
      "orch", jobs, sim::run_sweep<WorkloadFamily>(jobs, {}));
  expect_reassembles<WorkloadFamily>(jobs, 2, cold);
  expect_reassembles<WorkloadFamily>(jobs, 3, cold);
}

TEST_F(SweepShardTest, CacheReassemblesTenantShards) {
  security::AuditOptions aopt;
  aopt.samples = 2;
  const auto jobs = sim::tenant_grid(
      {"attack.prime_probe?victim=crypto.modexp&width=2&size=8&bits=8"
       "&iters=2",
       "attack.flush_reload?victim=crypto.modexp&width=2&size=8&bits=8"
       "&iters=2",
       "attack.prime_probe?victim=crypto.modexp&width=1&size=8&bits=8"
       "&iters=2"},
      aopt);
  const std::string cold = sim::sweep_json<sim::TenantFamily>(
      "orch", jobs, sim::run_sweep<sim::TenantFamily>(jobs, {}));
  expect_reassembles<sim::TenantFamily>(jobs, 2, cold);
  expect_reassembles<sim::TenantFamily>(jobs, 3, cold);
}

// ---------------------------------------------------------------------------
// CLI surface.

std::vector<char*> make_argv(std::vector<std::string>& store) {
  std::vector<char*> argv;
  argv.reserve(store.size());
  for (std::string& s : store) argv.push_back(s.data());
  return argv;
}

BatchCli parse(std::vector<std::string> store) {
  std::vector<char*> argv = make_argv(store);
  int argc = static_cast<int>(argv.size());
  return sim::parse_batch_cli(argc, argv.data());
}

TEST(BatchCliSweep, ParsesOrchestrationFlags) {
  const BatchCli cli = parse({"bench", "--shard=1/3", "--cache-dir=/tmp/c",
                              "--journal=/tmp/j", "--jobs=fib.*W=2"});
  EXPECT_TRUE(cli.ok);
  EXPECT_EQ(cli.shard_index, 1u);
  EXPECT_EQ(cli.shard_count, 3u);
  EXPECT_EQ(cli.sweep.cache_dir, "/tmp/c");
  EXPECT_EQ(cli.sweep.journal_path, "/tmp/j");
  EXPECT_EQ(cli.jobs_regex, "fib.*W=2");

}

TEST(BatchCliSweep, RejectsMalformedOrchestrationFlags) {
  EXPECT_FALSE(parse({"bench", "--shard=3/3"}).ok);   // index out of range
  EXPECT_FALSE(parse({"bench", "--shard=0/0"}).ok);
  EXPECT_FALSE(parse({"bench", "--shard=banana"}).ok);
  EXPECT_FALSE(parse({"bench", "--cache-dir="}).ok);
  EXPECT_FALSE(parse({"bench", "--journal="}).ok);
  EXPECT_FALSE(parse({"bench", "--jobs=[unclosed"}).ok);  // invalid regex
}

TEST(BatchCliSweep, JobsRegexFiltersByLabel) {
  BatchCli cli;
  cli.jobs_regex = "fibonacci/W=1$";
  auto jobs = small_grid();
  const usize before = jobs.size();
  sim::apply_job_filter(jobs, cli);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_NE(jobs[0].label.find("fibonacci"), std::string::npos);
  // An empty regex keeps everything.
  auto all = small_grid();
  sim::apply_job_filter(all, BatchCli{});
  EXPECT_EQ(all.size(), before);
}

TEST(BatchCliSweep, FilteredSweepJsonContainsOnlyMatchingLabels) {
  BatchCli cli;
  cli.jobs_regex = "ones";
  auto jobs = small_grid();
  sim::apply_job_filter(jobs, cli);
  const std::string json = sim::sweep_json<WorkloadFamily>(
      "orch", jobs, sim::run_sweep<WorkloadFamily>(jobs, {}));
  EXPECT_NE(json.find("ones"), std::string::npos);
  EXPECT_EQ(json.find("fibonacci"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The run_indexed_labeled exception path (the satellite fix): a throwing
// job must record jobs.failed and still rethrow.

TEST(RunIndexedLabeled, FailureIsCountedBeforeTheRethrow) {
  obs::Session::Options oopt;
  oopt.metrics = true;
  obs::Session session(oopt);
  {
    const obs::ScopedSession scoped(&session);
    const auto boom = [](usize i) -> usize {
      SEMPE_CHECK_MSG(i != 2, "job " << i << " exploded");
      return i;
    };
    const auto label_of = [](usize i) {
      return "job/" + std::to_string(i);
    };
    EXPECT_THROW(sim::run_indexed_labeled(4, 1, boom, label_of), SimError);
  }
  const auto merged = session.metrics().merged();
  const auto& counters = merged.counters();
  const auto failed = counters.find("jobs.failed");
  ASSERT_NE(failed, counters.end());
  EXPECT_EQ(failed->second, 1u);
  const auto completed = counters.find("jobs.completed");
  ASSERT_NE(completed, counters.end());
  EXPECT_EQ(completed->second, 2u);  // jobs 0 and 1 retired before the throw
}

TEST_F(SweepOrchestrationTest, SweepExportsCacheMetrics) {
  const auto jobs = small_grid();
  SweepOptions opt;
  opt.cache_dir = path("cache");
  (void)sim::run_sweep<WorkloadFamily>(jobs, opt);  // cold: fill the cache

  obs::Session::Options oopt;
  oopt.metrics = true;
  obs::Session session(oopt);
  {
    const obs::ScopedSession scoped(&session);
    (void)sim::run_sweep<WorkloadFamily>(jobs, opt);
  }
  const auto merged = session.metrics().merged();
  const auto& counters = merged.counters();
  const auto hits = counters.find("sweep.cache_hits");
  ASSERT_NE(hits, counters.end());
  EXPECT_EQ(hits->second, jobs.size());
}

}  // namespace
}  // namespace sempe
