// The observability subsystem (src/obs/): histogram bucket math, shard
// merging (including under a real thread pool), trace-event JSON
// well-formedness and bounded-ring balance, report rendering/stripping,
// and — the property everything else leans on — that an absent session
// perturbs nothing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace_event.h"
#include "sim/batch_runner.h"
#include "sim/experiment.h"

namespace sempe::obs {
namespace {

/// Sweep options with only the worker count set.
sim::SweepOptions on_threads(usize n) {
  sim::SweepOptions opt;
  opt.threads = n;
  return opt;
}

// Minimal structural JSON check: strings respected, braces/brackets
// balanced, never negative. Not a full parser — CI runs python3 -m
// json.tool over real outputs; this keeps the unit test dependency-free.
bool json_balanced(const std::string& s) {
  int depth = 0;
  bool in_string = false, escaped = false;
  for (const char c : s) {
    if (in_string) {
      if (escaped)
        escaped = false;
      else if (c == '\\')
        escaped = true;
      else if (c == '"')
        in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (depth < 0) return false;
  }
  return depth == 0 && !in_string;
}

usize count_of(const std::string& s, const std::string& needle) {
  usize n = 0;
  for (usize pos = s.find(needle); pos != std::string::npos;
       pos = s.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 is the value 0; bucket b covers [2^(b-1), 2^b - 1].
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Histogram::bucket_of(~0ull), 64u);
  for (usize b = 0; b < kHistogramBuckets; ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(b)), b) << b;
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_hi(b)), b) << b;
  }
  // Adjacent buckets tile the u64 range with no gap or overlap.
  for (usize b = 1; b < kHistogramBuckets; ++b)
    EXPECT_EQ(Histogram::bucket_hi(b - 1) + 1, Histogram::bucket_lo(b)) << b;
}

TEST(Histogram, RecordAndAccessors) {
  Histogram h;
  for (const u64 v : {0ull, 1ull, 3ull, 8ull, 8ull}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 20u);
  EXPECT_EQ(h.max(), 8u);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(4), 2u);
}

TEST(Histogram, MergeIsAssociativeAndCommutative) {
  const auto fill = [](Histogram& h, u64 seed) {
    for (u64 i = 0; i < 50; ++i) h.record(seed * 7919 + i * i);
  };
  Histogram a, b, c;
  fill(a, 1);
  fill(b, 2);
  fill(c, 3);

  Histogram ab_c = a;   // (a + b) + c
  ab_c.merge(b);
  ab_c.merge(c);
  Histogram bc = b;     // a + (b + c)
  bc.merge(c);
  Histogram a_bc = a;
  a_bc.merge(bc);
  Histogram cba = c;    // c + b + a (commuted)
  cba.merge(b);
  cba.merge(a);

  for (const Histogram* h : {&a_bc, &cba}) {
    EXPECT_EQ(h->count(), ab_c.count());
    EXPECT_EQ(h->sum(), ab_c.sum());
    EXPECT_EQ(h->max(), ab_c.max());
    for (usize bk = 0; bk < kHistogramBuckets; ++bk)
      EXPECT_EQ(h->bucket_count(bk), ab_c.bucket_count(bk)) << bk;
  }
}

TEST(MetricShard, ImportStatsPreservesGaugeness) {
  StatSet s;
  s.add("events", 10);
  s.set("high_water", 7);
  MetricShard shard;
  shard.import_stats("x.", s);
  StatSet s2;
  s2.add("events", 5);
  s2.set("high_water", 3);
  shard.import_stats("x.", s2);
  // Counter summed, gauge maxed.
  EXPECT_EQ(shard.counters().at("x.events"), 15u);
  EXPECT_EQ(shard.gauges().at("x.high_water"), 7u);
}

TEST(MetricRegistry, ShardMergeUnderThreadPool) {
  constexpr usize kJobs = 100;
  MetricRegistry reg;
  sim::run_indexed(kJobs, 8, [&](usize i) {
    MetricShard& shard = reg.local();
    shard.add("jobs");
    shard.add("work", i);
    shard.set("max_index", i);
    shard.hist("sizes").record(i);
    return 0;
  });
  const MetricShard m = reg.merged();
  EXPECT_EQ(m.counters().at("jobs"), kJobs);
  EXPECT_EQ(m.counters().at("work"), kJobs * (kJobs - 1) / 2);
  EXPECT_EQ(m.gauges().at("max_index"), kJobs - 1);
  EXPECT_EQ(m.histograms().at("sizes").count(), kJobs);
  EXPECT_EQ(m.histograms().at("sizes").sum(), kJobs * (kJobs - 1) / 2);
}

TEST(TraceSession, JsonIsWellFormedAndBalanced) {
  TraceSession t;
  // Spans from several threads, nested, with instants sprinkled in.
  sim::run_indexed(16, 4, [&](usize i) {
    t.begin("job", "queue_wait_us", i);
    t.begin("inner \"quoted\"\n");
    t.instant("tick");
    t.end("inner \"quoted\"\n");
    t.end("job");
    return 0;
  });
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_EQ(t.event_count(), 16u * 5u);
  const std::string json = t.to_json();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_EQ(count_of(json, "\"ph\": \"B\""), count_of(json, "\"ph\": \"E\""));
  EXPECT_EQ(count_of(json, "\"ph\": \"i\""), 16u);
  EXPECT_NE(json.find("\"queue_wait_us\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\": 0"), std::string::npos);
}

TEST(TraceSession, OverflowDropsSpansBalanced) {
  TraceSession t(/*capacity_per_thread=*/4);
  for (usize i = 0; i < 10; ++i) {
    t.begin("span");
    t.instant("tick");
    t.end("span");
  }
  EXPECT_GT(t.dropped(), 0u);
  const std::string json = t.to_json();
  EXPECT_TRUE(json_balanced(json)) << json;
  // Every retained begin still has its end — dropping swallowed the pairs.
  EXPECT_EQ(count_of(json, "\"ph\": \"B\""), count_of(json, "\"ph\": \"E\""));
  EXPECT_EQ(json.find("\"dropped_events\": 0"), std::string::npos);
}

TEST(Report, RenderAndStripTiming) {
  Session::Options opt;
  opt.metrics = true;
  Session s(opt);
  s.metrics().local().add("sim.runs", 3);
  s.metrics().local().set("mem.high_water", 9);
  s.metrics().local().hist("sim.load_latency_cycles").record(12);
  s.timing().local().add("sweep.wall_ns", 123456789);
  s.timing().local().hist("job.execute_ns").record(1000);

  const std::string report = render_report("unit", s);
  EXPECT_TRUE(json_balanced(report)) << report;
  EXPECT_NE(report.find("\"experiment\": \"unit\""), std::string::npos);
  EXPECT_NE(report.find("\"sweep.wall_ns\""), std::string::npos);
  EXPECT_NE(report.find("\"sim.runs\": 3"), std::string::npos);

  const std::string stripped = strip_report_timing(report);
  EXPECT_TRUE(json_balanced(stripped)) << stripped;
  // The whole host-timing section is gone; the deterministic metrics stay.
  EXPECT_EQ(stripped.find("\"timing\""), std::string::npos);
  EXPECT_EQ(stripped.find("\"sweep.wall_ns\""), std::string::npos);
  EXPECT_EQ(stripped.find("\"job.execute_ns\""), std::string::npos);
  EXPECT_NE(stripped.find("\"metrics\""), std::string::npos);
  EXPECT_NE(stripped.find("\"sim.runs\": 3"), std::string::npos);
  EXPECT_NE(stripped.find("\"mem.high_water\": 9"), std::string::npos);
  EXPECT_NE(stripped.find("\"sim.load_latency_cycles\""), std::string::npos);
}

TEST(Session, InstallAndScopedUninstall) {
  EXPECT_EQ(session(), nullptr);
  Session s(Session::Options{});
  {
    const ScopedSession scope(&s);
    EXPECT_EQ(session(), &s);
  }
  EXPECT_EQ(session(), nullptr);
}

// The load-bearing property: simulated results are bit-identical whether
// or not an observability session is collecting. The session only ever
// reads simulated quantities — it must never feed back into them.
TEST(Session, ObservationDoesNotPerturbSimulation) {
  const std::string spec = "synthetic.cond_branch?size=32&width=1&iters=1";
  const sim::WorkloadPoint plain = sim::measure_workload(spec, {});

  Session::Options opt;
  opt.metrics = true;
  opt.trace = true;
  Session s(opt);
  sim::WorkloadPoint observed;
  {
    const ScopedSession scope(&s);
    observed = sim::measure_workload(spec, {});
  }

  EXPECT_EQ(observed.baseline_cycles, plain.baseline_cycles);
  EXPECT_EQ(observed.sempe_cycles, plain.sempe_cycles);
  EXPECT_EQ(observed.cte_cycles, plain.cte_cycles);
  EXPECT_EQ(observed.baseline_instructions, plain.baseline_instructions);
  EXPECT_EQ(observed.sempe_instructions, plain.sempe_instructions);
  EXPECT_TRUE(observed.results_ok);
  // And the session did observe the runs it watched.
  const MetricShard m = s.metrics().merged();
  EXPECT_GT(m.counters().at("sim.detailed_runs"), 0u);
  EXPECT_GT(m.histograms().at("sim.load_latency_cycles").count(), 0u);
  EXPECT_GT(s.trace()->event_count(), 0u);
}

// The deterministic metric sections must not depend on the worker count:
// counters sum, gauges max, histograms add — all order-independent.
TEST(Session, MetricsReportIsThreadCountInvariant) {
  const std::vector<std::string> specs = {
      "synthetic.cond_branch?size=32&width=1&iters=1",
      "synthetic.stream?size=32&width=1&iters=1",
  };
  const auto jobs = sim::workload_grid(specs, sim::MicrobenchOptions{});
  const auto sweep = [&](usize threads) {
    Session::Options opt;
    opt.metrics = true;
    Session s(opt);
    const ScopedSession scope(&s);
    sim::run_sweep<sim::WorkloadFamily>(jobs, on_threads(threads));
    return strip_report_timing(render_report("unit", s));
  };
  EXPECT_EQ(sweep(1), sweep(4));
}

}  // namespace
}  // namespace sempe::obs
