#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "isa/program_builder.h"
#include "pipeline/pipeline.h"
#include "pipeline/width_limiter.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workloads/registry.h"

namespace sempe {
namespace {

using isa::ProgramBuilder;
using isa::Secure;
using pipeline::PipelineConfig;
using pipeline::PipelineStats;
using pipeline::WidthLimiter;

PipelineStats run_timed(ProgramBuilder& pb,
                        cpu::ExecMode mode = cpu::ExecMode::kLegacy,
                        PipelineConfig cfg = {}) {
  sim::RunConfig rc;
  rc.core.mode = mode;
  rc.pipe = cfg;
  rc.record_observations = false;
  auto prog = pb.build();
  return sim::run(prog, rc).stats;
}

TEST(WidthLimiterTest, RespectsWidthPerCycle) {
  WidthLimiter w(2);
  EXPECT_EQ(w.alloc(10), 10u);
  EXPECT_EQ(w.alloc(10), 10u);
  EXPECT_EQ(w.alloc(10), 11u);  // third request spills to the next cycle
  EXPECT_EQ(w.alloc(10), 11u);
  EXPECT_EQ(w.alloc(10), 12u);
}

TEST(WidthLimiterTest, PruneKeepsSemantics) {
  WidthLimiter w(1);
  w.alloc(5);
  w.prune(6);
  EXPECT_EQ(w.alloc(6), 6u);
  EXPECT_EQ(w.alloc(0), 7u);  // clamped to pruned base, slot 6 taken
}

// Reference allocator with WidthLimiter's contract (first cycle >=
// max(earliest, floor) with a free slot) over an unbounded ordered map.
class MapLimiter {
 public:
  explicit MapLimiter(u32 width) : width_(width) {}
  Cycle alloc(Cycle earliest) {
    Cycle c = std::max(earliest, floor_);
    while (used_[c] >= width_) ++c;
    ++used_[c];
    return c;
  }
  void prune(Cycle before) { floor_ = std::max(floor_, before); }
  Cycle floor() const { return floor_; }

 private:
  u32 width_;
  Cycle floor_ = 0;
  std::map<Cycle, u32> used_;
};

TEST(WidthLimiterTest, MatchesMapReferenceOnRandomStreams) {
  for (u64 seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    const u32 width = static_cast<u32>(1 + rng.next_below(12));
    WidthLimiter ring(width);
    MapLimiter ref(width);
    Cycle head = 0;  // the request stream's moving frontier
    for (int step = 0; step < 20000; ++step) {
      const u64 roll = rng.next_below(1000);
      if (roll < 15) {
        // Monotone prune: mostly well behind the frontier (live windows of
        // up to a few thousand cycles force ring growth), sometimes past
        // it (every slot turns stale at once).
        const Cycle lag = rng.next_below(4096);
        Cycle to = head > lag ? head - lag : 0;
        if (roll < 3) to = head + rng.next_below(64);
        ring.prune(to);
        ref.prune(to);
        continue;
      }
      // Sparse forward gaps (ptr_chase-like idle stretches) or dense steps.
      head += roll < 100 ? rng.next_below(500) : rng.next_below(3);
      Cycle req = head;
      if (roll < 110) {
        req = rng.next_below(ref.floor() + 1);  // below the floor: clamped
      } else if (roll < 500) {
        const Cycle room = head - std::min(head, ref.floor());
        req = head - rng.next_below(std::min<Cycle>(room, 64) + 1);
      }
      ASSERT_EQ(ring.alloc(req), ref.alloc(req))
          << "seed " << seed << " width " << width << " step " << step;
    }
    // 64 -> 512 or more: the stream's spread forced several doublings.
    EXPECT_GE(ring.capacity(), 512u) << "seed " << seed;
  }
}

// Largest limiter ring after running `spec` to halt in `mode`.
usize limiter_capacity(const std::string& spec, workloads::Variant variant,
                       cpu::ExecMode mode) {
  const workloads::BuiltWorkload w =
      workloads::WorkloadRegistry::instance().build(spec, variant);
  mem::MainMemory memory;
  cpu::CoreConfig cc;
  cc.mode = mode;
  cpu::FunctionalCore core(&w.program, &memory, cc);
  pipeline::Pipeline pipe(&core, {});
  pipe.run();
  return pipe.max_limiter_capacity();
}

TEST(PipelineBounds, LimiterWindowIndependentOfRunLength) {
  // Every limiter prunes at its own lower bound on future requests, so its
  // ring spans the machine's live window, never the run: a 10x longer run
  // must end with the same capacity. The widest window is a full ROB of
  // serialised DRAM-missing loads; a power-of-two ring covering it stays
  // under twice that.
  const PipelineConfig cfg;
  const usize cap = 2 * cfg.rob_entries *
                    (cfg.load_base_latency + cfg.memory.dl1_hit_latency +
                     cfg.memory.l2_hit_latency + cfg.memory.dram_latency);
  struct Point {
    const char* shorter;
    const char* longer;  // the same point, 10x the run length
    workloads::Variant variant;
    cpu::ExecMode mode;
  };
  const Point points[] = {
      {"synthetic.ptr_chase?steps=2000", "synthetic.ptr_chase?steps=20000",
       workloads::Variant::kSecure, cpu::ExecMode::kLegacy},
      {"synthetic.secret_mix?iters=4", "synthetic.secret_mix?iters=40",
       workloads::Variant::kSecure, cpu::ExecMode::kSempe},
      {"synthetic.secret_mix?iters=4", "synthetic.secret_mix?iters=40",
       workloads::Variant::kCte, cpu::ExecMode::kLegacy},
  };
  for (const Point& p : points) {
    const usize shorter = limiter_capacity(p.shorter, p.variant, p.mode);
    const usize longer = limiter_capacity(p.longer, p.variant, p.mode);
    EXPECT_EQ(shorter, longer) << p.longer;
    EXPECT_LT(longer, cap) << p.longer;
  }
}

TEST(PipelineTiming, IndependentOpsOverlap) {
  // 64 independent ALU ops should take far fewer cycles than 64 serial ones.
  ProgramBuilder pb_par;
  for (int i = 0; i < 16; ++i)
    for (int r = 10; r < 14; ++r)
      pb_par.addi(static_cast<isa::Reg>(r), isa::kRegZero, i);
  pb_par.halt();
  ProgramBuilder pb_ser;
  pb_ser.li(10, 0);
  for (int i = 0; i < 64; ++i) pb_ser.addi(10, 10, 1);
  pb_ser.halt();
  const auto par = run_timed(pb_par);
  const auto ser = run_timed(pb_ser);
  EXPECT_LT(par.cycles, ser.cycles);
}

TEST(PipelineTiming, DivLatencyDominates) {
  ProgramBuilder pb;
  pb.li(1, 1000);
  pb.li(2, 3);
  for (int i = 0; i < 8; ++i) pb.div(3, 1, 2);  // serial unpipelined divides
  pb.halt();
  const auto s = run_timed(pb);
  PipelineConfig cfg;
  EXPECT_GT(s.cycles, 8 * cfg.div_latency);
}

TEST(PipelineTiming, ColdLoadsSlowerThanWarm) {
  // Two passes over an array: the second pass should be much faster.
  auto build = [](int passes) {
    ProgramBuilder pb;
    const Addr buf = pb.alloc(512 * 8, 64);
    pb.li(5, passes);
    auto outer = pb.new_label();
    pb.bind(outer);
    pb.li(1, static_cast<i64>(buf));
    pb.li(2, 512);
    auto loop = pb.new_label();
    pb.bind(loop);
    pb.ld(3, 1, 0);
    pb.addi(1, 1, 8);
    pb.addi(2, 2, -1);
    pb.bne(2, isa::kRegZero, loop);
    pb.addi(5, 5, -1);
    pb.bne(5, isa::kRegZero, outer);
    pb.halt();
    return pb;
  };
  auto one = build(1);
  auto two = build(2);
  PipelineConfig cfg;
  cfg.memory.enable_prefetchers = false;  // isolate pure locality
  const auto s1 = run_timed(one, cpu::ExecMode::kLegacy, cfg);
  const auto s2 = run_timed(two, cpu::ExecMode::kLegacy, cfg);
  // Second pass adds far fewer cycles than the first cost.
  EXPECT_LT(s2.cycles - s1.cycles, s1.cycles / 2);
}

TEST(PipelineTiming, MispredictionCostsCycles) {
  // A data-dependent unpredictable branch vs. an always-taken one.
  auto build = [](bool alternating) {
    ProgramBuilder pb;
    pb.li(1, 0);    // i
    pb.li(2, 2000); // limit
    pb.li(5, 0);
    auto loop = pb.new_label();
    auto skip = pb.new_label();
    pb.bind(loop);
    if (alternating) {
      // branch pattern derived from a xorshift-ish scramble of i: hard-ish
      pb.mul(3, 1, 1);
      pb.srli(3, 3, 3);
      pb.xor_(3, 3, 1);
      pb.andi(3, 3, 1);
    } else {
      pb.li(3, 1);
    }
    pb.beq(3, isa::kRegZero, skip);
    pb.addi(5, 5, 1);
    pb.bind(skip);
    pb.addi(1, 1, 1);
    pb.blt(1, 2, loop);
    pb.halt();
    return pb;
  };
  auto hard = build(true);
  auto easy = build(false);
  const auto sh = run_timed(hard);
  const auto se = run_timed(easy);
  EXPECT_GT(sh.branch_mispredicts, se.branch_mispredicts);
}

TEST(PipelineTiming, StoreForwardingObserved) {
  ProgramBuilder pb;
  const Addr buf = pb.alloc(8, 8);
  pb.li(1, static_cast<i64>(buf));
  pb.li(2, 42);
  for (int i = 0; i < 16; ++i) {
    pb.st(2, 1, 0);
    pb.ld(3, 1, 0);  // immediately reads the just-stored value
  }
  pb.halt();
  const auto s = run_timed(pb);
  EXPECT_GT(s.store_forwards, 0u);
}

TEST(PipelineTiming, BoundaryCrossingStoreIsSeenByChunkAlignedLoad) {
  // Regression: RAW detection keys the store buffer on addr & ~7, and a
  // store whose bytes straddle an 8-byte boundary used to register only
  // its low chunk — a later load of the high chunk issued without waiting
  // for the store's data. Both chunks are registered now; the load's issue
  // must not precede the readiness of the store data it overlaps.
  ProgramBuilder pb;
  const Addr buf = pb.alloc(32, 8);
  pb.li(1, static_cast<i64>(buf));
  pb.li(2, 3);
  // Long dependency chain so the store's data is late relative to when an
  // independent load could otherwise issue.
  for (int i = 0; i < 24; ++i) pb.mul(2, 2, 2);
  pb.st(2, 1, 4);  // bytes [buf+4, buf+12): chunks buf and buf+8
  pb.ld(3, 1, 8);  // reads chunk buf+8 — overlaps the store's high bytes
  pb.halt();

  auto prog = pb.build();
  mem::MainMemory memory;
  cpu::FunctionalCore core(&prog, &memory);
  pipeline::Pipeline pipe(&core, {});
  Cycle store_complete = 0, load_issue = 0;
  pipe.on_retire = [&](const cpu::DynOp& op,
                       const pipeline::OpTimestamps& ts) {
    if (op.is_mem && op.is_store && op.mem_addr == buf + 4)
      store_complete = ts.complete;
    if (op.is_mem && !op.is_store && op.mem_addr == buf + 8)
      load_issue = ts.issue;
  };
  pipe.run();
  ASSERT_GT(store_complete, 0u);
  ASSERT_GT(load_issue, 0u);
  EXPECT_GE(load_issue, store_complete);  // the RAW dependency is observed
}

TEST(PipelineTiming, BoundaryCrossingLoadConsultsBothChunks) {
  // The dual: a chunk-aligned store followed by a load whose bytes cross
  // into the store's chunk from below. The load must wait even though its
  // own base address hashes to the other chunk.
  ProgramBuilder pb;
  const Addr buf = pb.alloc(32, 8);
  pb.li(1, static_cast<i64>(buf));
  pb.li(2, 3);
  for (int i = 0; i < 24; ++i) pb.mul(2, 2, 2);
  pb.st(2, 1, 8);  // chunk buf+8 only
  pb.ld(3, 1, 4);  // bytes [buf+4, buf+12): low chunk buf, high chunk buf+8
  pb.halt();

  auto prog = pb.build();
  mem::MainMemory memory;
  cpu::FunctionalCore core(&prog, &memory);
  pipeline::Pipeline pipe(&core, {});
  Cycle store_complete = 0, load_issue = 0;
  pipe.on_retire = [&](const cpu::DynOp& op,
                       const pipeline::OpTimestamps& ts) {
    if (op.is_mem && op.is_store) store_complete = ts.complete;
    if (op.is_mem && !op.is_store) load_issue = ts.issue;
  };
  pipe.run();
  ASSERT_GT(store_complete, 0u);
  ASSERT_GT(load_issue, 0u);
  EXPECT_GE(load_issue, store_complete);
}

TEST(PipelineTiming, CacheStatsPopulated) {
  ProgramBuilder pb;
  const Addr buf = pb.alloc(4096, 64);
  pb.li(1, static_cast<i64>(buf));
  pb.li(2, 512);
  auto loop = pb.new_label();
  pb.bind(loop);
  pb.ld(3, 1, 0);
  pb.addi(1, 1, 8);
  pb.addi(2, 2, -1);
  pb.bne(2, isa::kRegZero, loop);
  pb.halt();
  const auto s = run_timed(pb);
  EXPECT_GT(s.dl1_accesses, 500u);
  EXPECT_GT(s.il1_accesses, 0u);
  EXPECT_GT(s.instructions, 0u);
  EXPECT_GT(s.cpi(), 0.0);
}

ProgramBuilder secure_region_prog(int body_len, int reps = 1) {
  ProgramBuilder pb;
  pb.li(1, 0);
  pb.li(2, reps);
  auto outer = pb.new_label();
  pb.bind(outer);
  auto join = pb.new_label();
  pb.bne(1, isa::kRegZero, join, Secure::kYes);
  for (int i = 0; i < body_len; ++i) pb.addi(5, 5, 1);
  pb.bind(join);
  pb.eosjmp();
  pb.addi(2, 2, -1);
  pb.bne(2, isa::kRegZero, outer);
  pb.halt();
  return pb;
}

TEST(SempeTiming, SecureRegionCostsDrainsAndSpm) {
  // Run the region many times so steady-state behavior dominates over the
  // cold-cache startup (on a cold single shot, legacy's mispredicted branch
  // serializes an IL1 miss and can actually be *slower* than SeMPE, which
  // never redirects fetch at an sJMP — the paper's "no branch
  // misprediction" CPI factor).
  auto a = secure_region_prog(16, 50);
  auto b = secure_region_prog(16, 50);
  const auto legacy = run_timed(a, cpu::ExecMode::kLegacy);
  const auto sempe = run_timed(b, cpu::ExecMode::kSempe);
  EXPECT_GT(sempe.cycles, legacy.cycles);
  EXPECT_EQ(sempe.sjmp_executed, 50u);
  EXPECT_EQ(sempe.secure_regions_completed, 50u);
  EXPECT_GT(sempe.spm_bytes, 0u);
  EXPECT_GT(sempe.drain_stall_cycles, 0u);
  // Legacy never touches SeMPE machinery.
  EXPECT_EQ(legacy.sjmp_executed, 0u);
  EXPECT_EQ(legacy.spm_bytes, 0u);
}

TEST(SempeTiming, ColdSingleShotSempeAvoidsRedirectSerialization) {
  // Documents the cold-start effect above: one cold secure region can be
  // cheaper under SeMPE because fetch streams past the sJMP while legacy's
  // misprediction serializes the next i-cache miss behind the resolve.
  auto a = secure_region_prog(16, 1);
  auto b = secure_region_prog(16, 1);
  const auto legacy = run_timed(a, cpu::ExecMode::kLegacy);
  const auto sempe = run_timed(b, cpu::ExecMode::kSempe);
  // The sJMP never mispredicts under SeMPE; only the (shared) outer loop
  // branch can. Legacy additionally mispredicts the secure branch itself.
  EXPECT_LT(sempe.branch_mispredicts, legacy.branch_mispredicts);
}

TEST(SempeTiming, SjmpNeverConsultsPredictor) {
  // A program whose only branch is the sJMP: the predictor must stay idle.
  ProgramBuilder pb;
  pb.li(1, 0);
  auto join = pb.new_label();
  pb.bne(1, isa::kRegZero, join, Secure::kYes);
  pb.addi(5, 5, 1);
  pb.bind(join);
  pb.eosjmp();
  pb.halt();
  auto prog = pb.build();
  mem::MainMemory memory;
  cpu::CoreConfig cc;
  cc.mode = cpu::ExecMode::kSempe;
  cpu::FunctionalCore core(&prog, &memory, cc);
  pipeline::Pipeline pipe(&core, {});
  pipe.run();
  EXPECT_EQ(pipe.tage().lookups(), 0u);  // only the sJMP branch exists
}

TEST(SempeTiming, SempeCyclesIndependentOfSecret) {
  Cycle cycles[2];
  for (i64 s : {0, 1}) {
    ProgramBuilder pb;
    pb.li(1, s);
    auto taken = pb.new_label();
    auto join = pb.new_label();
    pb.bne(1, isa::kRegZero, taken, Secure::kYes);
    for (int i = 0; i < 32; ++i) pb.addi(5, 5, 1);
    pb.jmp(join);
    pb.bind(taken);
    for (int i = 0; i < 8; ++i) pb.addi(6, 6, 3);
    pb.bind(join);
    pb.eosjmp();
    pb.halt();
    cycles[s] = run_timed(pb, cpu::ExecMode::kSempe).cycles;
  }
  EXPECT_EQ(cycles[0], cycles[1]);
}

TEST(SempeTiming, LegacyCyclesDependOnSecret) {
  // Same program as above on the unprotected core: the timing channel.
  Cycle cycles[2];
  for (i64 s : {0, 1}) {
    ProgramBuilder pb;
    pb.li(1, s);
    auto taken = pb.new_label();
    auto join = pb.new_label();
    pb.bne(1, isa::kRegZero, taken, Secure::kYes);
    for (int i = 0; i < 64; ++i) pb.addi(5, 5, 1);
    pb.jmp(join);
    pb.bind(taken);
    pb.addi(6, 6, 3);
    pb.bind(join);
    pb.eosjmp();
    pb.halt();
    cycles[s] = run_timed(pb, cpu::ExecMode::kLegacy).cycles;
  }
  EXPECT_NE(cycles[0], cycles[1]);
}

TEST(SempeTiming, NestedRegionsAccumulateSpmTraffic) {
  ProgramBuilder pb;
  pb.li(1, 0);
  auto j1 = pb.new_label();
  auto j2 = pb.new_label();
  pb.bne(1, isa::kRegZero, j1, Secure::kYes);
  pb.addi(5, 5, 1);
  pb.bne(1, isa::kRegZero, j2, Secure::kYes);
  pb.addi(5, 5, 1);
  pb.bind(j2);
  pb.eosjmp();
  pb.bind(j1);
  pb.eosjmp();
  pb.halt();
  const auto s = run_timed(pb, cpu::ExecMode::kSempe);
  EXPECT_EQ(s.sjmp_executed, 2u);
  EXPECT_EQ(s.secure_regions_completed, 2u);
  // Two regions: two full saves plus per-region restore traffic.
  EXPECT_GE(s.spm_bytes, 2u * (48 * 8 + 16));
}

TEST(SempeTiming, RetireWidthBoundsThroughput) {
  // IPC can never exceed the retire width.
  ProgramBuilder pb;
  for (int i = 0; i < 2000; ++i)
    pb.addi(static_cast<isa::Reg>(10 + (i % 16)), isa::kRegZero, 1);
  pb.halt();
  const auto s = run_timed(pb);
  PipelineConfig cfg;
  const double ipc =
      static_cast<double>(s.instructions) / static_cast<double>(s.cycles);
  EXPECT_LE(ipc, static_cast<double>(cfg.retire_width));
  EXPECT_GT(ipc, 1.0);  // and the machine is genuinely superscalar
}

}  // namespace
}  // namespace sempe
