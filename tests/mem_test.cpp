#include <gtest/gtest.h>

#include <vector>

#include "mem/cache.h"
#include "mem/hierarchy.h"
#include "mem/main_memory.h"
#include "mem/prefetcher.h"
#include "mem/scratchpad.h"
#include "util/rng.h"

namespace sempe::mem {
namespace {

TEST(MainMemory, ZeroInitializedAndSparse) {
  MainMemory m;
  EXPECT_EQ(m.read_u64(0x123456789), 0u);
  EXPECT_EQ(m.num_touched_pages(), 0u);
  m.write_u64(0x1000, 0xdeadbeef);
  EXPECT_EQ(m.read_u64(0x1000), 0xdeadbeefull);
  EXPECT_EQ(m.num_touched_pages(), 1u);
}

TEST(MainMemory, SubWordAccess) {
  MainMemory m;
  m.write(0x10, 0xaabbccdd, 4);
  EXPECT_EQ(m.read(0x10, 4), 0xaabbccddull);
  EXPECT_EQ(m.read_u8(0x10), 0xdd);
  EXPECT_EQ(m.read_u8(0x13), 0xaa);
  EXPECT_EQ(m.read(0x12, 2), 0xaabbull);
}

TEST(MainMemory, CrossPageAccess) {
  MainMemory m;
  const Addr edge = MainMemory::kPageSize - 4;
  m.write_u64(edge, 0x1122334455667788ull);
  EXPECT_EQ(m.read_u64(edge), 0x1122334455667788ull);
  EXPECT_EQ(m.num_touched_pages(), 2u);
}

TEST(Cache, HitAfterMiss) {
  Cache c({.name = "t", .size_bytes = 1024, .assoc = 2, .line_bytes = 64});
  EXPECT_FALSE(c.access(0x100, false).hit);
  EXPECT_TRUE(c.access(0x100, false).hit);
  EXPECT_TRUE(c.access(0x13f, false).hit);   // same line
  EXPECT_FALSE(c.access(0x140, false).hit);  // next line
  EXPECT_EQ(c.demand_accesses(), 4u);
  EXPECT_EQ(c.demand_misses(), 2u);
}

TEST(Cache, LruEviction) {
  // 2 sets x 2 ways, 64B lines: addresses mapping to set 0 are multiples of
  // 128.
  Cache c({.name = "t", .size_bytes = 256, .assoc = 2, .line_bytes = 64});
  c.access(0 * 128, false);
  c.access(1 * 128, false);
  c.access(0 * 128, false);      // touch 0 -> 128 is LRU
  c.access(2 * 128, false);      // evicts 128
  EXPECT_TRUE(c.probe(0));
  EXPECT_FALSE(c.probe(128));
  EXPECT_TRUE(c.probe(256));
}

TEST(Cache, DirtyWriteback) {
  Cache c({.name = "t", .size_bytes = 256, .assoc = 2, .line_bytes = 64});
  c.access(0 * 128, true);  // dirty
  c.access(1 * 128, false);
  c.access(2 * 128, false);  // evicts dirty line 0
  // Find which access produced a writeback by repeating deterministically.
  Cache d({.name = "t", .size_bytes = 256, .assoc = 2, .line_bytes = 64});
  d.access(0, true);
  d.access(128, false);
  const auto r = d.access(256, false);
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.victim_line, 0u);
}

TEST(Cache, PrefetchFillDoesNotCountDemand) {
  Cache c({.name = "t", .size_bytes = 1024, .assoc = 2, .line_bytes = 64});
  EXPECT_TRUE(c.prefetch_fill(0x200));
  EXPECT_FALSE(c.prefetch_fill(0x200));  // already present
  EXPECT_EQ(c.demand_accesses(), 0u);
  EXPECT_TRUE(c.access(0x200, false).hit);  // prefetched line hits
}

TEST(Cache, FlushEmptiesContents) {
  Cache c({.name = "t", .size_bytes = 1024, .assoc = 2, .line_bytes = 64});
  c.access(0x40, false);
  c.flush();
  EXPECT_FALSE(c.probe(0x40));
}

TEST(Cache, ConfigValidation) {
  EXPECT_THROW(Cache({.size_bytes = 1000, .assoc = 3, .line_bytes = 60}),
               SimError);
}

/// Reference set-associative LRU cache indexed with the division formula
/// (set = addr / line % sets, tag = addr / line / sets), against which the
/// shift-indexed Cache is checked access by access.
struct DivisionCache {
  struct Line {
    bool valid = false;
    bool dirty = false;
    u64 tag = 0;
    u64 lru = 0;
  };
  usize line_bytes, num_sets, assoc;
  std::vector<Line> lines;
  u64 clock = 0;

  DivisionCache(usize size, usize ways, usize line)
      : line_bytes(line), num_sets(size / line / ways), assoc(ways),
        lines(num_sets * ways) {}

  CacheAccessResult access(Addr a, bool is_write) {
    const u64 set = a / line_bytes % num_sets;
    const u64 tag = a / line_bytes / num_sets;
    Line* base = &lines[set * assoc];
    for (usize w = 0; w < assoc; ++w) {
      if (base[w].valid && base[w].tag == tag) {
        base[w].lru = ++clock;
        base[w].dirty = base[w].dirty || is_write;
        return {.hit = true};
      }
    }
    Line* victim = &base[0];
    for (usize w = 0; w < assoc; ++w) {
      if (!base[w].valid) {
        victim = &base[w];
        break;
      }
      if (base[w].lru < victim->lru) victim = &base[w];
    }
    CacheAccessResult r;
    if (victim->valid && victim->dirty) {
      r.writeback = true;
      r.victim_line = (victim->tag * num_sets + set) * line_bytes;
    }
    *victim = {.valid = true, .dirty = is_write, .tag = tag, .lru = ++clock};
    return r;
  }
};

TEST(Cache, ShiftIndexingMatchesDivisionFormula) {
  Rng rng(11);
  for (const usize line : {16u, 32u, 64u, 128u, 256u}) {
    for (const usize assoc : {1u, 2u, 4u, 8u}) {
      for (const usize sets : {1u, 4u, 64u, 512u}) {
        const usize size = line * assoc * sets;
        Cache c({.name = "t", .size_bytes = size, .assoc = assoc,
                 .line_bytes = line});
        DivisionCache ref(size, assoc, line);
        ASSERT_EQ(c.num_sets(), sets);
        // Addresses over 4x the capacity (hits, conflicts, dirty
        // evictions) with a few high bits set to exercise wide tags.
        for (int i = 0; i < 3000; ++i) {
          const Addr a = (rng.next_below(4 * size) |
                          (rng.next_below(4) << 40));
          const bool w = rng.next_below(3) == 0;
          const CacheAccessResult got = c.access(a, w);
          const CacheAccessResult want = ref.access(a, w);
          ASSERT_EQ(got.hit, want.hit) << "line=" << line << " assoc="
                                       << assoc << " sets=" << sets;
          ASSERT_EQ(got.writeback, want.writeback);
          ASSERT_EQ(got.victim_line, want.victim_line);
          ASSERT_TRUE(c.probe(a));
        }
      }
    }
  }
}

TEST(Cache, DirtyVictimLineIsTheEvictedAddress) {
  for (const usize line : {16u, 64u, 256u}) {
    for (const usize assoc : {1u, 2u, 8u}) {
      const usize sets = 32;
      Cache c({.name = "t", .size_bytes = line * assoc * sets,
               .assoc = assoc, .line_bytes = line});
      // A dirty line deep in a set, then `assoc` more lines of that set.
      const Addr dirty = (Addr{0x5a} << 32) + 7 * line + line / 2;
      c.access(dirty, true);
      CacheAccessResult last;
      for (usize k = 1; k <= assoc; ++k)
        last = c.access(dirty + k * sets * line, false);
      EXPECT_TRUE(last.writeback) << "line=" << line << " assoc=" << assoc;
      EXPECT_EQ(last.victim_line, c.line_of(dirty));
      EXPECT_FALSE(c.probe(dirty));
    }
  }
}

TEST(StridePrefetcher, DetectsConstantStride) {
  StridePrefetcher p;
  const Addr pc = 0x400;
  EXPECT_TRUE(p.observe(pc, 1000).empty());   // learn
  EXPECT_TRUE(p.observe(pc, 1064).empty());   // stride 64, conf 1
  EXPECT_TRUE(p.observe(pc, 1128).empty());   // conf 2 -> next triggers
  const auto v = p.observe(pc, 1192);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 1256u);
}

TEST(StridePrefetcher, NoPrefetchOnIrregular) {
  StridePrefetcher p;
  const Addr pc = 0x400;
  p.observe(pc, 1000);
  p.observe(pc, 1064);
  p.observe(pc, 1000);
  p.observe(pc, 5000);
  EXPECT_TRUE(p.observe(pc, 123).empty());
}

TEST(StreamPrefetcher, ConfirmsAscendingMissStream) {
  StreamPrefetcher p({.num_streams = 4, .depth = 2, .line_bytes = 64});
  EXPECT_TRUE(p.observe_miss(0x1000).empty());  // allocates stream
  const auto v = p.observe_miss(0x1040);        // confirms
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 0x1080u);
  EXPECT_EQ(v[1], 0x10c0u);
}

TEST(StreamPrefetcher, IndependentStreams) {
  StreamPrefetcher p({.num_streams = 4, .depth = 1, .line_bytes = 64});
  p.observe_miss(0x1000);
  p.observe_miss(0x8000);
  EXPECT_FALSE(p.observe_miss(0x1040).empty());
  EXPECT_FALSE(p.observe_miss(0x8040).empty());
}

TEST(Hierarchy, LatencyComposition) {
  HierarchyConfig cfg;
  cfg.enable_prefetchers = false;
  Hierarchy h(cfg);
  // Cold: DL1 miss + L2 miss + DRAM.
  const Cycle cold = h.access_data(0x10000, false, 0x400);
  EXPECT_EQ(cold, cfg.dl1_hit_latency + cfg.l2_hit_latency + cfg.dram_latency);
  // Warm: DL1 hit.
  const Cycle warm = h.access_data(0x10000, false, 0x400);
  EXPECT_EQ(warm, cfg.dl1_hit_latency);
}

TEST(Hierarchy, L2HitAfterDl1Eviction) {
  HierarchyConfig cfg;
  cfg.enable_prefetchers = false;
  cfg.dl1 = {.name = "DL1", .size_bytes = 128, .assoc = 1, .line_bytes = 64};
  Hierarchy h(cfg);
  h.access_data(0x0, false, 1);     // line A in DL1+L2
  h.access_data(0x80, false, 1);    // maps to same DL1 set, evicts A
  const Cycle lat = h.access_data(0x0, false, 1);  // DL1 miss, L2 hit
  EXPECT_EQ(lat, cfg.dl1_hit_latency + cfg.l2_hit_latency);
}

TEST(Hierarchy, InstructionPathSeparateFromData) {
  HierarchyConfig cfg;
  cfg.enable_prefetchers = false;
  Hierarchy h(cfg);
  h.access_instr(0x10000);
  EXPECT_EQ(h.il1().demand_accesses(), 1u);
  EXPECT_EQ(h.dl1().demand_accesses(), 0u);
  // Second fetch of the same line hits.
  EXPECT_EQ(h.access_instr(0x10008), cfg.il1_hit_latency);
}

TEST(Hierarchy, StridePrefetchHidesArrayWalkMisses) {
  HierarchyConfig with;
  HierarchyConfig without = with;
  without.enable_prefetchers = false;
  Hierarchy hp(with);
  Hierarchy hn(without);
  const Addr pc = 0x444;
  u64 miss_p = 0, miss_n = 0;
  for (Addr a = 0; a < 64 * 1024; a += 64) {
    hp.access_data(a, false, pc);
    hn.access_data(a, false, pc);
  }
  miss_p = hp.dl1().demand_misses();
  miss_n = hn.dl1().demand_misses();
  EXPECT_LT(miss_p, miss_n);  // prefetching removes most walk misses
}

TEST(Scratchpad, TransferCyclesCeiling) {
  Scratchpad s;
  EXPECT_EQ(s.transfer_cycles(0), 0u);
  EXPECT_EQ(s.transfer_cycles(1), 1u);
  EXPECT_EQ(s.transfer_cycles(64), 1u);
  EXPECT_EQ(s.transfer_cycles(65), 2u);
  EXPECT_EQ(s.transfer_cycles(384), 6u);
}

TEST(Scratchpad, SnapshotSizingMatchesPaperScale) {
  Scratchpad s;
  // 48 regs: 2 states (768B) + 2 bit-vectors (16B) = 784 bytes per slot.
  EXPECT_EQ(s.snapshot_slot_bytes(48), 784u);
  EXPECT_TRUE(s.fits(30, 48));   // Table II: 30 snapshots supported
  EXPECT_FALSE(s.fits(31, 48));  // capped by max_snapshots
}

}  // namespace
}  // namespace sempe::mem
