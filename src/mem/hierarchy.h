// The cache hierarchy of Table II: IL1 16KB/2-way, DL1 32KB/2-way,
// unified L2 256KB/2-way, stride prefetcher at L1D, stream prefetcher at L2.
//
// An access walks IL1/DL1 -> L2 -> DRAM and returns the composed latency in
// cycles. Latencies are deterministic per access (no bank/MSHR contention
// model); see README "Timing model".
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "mem/cache.h"
#include "mem/prefetcher.h"
#include "util/stats.h"

namespace sempe::mem {

/// Fixed counter slots for hierarchy-level events (the per-cache hit/miss
/// slots live in each Cache). Order is the render order of export_stats().
enum class HierStat : usize {
  kInstrAccesses = 0,  // access_instr() calls
  kDataAccesses,       // access_data() calls
  kDramAccesses,       // L2 misses that went to DRAM
  kWritebackFills,     // dirty L1 victims installed into L2
  kCount,
};

inline constexpr usize kNumHierStats = static_cast<usize>(HierStat::kCount);

/// The stable exported name of each slot ("instr_accesses", ...).
const char* hier_stat_name(HierStat s);

struct HierarchyConfig {
  CacheConfig il1{.name = "IL1", .size_bytes = 16 * 1024, .assoc = 2};
  CacheConfig dl1{.name = "DL1", .size_bytes = 32 * 1024, .assoc = 2};
  CacheConfig l2{.name = "L2", .size_bytes = 256 * 1024, .assoc = 2};
  Cycle il1_hit_latency = 2;
  Cycle dl1_hit_latency = 3;
  Cycle l2_hit_latency = 12;
  Cycle dram_latency = 200;
  bool enable_prefetchers = true;
  StridePrefetcher::Config stride{};
  StreamPrefetcher::Config stream{};
};

/// Per-tenant counter view of a shared hierarchy: each demand access is
/// attributed to the requesting tenant alongside the global counters, so a
/// co-residence experiment can see how much of the contention each context
/// caused without a second pass over the caches.
struct TenantStats {
  u64 instr_accesses = 0;
  u64 data_accesses = 0;
  u64 dram_accesses = 0;
  u64 writeback_fills = 0;
  u64 il1_accesses = 0;
  u64 il1_misses = 0;
  u64 dl1_accesses = 0;
  u64 dl1_misses = 0;
  u64 l2_accesses = 0;
  u64 l2_misses = 0;
};

/// Bit position where the tenant id is XOR-folded into tagged addresses:
/// above every program address, below the cache tag width, so tagging
/// changes the line's tag but never its set index — co-resident tenants
/// contend for sets without ever sharing lines.
inline constexpr unsigned kTenantTagShift = 48;

class Hierarchy {
 public:
  explicit Hierarchy(const HierarchyConfig& cfg = {});

  /// Instruction fetch of the line containing pc. Returns total latency.
  Cycle access_instr(Addr pc, u32 tenant = 0);

  /// Data access. pc is the load/store PC (drives the stride prefetcher).
  Cycle access_data(Addr addr, bool is_write, Addr pc, u32 tenant = 0);

  /// Declare the number of co-resident tenants sharing this hierarchy (per
  /// tenant stat views are sized accordingly). Single-tenant hierarchies
  /// keep the default of 1 and tenant id 0 everywhere.
  void set_tenants(usize n);
  usize num_tenants() const { return tenant_stats_.size(); }
  const TenantStats& tenant_stats(usize tenant) const;

  /// Addresses in [lo, hi) are shared read-only across tenants and bypass
  /// the tenant tag — the model of shared pages a flush+reload-style probe
  /// needs. Empty (lo >= hi) by default: nothing is shared.
  void set_shared_window(Addr lo, Addr hi);

  /// The address a tenant's access actually presents to the caches:
  /// identity for tenant 0 and for the shared window, otherwise the tenant
  /// id XOR-folded in above bit 48 (same set index, disjoint tags).
  Addr tag(Addr a, u32 tenant) const {
    if (tenant == 0 || (a >= shared_lo_ && a < shared_hi_)) return a;
    return a ^ (static_cast<Addr>(tenant) << kTenantTagShift);
  }

  const Cache& il1() const { return *il1_; }
  const Cache& dl1() const { return *dl1_; }
  const Cache& l2() const { return *l2_; }

  /// Empty all caches and reset prefetcher state (not statistics).
  void flush();
  void reset_stats();

  u64 stat(HierStat s) const { return counters_[static_cast<usize>(s)]; }

  /// Cold path: the named view of the whole hierarchy — hierarchy-level
  /// slots plus each cache's counters prefixed with its configured name
  /// ("IL1.accesses", "DL1.misses", ...).
  StatSet export_stats() const;

  /// A digest of the resident line set, used by the security checker to
  /// compare attacker-visible cache state across secrets.
  u64 state_digest() const;

  const HierarchyConfig& config() const { return cfg_; }

 private:
  /// L2 access shared by both L1s. Returns latency beyond the L1 miss.
  /// `addr` is already tenant-tagged by the caller.
  Cycle access_l2(Addr addr, bool is_write, u32 tenant);

  void bump(HierStat s) { ++counters_[static_cast<usize>(s)]; }
  TenantStats& tview(u32 tenant);

  HierarchyConfig cfg_;
  std::array<u64, kNumHierStats> counters_{};
  std::vector<TenantStats> tenant_stats_{TenantStats{}};
  Addr shared_lo_ = 0;
  Addr shared_hi_ = 0;
  std::unique_ptr<Cache> il1_;
  std::unique_ptr<Cache> dl1_;
  std::unique_ptr<Cache> l2_;
  StridePrefetcher stride_;
  StreamPrefetcher stream_;
};

}  // namespace sempe::mem
