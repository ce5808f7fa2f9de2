// Set-associative write-back, write-allocate cache with LRU replacement.
//
// The cache tracks tags and dirty bits only (data values live in
// MainMemory; the timing model needs hit/miss behavior, not cached bytes).
//
// Statistics are fixed-slot: the hot access path bumps an enum-indexed
// u64 array (one add per event, no map, no string), and the cold
// export_stats() renders the named StatSet view reports are built from.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "util/bits.h"
#include "util/check.h"
#include "util/stats.h"
#include "util/types.h"

namespace sempe::mem {

struct CacheConfig {
  std::string name = "cache";
  usize size_bytes = 32 * 1024;
  usize assoc = 2;
  usize line_bytes = 64;
};

/// Result of a single cache access.
struct CacheAccessResult {
  bool hit = false;
  bool writeback = false;  // a dirty victim was evicted
  Addr victim_line = 0;    // line address of the evicted victim (if any)
};

/// Fixed counter slots. Order is the render order of export_stats().
enum class CacheStat : usize {
  kAccesses = 0,   // demand accesses
  kWrites,         // demand writes (subset of accesses)
  kMisses,         // demand misses
  kWritebacks,     // dirty victims evicted (demand + prefetch victims)
  kPrefetchFills,  // lines installed by a prefetcher
  kCount,
};

inline constexpr usize kNumCacheStats = static_cast<usize>(CacheStat::kCount);

/// The stable exported name of each slot ("accesses", "misses", ...).
const char* cache_stat_name(CacheStat s);

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  const CacheConfig& config() const { return cfg_; }
  usize num_sets() const { return num_sets_; }
  Addr line_of(Addr a) const { return a & ~static_cast<Addr>(cfg_.line_bytes - 1); }

  /// Demand access. Misses allocate the line.
  CacheAccessResult access(Addr addr, bool is_write);

  /// Prefetch fill: allocates the line but does not count as a demand
  /// access. Returns false if the line was already present.
  bool prefetch_fill(Addr addr);

  /// True if the line containing addr is currently resident.
  bool probe(Addr addr) const;

  /// Invalidate everything (used between experiment runs).
  void flush();

  // Statistics.
  u64 stat(CacheStat s) const { return counters_[static_cast<usize>(s)]; }
  u64 demand_accesses() const { return stat(CacheStat::kAccesses); }
  u64 demand_misses() const { return stat(CacheStat::kMisses); }
  double miss_rate() const {
    const u64 a = demand_accesses();
    return a == 0 ? 0.0
                  : static_cast<double>(demand_misses()) /
                        static_cast<double>(a);
  }
  /// Cold path: render the named view ("accesses", "writes", "misses",
  /// "writebacks", "prefetch_fills") for reports and JSON emitters.
  StatSet export_stats() const;
  void reset_stats() { counters_.fill(0); }

 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    u64 tag = 0;
    u64 lru = 0;  // larger = more recently used
  };

  // Line size and set count are powers of two, so the set index and tag
  // are shifts and masks of the address.
  usize set_index(Addr a) const {
    return static_cast<usize>((a >> line_shift_) & (num_sets_ - 1));
  }
  u64 tag_of(Addr a) const { return a >> (line_shift_ + set_shift_); }

  void bump(CacheStat s) { ++counters_[static_cast<usize>(s)]; }

  CacheConfig cfg_;
  usize num_sets_;
  u32 line_shift_ = 0;  // log2(line_bytes)
  u32 set_shift_ = 0;   // log2(num_sets_)
  std::vector<Line> lines_;  // num_sets_ * assoc, set-major
  u64 lru_clock_ = 0;
  std::array<u64, kNumCacheStats> counters_{};
};

}  // namespace sempe::mem
