// Per-cycle structural-resource allocator.
//
// Models a resource with `width` slots per cycle (fetch slots, rename
// slots, issue ports, FU pipes, retire slots): alloc(earliest) returns the
// first cycle >= earliest with a free slot and consumes it. Requests below
// the prune floor are clamped up to it.
//
// The bookkeeping is a power-of-two ring of {cycle tag, used} slots indexed
// by absolute cycle. A slot whose tag differs from the requested cycle is
// free, so idle cycles cost nothing and pruning is O(1): raising the floor
// turns every older tag stale at once. Every live cycle lies in
// [floor, floor + capacity), so no two share a slot; a request past that
// window doubles the ring. The capacity therefore tracks the largest live
// window the caller ever holds open, not the length of the run.
#pragma once

#include <vector>

#include "util/check.h"
#include "util/types.h"

namespace sempe::pipeline {

class WidthLimiter {
 public:
  explicit WidthLimiter(u32 width) : width_(width) { SEMPE_CHECK(width > 0); }

  Cycle alloc(Cycle earliest) {
    for (Cycle c = earliest < floor_ ? floor_ : earliest;; ++c) {
      if (c - floor_ >= ring_.size()) grow(c);
      Slot& s = ring_[static_cast<usize>(c) & (ring_.size() - 1)];
      if (s.tag != c) {
        s = {c, 1};
        return c;
      }
      if (s.used < width_) {
        ++s.used;
        return c;
      }
    }
  }

  /// Drop bookkeeping for cycles before `before` (no allocations that early
  /// will ever be requested again). A floor below the current one is a
  /// no-op.
  void prune(Cycle before) {
    if (before > floor_) floor_ = before;
  }

  u32 width() const { return width_; }
  /// Slots in the ring: the live window this limiter has had to span.
  usize capacity() const { return ring_.size(); }

 private:
  static constexpr usize kInitialCapacity = 64;
  // Tag of a never-used slot: no request asks for this cycle, and it lies
  // outside every live window.
  static constexpr Cycle kNoCycle = ~Cycle{0};

  struct Slot {
    Cycle tag = kNoCycle;
    u32 used = 0;
  };

  /// Double the ring until `c` fits in [floor_, floor_ + capacity), moving
  /// the live slots (tags inside the old window) to their new positions.
  void grow(Cycle c) {
    usize cap = ring_.size();
    while (c - floor_ >= cap) cap *= 2;
    std::vector<Slot> next(cap);
    for (const Slot& s : ring_)
      if (s.tag - floor_ < ring_.size())
        next[static_cast<usize>(s.tag) & (cap - 1)] = s;
    ring_.swap(next);
  }

  u32 width_;
  Cycle floor_ = 0;
  std::vector<Slot> ring_ = std::vector<Slot>(kInitialCapacity);
};

}  // namespace sempe::pipeline
