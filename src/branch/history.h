// Global branch history register with folded-index helpers, shared by the
// TAGE and ITTAGE predictors.
#pragma once

#include <vector>

#include "util/bits.h"
#include "util/check.h"
#include "util/types.h"

namespace sempe::branch {

/// A power-of-two ring of branch outcomes (age 0 = most recent).
///
/// The predictors hash with folds of the history: the most recent `len`
/// bits xor-reduced to `out_bits` bits. Each fold a predictor needs is
/// registered once, at construction (add_fold), and read through its
/// handle (value). push() updates every registered fold in O(1) each —
/// rotate within out_bits, xor out the bit aging past len, xor in the new
/// bit — the folded-history design of TAGE (Seznec & Michaud, JILP 2006).
/// The incremental value equals the eager bit-by-bit fold (folded_eager,
/// kept as the test reference), so predictions are unchanged.
class GlobalHistory {
 public:
  /// Index of a registered fold register.
  using FoldHandle = usize;

  /// Throws SimError unless `bits` is a power of two.
  explicit GlobalHistory(usize bits = 512) : bits_(bits, 0), mask_(bits - 1) {
    SEMPE_CHECK_MSG(is_pow2(bits),
                    "history register size must be a power of two, got "
                        << bits);
  }

  usize size() const { return bits_.size(); }

  /// Register a fold of the most recent `len` bits (1..size()) down to
  /// `out_bits` bits (1..64), seeded from the current contents. A pair
  /// registered twice shares one register.
  FoldHandle add_fold(usize len, u32 out_bits) {
    SEMPE_CHECK_MSG(len >= 1 && len <= size(),
                    "fold length " << len << " outside 1.." << size());
    SEMPE_CHECK_MSG(out_bits >= 1 && out_bits <= 64,
                    "fold width " << out_bits << " outside 1..64");
    for (usize i = 0; i < folds_.size(); ++i)
      if (folds_[i].oldest == len - 1 && folds_[i].out_bits == out_bits)
        return i;
    Fold f;
    f.oldest = len - 1;
    f.out_bits = out_bits;
    f.out_pos = static_cast<u32>((len - 1) % out_bits);
    f.mask = low_mask(out_bits);
    f.value = folded_eager(len, out_bits);
    folds_.push_back(f);
    return folds_.size() - 1;
  }

  u64 value(FoldHandle h) const { return folds_[h].value; }

  void push(bool taken) {
    const u64 b = taken ? 1 : 0;
    for (Fold& f : folds_) {
      // Drop the bit aging out of the window, advance every bit one
      // position (rotate-left by 1 within out_bits), inject the new bit at
      // position 0.
      u64 v = f.value ^ (static_cast<u64>(bits_[(head_ - f.oldest) & mask_])
                         << f.out_pos);
      v = ((v << 1) | (v >> (f.out_bits - 1))) & f.mask;
      f.value = v ^ b;
    }
    head_ = (head_ + 1) & mask_;
    bits_[head_] = static_cast<u8>(b);
  }

  u8 bit(usize age) const { return bits_[(head_ - age) & mask_]; }

  /// Reference fold, walked bit by bit (len capped at size()). Seeds a
  /// newly registered fold; tests compare every handle against it.
  u64 folded_eager(usize len, u32 out_bits) const {
    u64 h = 0;
    u64 chunk = 0;
    u32 pos = 0;
    for (usize i = 0; i < len && i < bits_.size(); ++i) {
      chunk |= static_cast<u64>(bit(i)) << pos;
      if (++pos == out_bits) {
        h ^= chunk;
        chunk = 0;
        pos = 0;
      }
    }
    h ^= chunk;
    return h & low_mask(out_bits);
  }

  /// Digest of the full history contents — attacker-visible predictor state.
  u64 digest() const {
    u64 h = 1469598103934665603ull;
    for (usize i = 0; i < bits_.size(); ++i) {
      h ^= bits_[i];
      h *= 1099511628211ull;
    }
    h ^= head_;
    return h;
  }

  void reset() {
    for (auto& b : bits_) b = 0;
    head_ = 0;
    for (Fold& f : folds_) f.value = 0;  // fold of all-zero history
  }

 private:
  struct Fold {
    usize oldest = 0;   // age of the oldest bit in the window (len - 1)
    u32 out_bits = 0;
    u32 out_pos = 0;    // oldest % out_bits: position of the dying bit
    u64 mask = 0;       // low_mask(out_bits)
    u64 value = 0;
  };

  std::vector<u8> bits_;
  usize mask_;  // size() - 1
  usize head_ = 0;
  std::vector<Fold> folds_;
};

/// Validate the tagged-table geometry shared by TAGE and ITTAGE; throws
/// SimError naming the offending `config` field. History lengths must be
/// strictly ascending and fit the `register_bits`-bit history; tags must
/// fit the u16 tag field and be at least `min_tag_bits` wide; a tagged
/// table needs at least two entries (one index bit).
inline void check_tagged_geometry(const char* config,
                                  const std::vector<usize>& history_lengths,
                                  usize tagged_entries, u32 tag_bits,
                                  u32 min_tag_bits, usize register_bits) {
  SEMPE_CHECK_MSG(is_pow2(tagged_entries) && tagged_entries >= 2,
                  config << ".tagged_entries = " << tagged_entries
                         << ": must be a power of two >= 2");
  SEMPE_CHECK_MSG(tag_bits >= min_tag_bits && tag_bits <= 16,
                  config << ".tag_bits = " << tag_bits << ": must be in "
                         << min_tag_bits << "..16 (the u16 tag field)");
  for (usize i = 0; i < history_lengths.size(); ++i) {
    const usize len = history_lengths[i];
    SEMPE_CHECK_MSG(len >= 1 && len <= register_bits,
                    config << ".history_lengths[" << i << "] = " << len
                           << ": must be in 1.." << register_bits
                           << " (the history register size)");
    SEMPE_CHECK_MSG(i == 0 || len > history_lengths[i - 1],
                    config << ".history_lengths[" << i << "] = " << len
                           << ": must be greater than [" << i - 1
                           << "] = " << history_lengths[i - 1]
                           << " (lengths strictly ascend)");
  }
}

}  // namespace sempe::branch
