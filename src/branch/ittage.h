// ITTAGE indirect-target predictor (Seznec 2011), ~6KB per Table II.
//
// Predicts full target addresses for indirect jumps (kJalr). A base table
// keyed by PC holds the last target; tagged tables keyed by folded global
// history override it, longest history first.
#pragma once

#include <vector>

#include "branch/history.h"
#include "util/types.h"

namespace sempe::branch {

struct ItTageConfig {
  usize base_entries = 256;
  usize tagged_entries = 128;
  u32 tag_bits = 9;
  std::vector<usize> history_lengths = {8, 20, 48};
};

class ItTage {
 public:
  explicit ItTage(const ItTageConfig& cfg = {});

  /// Predict the target of the indirect jump at pc (0 = no prediction).
  Addr predict(Addr pc);

  /// Train with the resolved target; advances the (target-bit) history.
  void update(Addr pc, Addr target);

  u64 lookups() const { return lookups_; }
  u64 mispredicts() const { return mispredicts_; }

  u64 digest() const;
  void reset();

 private:
  struct Entry {
    Addr target = 0;
    u16 tag = 0;
    u8 conf = 0;   // 2-bit confidence
    u8 useful = 0;
  };

  /// The fold registers one tagged table hashes with, registered once at
  /// construction.
  struct TableFolds {
    GlobalHistory::FoldHandle index = 0;  // (len, index bits)
    GlobalHistory::FoldHandle tag = 0;    // (len, tag_bits)
  };

  usize index_for(usize table, Addr pc) const;
  u16 tag_for(usize table, Addr pc) const;

  ItTageConfig cfg_;
  std::vector<Addr> base_;
  std::vector<std::vector<Entry>> tables_;
  GlobalHistory history_;
  std::vector<TableFolds> folds_;  // one per tagged table
  u64 tag_mask_ = 0;               // low_mask(tag_bits)
  u64 lookups_ = 0;
  u64 mispredicts_ = 0;
};

}  // namespace sempe::branch
