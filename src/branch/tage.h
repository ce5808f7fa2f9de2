// TAGE conditional branch predictor (Seznec, MICRO 2011), sized to the
// ~31KB budget of Table II: a bimodal base predictor plus tagged tables
// with geometrically increasing history lengths.
//
// SeMPE property: secure branches (sJMP) never call predict() or update(),
// so no secret-dependent state ever enters these tables. The digest()
// method exposes the state so tests can verify that.
#pragma once

#include <array>
#include <vector>

#include "branch/history.h"
#include "util/types.h"

namespace sempe::branch {

struct TageConfig {
  usize bimodal_entries = 8192;          // 2-bit counters  -> 2KB
  usize tagged_entries = 2048;           // per tagged table
  u32 tag_bits = 11;
  std::vector<usize> history_lengths = {4, 9, 19, 40, 85, 180};
  // 6 tables * 2048 * (3b ctr + 2b u + 11b tag) = 6 * 4KB = 24KB; ~26KB total,
  // within the 31KB budget with the loop predictor the paper's TAGE omits.
};

class Tage {
 public:
  explicit Tage(const TageConfig& cfg = {});

  /// Predict the direction of the conditional branch at pc.
  bool predict(Addr pc);

  /// Train with the resolved outcome and advance global history.
  /// Must be called exactly once per predicted branch, in order.
  void update(Addr pc, bool taken);

  /// Advance history for a branch whose outcome is architecturally exposed
  /// without consulting the predictor (unconditional jumps).
  void note_unconditional(Addr pc);

  u64 lookups() const { return lookups_; }
  u64 mispredicts() const { return mispredicts_; }
  double mispredict_rate() const {
    return lookups_ == 0 ? 0.0
                         : static_cast<double>(mispredicts_) /
                               static_cast<double>(lookups_);
  }

  /// Digest of all predictor state (tables + history). Used by the security
  /// indistinguishability checker.
  u64 digest() const;

  void reset();

 private:
  struct TaggedEntry {
    i8 ctr = 0;       // 3-bit signed: -4..3, taken if >= 0
    u16 tag = 0;
    u8 useful = 0;    // 2-bit
  };

  struct Prediction {
    bool taken = false;
    bool provider_valid = false;   // a tagged table hit
    usize provider_table = 0;
    usize provider_index = 0;
    bool alt_taken = false;        // alternate (next-hit or bimodal)
    bool bimodal_taken = false;
    usize bimodal_index = 0;
  };

  /// The fold registers one tagged table hashes with, registered once at
  /// construction.
  struct TableFolds {
    GlobalHistory::FoldHandle index = 0;  // (len, index bits)
    GlobalHistory::FoldHandle tag = 0;    // (len, tag_bits)
    GlobalHistory::FoldHandle tag2 = 0;   // (len, tag_bits - 1)
  };

  usize index_for(usize table, Addr pc) const;
  u16 tag_for(usize table, Addr pc) const;
  Prediction lookup(Addr pc) const;

  TageConfig cfg_;
  std::vector<u8> bimodal_;                        // 2-bit counters
  std::vector<std::vector<TaggedEntry>> tables_;
  GlobalHistory history_;
  std::vector<TableFolds> folds_;  // one per tagged table
  u32 index_bits_ = 0;             // log2(tagged_entries)
  u64 tag_mask_ = 0;               // low_mask(tag_bits)
  Prediction last_;   // lookup state carried from predict() to update()
  Addr last_pc_ = 0;
  bool have_last_ = false;
  u64 lookups_ = 0;
  u64 mispredicts_ = 0;
  u64 alloc_seed_ = 0x123456789abcdefull;  // deterministic allocation tiebreak
};

}  // namespace sempe::branch
