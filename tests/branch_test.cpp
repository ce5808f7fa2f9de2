#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "branch/btb_ras.h"
#include "branch/history.h"
#include "branch/ittage.h"
#include "branch/tage.h"
#include "util/rng.h"

namespace sempe::branch {
namespace {

TEST(GlobalHistory, FoldAndDigestChangeWithContent) {
  GlobalHistory h(64);
  const auto fold = h.add_fold(40, 7);
  const u64 d0 = h.digest();
  h.push(true);
  EXPECT_NE(h.digest(), d0);
  EXPECT_EQ(h.value(fold), 1u);
  // A fold is bounded by out_bits.
  for (int i = 0; i < 100; ++i) h.push(i % 3 == 0);
  EXPECT_LT(h.value(fold), 1ull << 7);
}

/// Every (len, out_bits) pair a predictor built from `lengths` registers:
/// the index fold plus each tag fold width.
std::vector<std::pair<usize, u32>> fold_pairs(
    const std::vector<usize>& lengths, usize tagged_entries,
    std::initializer_list<u32> tag_widths) {
  std::vector<std::pair<usize, u32>> out;
  for (const usize len : lengths) {
    out.emplace_back(len, log2_floor(tagged_entries));
    for (const u32 w : tag_widths) out.emplace_back(len, w);
  }
  return out;
}

/// Push seeded random streams several times longer than the register and
/// check every handle against the eager reference fold after each push —
/// including a fold registered mid-stream and the values after reset().
void check_folds_match_reference(usize register_bits,
                                 std::vector<std::pair<usize, u32>> pairs) {
  // Corners: a window the size of the register (the dying bit is the slot
  // push() overwrites), one bit, and the extreme fold widths.
  pairs.emplace_back(register_bits, 11);
  pairs.emplace_back(register_bits, 64);
  pairs.emplace_back(register_bits - 1, 10);
  pairs.emplace_back(1, 1);
  pairs.emplace_back(67, 1);
  pairs.emplace_back(3, 64);
  for (const u64 seed : {1ull, 7ull, 0xfeedull}) {
    GlobalHistory h(register_bits);
    Rng rng(seed);
    std::vector<GlobalHistory::FoldHandle> handles;
    for (const auto& [len, w] : pairs) handles.push_back(h.add_fold(len, w));
    const usize late_at = register_bits / 2 + static_cast<usize>(seed % 7);
    GlobalHistory::FoldHandle late = 0;
    for (usize step = 0; step < 3 * register_bits + 29; ++step) {
      if (step == late_at) late = h.add_fold(register_bits / 2 + 3, 5);
      h.push((rng.next_u64() >> 17) & 1);
      for (usize i = 0; i < pairs.size(); ++i) {
        const auto [len, w] = pairs[i];
        ASSERT_EQ(h.value(handles[i]), h.folded_eager(len, w))
            << "len=" << len << " out_bits=" << w << " step=" << step
            << " seed=" << seed;
      }
      if (step >= late_at) {
        ASSERT_EQ(h.value(late), h.folded_eager(register_bits / 2 + 3, 5))
            << "step=" << step;
      }
    }
    h.reset();
    for (usize i = 0; i < pairs.size(); ++i)
      EXPECT_EQ(h.value(handles[i]), 0u);
  }
}

TEST(GlobalHistory, TageFoldsMatchEagerReference) {
  const TageConfig c;
  check_folds_match_reference(
      512, fold_pairs(c.history_lengths, c.tagged_entries,
                      {c.tag_bits, c.tag_bits - 1}));
}

TEST(GlobalHistory, ItTageFoldsMatchEagerReference) {
  const ItTageConfig c;
  check_folds_match_reference(
      256, fold_pairs(c.history_lengths, c.tagged_entries, {c.tag_bits}));
}

TEST(GlobalHistory, DuplicateFoldSharesARegister) {
  GlobalHistory h(64);
  EXPECT_EQ(h.add_fold(19, 11), h.add_fold(19, 11));
  EXPECT_NE(h.add_fold(19, 11), h.add_fold(19, 10));
}

TEST(GlobalHistory, RejectsNonPowerOfTwoSizeAndBadFolds) {
  EXPECT_THROW(GlobalHistory(500), SimError);
  EXPECT_THROW(GlobalHistory(0), SimError);
  GlobalHistory h(64);
  EXPECT_THROW(h.add_fold(65, 7), SimError);
  EXPECT_THROW(h.add_fold(0, 7), SimError);
  EXPECT_THROW(h.add_fold(8, 0), SimError);
}

/// The SimError message `make()` throws, or "" when it does not throw.
template <typename F>
std::string error_of(F make) {
  try {
    make();
  } catch (const SimError& e) {
    return e.what();
  }
  return "";
}

TEST(PredictorConfig, TageRejectsBadGeometryNamingTheField) {
  TageConfig too_long;
  too_long.history_lengths = {4, 9, 19, 40, 85, 600};
  EXPECT_NE(error_of([&] { Tage t(too_long); }).find(
                "TageConfig.history_lengths[5] = 600"),
            std::string::npos);
  for (const u32 bits : {0u, 1u, 17u}) {
    TageConfig bad_tag;
    bad_tag.tag_bits = bits;
    EXPECT_NE(error_of([&] { Tage t(bad_tag); }).find("TageConfig.tag_bits"),
              std::string::npos)
        << "tag_bits=" << bits;
  }
  TageConfig unsorted;
  unsorted.history_lengths = {4, 19, 9, 40};
  EXPECT_NE(error_of([&] { Tage t(unsorted); }).find(
                "TageConfig.history_lengths[2] = 9"),
            std::string::npos);
  TageConfig repeated;
  repeated.history_lengths = {4, 9, 9};
  EXPECT_NE(error_of([&] { Tage t(repeated); }).find(
                "TageConfig.history_lengths[2]"),
            std::string::npos);
  // The boundaries themselves are accepted.
  TageConfig edge;
  edge.tag_bits = 16;
  edge.history_lengths = {2, 512};
  EXPECT_EQ(error_of([&] { Tage t(edge); }), "");
}

TEST(PredictorConfig, ItTageRejectsBadGeometryNamingTheField) {
  ItTageConfig too_long;
  too_long.history_lengths = {8, 20, 257};
  EXPECT_NE(error_of([&] { ItTage t(too_long); }).find(
                "ItTageConfig.history_lengths[2] = 257"),
            std::string::npos);
  for (const u32 bits : {0u, 17u}) {
    ItTageConfig bad_tag;
    bad_tag.tag_bits = bits;
    EXPECT_NE(
        error_of([&] { ItTage t(bad_tag); }).find("ItTageConfig.tag_bits"),
        std::string::npos)
        << "tag_bits=" << bits;
  }
  ItTageConfig unsorted;
  unsorted.history_lengths = {20, 8, 48};
  EXPECT_NE(error_of([&] { ItTage t(unsorted); }).find(
                "ItTageConfig.history_lengths[1] = 8"),
            std::string::npos);
  ItTageConfig edge;
  edge.tag_bits = 16;
  edge.history_lengths = {1, 256};
  EXPECT_EQ(error_of([&] { ItTage t(edge); }), "");
}

TEST(GlobalHistory, ResetRestoresInitialDigest) {
  GlobalHistory h(64);
  const u64 d0 = h.digest();
  for (int i = 0; i < 10; ++i) h.push(i % 2 == 0);
  h.reset();
  EXPECT_EQ(h.digest(), d0);
}

TEST(Tage, LearnsAlwaysTaken) {
  Tage t;
  const Addr pc = 0x1000;
  for (int i = 0; i < 50; ++i) {
    t.predict(pc);
    t.update(pc, true);
  }
  EXPECT_TRUE(t.predict(pc));
  t.update(pc, true);
  // After warmup the mispredict rate must be very low.
  EXPECT_LT(t.mispredict_rate(), 0.2);
}

TEST(Tage, LearnsAlternatingPattern) {
  // T,NT,T,NT... requires history; bimodal alone cannot learn it.
  Tage t;
  const Addr pc = 0x2000;
  u64 wrong_late = 0;
  for (int i = 0; i < 400; ++i) {
    const bool actual = (i % 2) == 0;
    const bool pred = t.predict(pc);
    if (i >= 300 && pred != actual) ++wrong_late;
    t.update(pc, actual);
  }
  EXPECT_LE(wrong_late, 10u);  // tagged tables capture the pattern
}

TEST(Tage, LearnsLoopExitPattern) {
  // 7 taken, 1 not-taken, repeated: a predictor with history should get the
  // exit right most of the time after warmup.
  Tage t;
  const Addr pc = 0x3000;
  u64 wrong_late = 0;
  for (int i = 0; i < 1600; ++i) {
    const bool actual = (i % 8) != 7;
    const bool pred = t.predict(pc);
    if (i >= 1200 && pred != actual) ++wrong_late;
    t.update(pc, actual);
  }
  EXPECT_LT(wrong_late, 40u);
}

TEST(Tage, DigestReflectsState) {
  Tage a, b;
  EXPECT_EQ(a.digest(), b.digest());
  a.predict(0x1234);
  a.update(0x1234, true);
  EXPECT_NE(a.digest(), b.digest());
  a.reset();
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(Tage, NoteUnconditionalAdvancesHistoryOnly) {
  Tage a, b;
  a.note_unconditional(0x10);
  EXPECT_NE(a.digest(), b.digest());  // history moved
  EXPECT_EQ(a.lookups(), 0u);         // but no prediction made
}

TEST(ItTage, LearnsStableTarget) {
  ItTage t;
  const Addr pc = 0x5000;
  for (int i = 0; i < 20; ++i) t.update(pc, 0x9000);
  EXPECT_EQ(t.predict(pc), 0x9000u);
}

TEST(ItTage, HistoryCorrelatedTargets) {
  // Target alternates in a pattern correlated with preceding targets.
  ItTage t;
  const Addr pc = 0x6000;
  u64 wrong_late = 0;
  for (int i = 0; i < 600; ++i) {
    const Addr target = (i % 2) ? 0xa000 : 0xb000;
    const Addr pred = t.predict(pc);
    if (i >= 500 && pred != target) ++wrong_late;
    t.update(pc, target);
  }
  EXPECT_LT(wrong_late, 20u);
}

TEST(ItTage, DigestTracksState) {
  ItTage a, b;
  EXPECT_EQ(a.digest(), b.digest());
  a.update(0x77, 0x88);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Btb, InsertLookup) {
  Btb btb(256);
  EXPECT_EQ(btb.lookup(0x100), 0u);
  btb.insert(0x100, 0x500);
  EXPECT_EQ(btb.lookup(0x100), 0x500u);
  // Aliasing entry replaces.
  btb.insert(0x100 + 256 * 8, 0x900);
  EXPECT_EQ(btb.lookup(0x100), 0u);
}

TEST(Ras, PushPopNesting) {
  ReturnAddressStack ras(4);
  ras.push(0x10);
  ras.push(0x20);
  EXPECT_EQ(ras.pop(), 0x20u);
  EXPECT_EQ(ras.pop(), 0x10u);
  EXPECT_EQ(ras.pop(), 0u);  // empty
}

TEST(Ras, DepthBounded) {
  ReturnAddressStack ras(2);
  ras.push(1);
  ras.push(2);
  ras.push(3);  // overflows, drops oldest
  EXPECT_EQ(ras.size(), 2u);
  EXPECT_EQ(ras.pop(), 3u);
  EXPECT_EQ(ras.pop(), 2u);
}

}  // namespace
}  // namespace sempe::branch
