#include "branch/ittage.h"

#include "util/bits.h"
#include "util/check.h"

namespace sempe::branch {

ItTage::ItTage(const ItTageConfig& cfg) : cfg_(cfg), history_(256) {
  SEMPE_CHECK_MSG(is_pow2(cfg.base_entries),
                  "ItTageConfig.base_entries = " << cfg.base_entries
                                                 << ": must be a power of two");
  check_tagged_geometry("ItTageConfig", cfg.history_lengths,
                        cfg.tagged_entries, cfg.tag_bits, 1, history_.size());
  base_.assign(cfg.base_entries, 0);
  tables_.assign(cfg.history_lengths.size(),
                 std::vector<Entry>(cfg.tagged_entries));
  tag_mask_ = low_mask(cfg.tag_bits);
  const u32 index_bits = log2_floor(cfg.tagged_entries);
  for (const usize len : cfg.history_lengths)
    folds_.push_back({history_.add_fold(len, index_bits),
                      history_.add_fold(len, cfg.tag_bits)});
}

usize ItTage::index_for(usize table, Addr pc) const {
  const u64 h = history_.value(folds_[table].index);
  return static_cast<usize>(((pc >> 3) ^ h ^ (table * 0x51ull)) &
                            (cfg_.tagged_entries - 1));
}

u16 ItTage::tag_for(usize table, Addr pc) const {
  const u64 h = history_.value(folds_[table].tag);
  return static_cast<u16>(((pc >> 3) ^ (h << 1) ^ h) & tag_mask_);
}

Addr ItTage::predict(Addr pc) {
  ++lookups_;
  for (int t = static_cast<int>(tables_.size()) - 1; t >= 0; --t) {
    const Entry& e = tables_[static_cast<usize>(t)]
                            [index_for(static_cast<usize>(t), pc)];
    if (e.target != 0 && e.tag == tag_for(static_cast<usize>(t), pc) &&
        e.conf >= 1)
      return e.target;
  }
  return base_[(pc >> 3) & (base_.size() - 1)];
}

void ItTage::update(Addr pc, Addr target) {
  // Re-derive the provider the same way predict() did.
  int provider = -1;
  for (int t = static_cast<int>(tables_.size()) - 1; t >= 0; --t) {
    Entry& e = tables_[static_cast<usize>(t)]
                      [index_for(static_cast<usize>(t), pc)];
    if (e.target != 0 && e.tag == tag_for(static_cast<usize>(t), pc) &&
        e.conf >= 1) {
      provider = t;
      break;
    }
  }

  const Addr predicted = provider >= 0
                             ? tables_[static_cast<usize>(provider)]
                                      [index_for(static_cast<usize>(provider), pc)]
                                          .target
                             : base_[(pc >> 3) & (base_.size() - 1)];
  const bool correct = predicted == target;
  if (!correct) ++mispredicts_;

  if (provider >= 0) {
    Entry& e = tables_[static_cast<usize>(provider)]
                      [index_for(static_cast<usize>(provider), pc)];
    if (correct) {
      if (e.conf < 3) ++e.conf;
      if (e.useful < 3) ++e.useful;
    } else {
      if (e.conf > 0) --e.conf;
      if (e.conf == 0) e.target = target;
      if (e.useful > 0) --e.useful;
    }
  }
  base_[(pc >> 3) & (base_.size() - 1)] = target;

  if (!correct) {
    // Allocate in a longer-history table.
    for (usize t = static_cast<usize>(provider + 1); t < tables_.size(); ++t) {
      Entry& e = tables_[t][index_for(t, pc)];
      if (e.useful == 0) {
        e = {.target = target, .tag = tag_for(t, pc), .conf = 1, .useful = 0};
        break;
      }
      if (e.useful > 0) --e.useful;
    }
  }

  // Push two folded target bits into the path history (folding ensures
  // distinct targets contribute distinct history even when their low bits
  // coincide, e.g. page-aligned jump tables).
  const u64 folded = fold_bits(target >> 3, 2);
  history_.push(folded & 1);
  history_.push((folded >> 1) & 1);
}

u64 ItTage::digest() const {
  u64 h = 1469598103934665603ull;
  auto mix = [&h](u64 v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (Addr a : base_) mix(a);
  for (const auto& tbl : tables_) {
    for (const Entry& e : tbl) {
      mix(e.target);
      mix(e.tag);
      mix(e.conf);
      mix(e.useful);
    }
  }
  mix(history_.digest());
  return h;
}

void ItTage::reset() {
  base_.assign(base_.size(), 0);
  for (auto& tbl : tables_)
    for (auto& e : tbl) e = Entry{};
  history_.reset();
  lookups_ = mispredicts_ = 0;
}

}  // namespace sempe::branch
