#include "branch/tage.h"

#include "util/bits.h"
#include "util/check.h"

namespace sempe::branch {

Tage::Tage(const TageConfig& cfg) : cfg_(cfg), history_(512) {
  SEMPE_CHECK_MSG(is_pow2(cfg.bimodal_entries),
                  "TageConfig.bimodal_entries = " << cfg.bimodal_entries
                                                  << ": must be a power of two");
  SEMPE_CHECK_MSG(!cfg.history_lengths.empty(),
                  "TageConfig.history_lengths is empty");
  // tag_for() also folds to tag_bits - 1, so a tag needs two bits.
  check_tagged_geometry("TageConfig", cfg.history_lengths, cfg.tagged_entries,
                        cfg.tag_bits, 2, history_.size());
  bimodal_.assign(cfg.bimodal_entries, 2);  // weakly taken
  tables_.assign(cfg.history_lengths.size(),
                 std::vector<TaggedEntry>(cfg.tagged_entries));
  index_bits_ = log2_floor(cfg.tagged_entries);
  tag_mask_ = low_mask(cfg.tag_bits);
  for (const usize len : cfg.history_lengths)
    folds_.push_back({history_.add_fold(len, index_bits_),
                      history_.add_fold(len, cfg.tag_bits),
                      history_.add_fold(len, cfg.tag_bits - 1)});
}

usize Tage::index_for(usize table, Addr pc) const {
  const u64 h = history_.value(folds_[table].index);
  const u64 p = (pc >> 3) ^ (pc >> (3 + index_bits_)) ^ (table * 0x9e37u);
  return static_cast<usize>((p ^ h) & (cfg_.tagged_entries - 1));
}

u16 Tage::tag_for(usize table, Addr pc) const {
  const u64 h = history_.value(folds_[table].tag);
  const u64 h2 = history_.value(folds_[table].tag2) << 1;
  return static_cast<u16>(((pc >> 3) ^ h ^ h2) & tag_mask_);
}

Tage::Prediction Tage::lookup(Addr pc) const {
  Prediction p;
  p.bimodal_index = static_cast<usize>((pc >> 3) & (bimodal_.size() - 1));
  p.bimodal_taken = bimodal_[p.bimodal_index] >= 2;
  p.taken = p.bimodal_taken;
  p.alt_taken = p.bimodal_taken;

  // Find the two longest-history hits.
  int provider = -1;
  int alt = -1;
  for (int t = static_cast<int>(tables_.size()) - 1; t >= 0; --t) {
    const usize idx = index_for(static_cast<usize>(t), pc);
    const TaggedEntry& e = tables_[static_cast<usize>(t)][idx];
    if (e.tag == tag_for(static_cast<usize>(t), pc)) {
      if (provider < 0) {
        provider = t;
        p.provider_table = static_cast<usize>(t);
        p.provider_index = idx;
      } else if (alt < 0) {
        alt = t;
        p.alt_taken = e.ctr >= 0;
        break;
      }
    }
  }
  if (provider >= 0) {
    p.provider_valid = true;
    const TaggedEntry& e = tables_[p.provider_table][p.provider_index];
    p.taken = e.ctr >= 0;
    if (alt < 0) p.alt_taken = p.bimodal_taken;
  }
  return p;
}

bool Tage::predict(Addr pc) {
  last_ = lookup(pc);
  last_pc_ = pc;
  have_last_ = true;
  ++lookups_;
  return last_.taken;
}

void Tage::update(Addr pc, bool taken) {
  // Recompute if predict() wasn't the immediately preceding call for this pc
  // (defensive; the pipeline always pairs them).
  if (!have_last_ || last_pc_ != pc) last_ = lookup(pc);
  have_last_ = false;
  const Prediction& p = last_;

  if (p.taken != taken) ++mispredicts_;

  auto bump = [](i8& ctr, bool up, i8 lo, i8 hi) {
    if (up && ctr < hi) ++ctr;
    if (!up && ctr > lo) --ctr;
  };

  // Update provider (or bimodal when no provider).
  if (p.provider_valid) {
    TaggedEntry& e = tables_[p.provider_table][p.provider_index];
    bump(e.ctr, taken, -4, 3);
    // Useful counter: provider was right where alternate was wrong.
    if (p.taken != p.alt_taken) {
      if (p.taken == taken) {
        if (e.useful < 3) ++e.useful;
      } else if (e.useful > 0) {
        --e.useful;
      }
    }
  } else {
    u8& c = bimodal_[p.bimodal_index];
    if (taken && c < 3) ++c;
    if (!taken && c > 0) --c;
  }

  // Allocate a longer-history entry on misprediction.
  if (p.taken != taken) {
    const usize start = p.provider_valid ? p.provider_table + 1 : 0;
    bool allocated = false;
    // Deterministic pseudo-random start table avoids ping-pong allocation.
    alloc_seed_ = alloc_seed_ * 6364136223846793005ull + 1442695040888963407ull;
    for (usize t = start; t < tables_.size(); ++t) {
      const usize idx = index_for(t, pc);
      TaggedEntry& e = tables_[t][idx];
      if (e.useful == 0) {
        e.tag = tag_for(t, pc);
        e.ctr = taken ? 0 : -1;
        e.useful = 0;
        allocated = true;
        break;
      }
    }
    if (!allocated) {
      // Decay usefulness so that future allocations can succeed.
      for (usize t = start; t < tables_.size(); ++t) {
        TaggedEntry& e = tables_[t][index_for(t, pc)];
        if (e.useful > 0) --e.useful;
      }
    }
  }

  history_.push(taken);
}

void Tage::note_unconditional(Addr pc) {
  (void)pc;
  history_.push(true);
}

u64 Tage::digest() const {
  u64 h = 1469598103934665603ull;
  auto mix = [&h](u64 v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (u8 c : bimodal_) mix(c);
  for (const auto& tbl : tables_) {
    for (const TaggedEntry& e : tbl) {
      mix(static_cast<u64>(static_cast<u8>(e.ctr)));
      mix(e.tag);
      mix(e.useful);
    }
  }
  mix(history_.digest());
  return h;
}

void Tage::reset() {
  bimodal_.assign(bimodal_.size(), 2);
  for (auto& tbl : tables_)
    for (auto& e : tbl) e = TaggedEntry{};
  history_.reset();
  lookups_ = mispredicts_ = 0;
  have_last_ = false;
}

}  // namespace sempe::branch
