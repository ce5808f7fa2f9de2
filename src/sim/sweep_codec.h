// Point (de)serialization for the sweep cache/journal (sim/sweep_cache.h).
//
// Every family's point encodes to a line-oriented text blob and
// decodes back to an *exactly* equal value — u64s in decimal, doubles in
// hexfloat (%a, lossless round-trip), strings escaped — because the whole
// cache contract rests on it: a sweep served from cache or journal must
// serialize to --json output byte-identical to a fresh run. Decoding
// throws SimError on any malformed or missing field; the sweep driver
// treats that as a corrupt entry and re-executes the job.
//
// Each point struct, and each sub-struct a point embeds, has ONE field
// list below — `fields(v, s)` — that drives both directions: PointWriter
// reads the members it visits into the blob, PointReader assigns them
// back, so the field set and order live in one place. The blob opens
// with "sempe-point 1 <family>" so a key collision across families (or a
// framing change) fails loudly instead of mis-decoding.
#pragma once

#include <concepts>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/batch_runner.h"

namespace sempe::sim {

/// Encoding visitor: appends one `<type> <key> <value>` line per field.
class PointWriter {
 public:
  explicit PointWriter(const std::string& family);
  const std::string& str() const { return out_; }

  template <typename T>
  void operator()(const std::string& key, const T& v) {
    if constexpr (std::is_same_v<T, std::string>) {
      put_str(key, v);
    } else if constexpr (std::is_floating_point_v<T>) {
      put_f64(key, v);
    } else {
      put_u64(key, static_cast<u64>(v));
    }
  }
  /// An enum field; `max` bounds it on decode.
  template <typename E>
  void operator()(const std::string& key, const E& v, E /*max*/) {
    put_u64(key, static_cast<u64>(v));
  }
  template <typename S>
  void sub(const std::string& prefix, const S& s) {
    const usize len = prefix_.size();
    prefix_ += prefix;
    fields(*this, s);
    prefix_.resize(len);
  }
  /// `<prefix>n`, then element i as `<prefix>i` (scalars) or under
  /// `<prefix>i.` (structs).
  template <typename T>
  void list(const std::string& prefix, const std::vector<T>& v) {
    put_u64(prefix + "n", v.size());
    for (usize i = 0; i < v.size(); ++i) {
      if constexpr (std::is_class_v<T> && !std::is_same_v<T, std::string>)
        sub(prefix + std::to_string(i) + ".", v[i]);
      else
        (*this)(prefix + std::to_string(i), v[i]);
    }
  }

 private:
  void put_u64(const std::string& key, u64 v);
  void put_f64(const std::string& key, double v);
  void put_str(const std::string& key, const std::string& v);

  std::string prefix_;
  std::string out_;
};

/// Decoding visitor over one parsed blob. Every field throws SimError on
/// a missing key, a type mismatch, or an out-of-range enum.
class PointReader {
 public:
  /// Parses `blob`, checking the header names `family`.
  PointReader(const std::string& family, const std::string& blob);

  template <typename T>
  void operator()(const std::string& key, T& v) const {
    if constexpr (std::is_same_v<T, std::string>) {
      v = get_str(key);
    } else if constexpr (std::is_floating_point_v<T>) {
      v = get_f64(key);
    } else if constexpr (std::is_same_v<T, bool>) {
      v = get_u64(key) != 0;
    } else {
      static_assert(std::is_integral_v<T>, "enum fields need a max");
      v = static_cast<T>(get_u64(key));
    }
  }
  template <typename E>
  void operator()(const std::string& key, E& v, E max) const {
    const u64 n = get_u64(key);
    if (n > static_cast<u64>(max))
      throw SimError("point blob: enum field '" + prefix_ + key +
                     "' out of range");
    v = static_cast<E>(n);
  }
  template <typename S>
  void sub(const std::string& prefix, S& s) {
    const usize len = prefix_.size();
    prefix_ += prefix;
    fields(*this, s);
    prefix_.resize(len);
  }
  template <typename T>
  void list(const std::string& prefix, std::vector<T>& v) {
    const u64 n = get_u64(prefix + "n");
    v.clear();
    for (u64 i = 0; i < n; ++i) {
      T e{};
      if constexpr (std::is_class_v<T> && !std::is_same_v<T, std::string>)
        sub(prefix + std::to_string(i) + ".", e);
      else
        (*this)(prefix + std::to_string(i), e);
      v.push_back(std::move(e));
    }
  }

 private:
  const std::string& raw(const std::string& key, char type) const;
  u64 get_u64(const std::string& key) const;
  double get_f64(const std::string& key) const;
  std::string get_str(const std::string& key) const;

  std::string prefix_;
  std::map<std::string, std::pair<char, std::string>> fields_;
};

// ---------------------------------------------------------------------------
// The field lists. `S` is the struct, const when encoding.

template <typename S, typename T>
concept Of = std::same_as<std::remove_const_t<S>, T>;

void fields(auto& v, Of<pipeline::PipelineStats> auto& s) {
  v("cycles", s.cycles);
  v("instructions", s.instructions);
  v("cond_branches", s.cond_branches);
  v("branch_mispredicts", s.branch_mispredicts);
  v("indirect_mispredicts", s.indirect_mispredicts);
  v("btb_misses", s.btb_misses);
  v("loads", s.loads);
  v("stores", s.stores);
  v("store_forwards", s.store_forwards);
  v("sjmp_executed", s.sjmp_executed);
  v("secure_regions_completed", s.secure_regions_completed);
  v("spm_bytes", s.spm_bytes);
  v("spm_transfer_cycles", s.spm_transfer_cycles);
  v("drain_stall_cycles", s.drain_stall_cycles);
  v("il1_accesses", s.il1_accesses);
  v("il1_misses", s.il1_misses);
  v("dl1_accesses", s.dl1_accesses);
  v("dl1_misses", s.dl1_misses);
  v("l2_accesses", s.l2_accesses);
  v("l2_misses", s.l2_misses);
}

void fields(auto& v, Of<ModeResultCheck> auto& c) {
  v("mode", c.mode);
  v("ok", c.ok);
  v("detail", c.detail);
}

void fields(auto& v, Of<security::ChannelVerdict> auto& c) {
  v("channel", c.channel,
    static_cast<security::Channel>(security::kNumChannels - 1));
  v("num_classes", c.num_classes);
  v("leaked_bits", c.leaked_bits);
  v("first_divergence", c.first_divergence);
  v("stat_verdict", c.stat.verdict,
    static_cast<security::StatVerdict>(security::kNumStatVerdicts - 1));
  v("stat_t", c.stat.t);
  v("stat_dof", c.stat.dof);
  v("stat_effect", c.stat.effect);
  v("stat_mi_bits", c.stat.mi_bits);
  v("stat_n_fixed", c.stat.n_fixed);
  v("stat_n_random", c.stat.n_random);
}

void fields(auto& v, Of<security::ModeAudit> auto& m) {
  v("mode", m.mode);
  v("samples", m.samples);
  v("results_ok", m.results_ok);
  v("mismatch", m.mismatch);
  v("attack", m.attack);
  v("key_bits_total", m.key_bits_total);
  v("key_bits_recovered", m.key_bits_recovered);
  v.list("channels.", m.channels);
}

void fields(auto& v, Of<security::WorkloadAudit> auto& a) {
  v("spec", a.spec);
  v("secret_width", a.secret_width);
  v.list("masks.", a.masks);
  v.list("modes.", a.modes);
  v("stat_pairs", a.stat_pairs);
}

void fields(auto& v, Of<security::TaintFinding> auto& f) {
  v("kind", f.kind, security::TaintKind::kSecretIndirect);
  v("pc", f.pc);
  v("detail", f.detail);
}

void fields(auto& v, Of<security::LintResult> auto& r) {
  v.list("findings.", r.findings);
  v("passes", r.passes);
  v("tainted_branches", r.tainted_branches);
  v("excused_sjmps", r.excused_sjmps);
}

void fields(auto& v, Of<security::WorkloadLint> auto& l) {
  v("spec", l.spec);
  v("secret_width", l.secret_width);
  v("has_cte", l.has_cte);
  v.sub("natural_legacy.", l.natural_legacy);
  v.sub("natural_sempe.", l.natural_sempe);
  v.sub("cte.", l.cte);
}

void fields(auto& v, Of<WorkloadPoint> auto& p) {
  v("spec", p.spec);
  v("has_cte", p.has_cte);
  v("results_ok", p.results_ok);
  v.list("checks.", p.checks);
  v.sub("baseline_stats.", p.baseline_stats);
  v.sub("sempe_stats.", p.sempe_stats);
  v.sub("cte_stats.", p.cte_stats);
  v("baseline_cycles", p.baseline_cycles);
  v("sempe_cycles", p.sempe_cycles);
  v("cte_cycles", p.cte_cycles);
  v("baseline_instructions", p.baseline_instructions);
  v("sempe_instructions", p.sempe_instructions);
  v("cte_instructions", p.cte_instructions);
}

void fields(auto& v, Of<AuditPoint> auto& p) {
  v.sub("lint.", p.lint);
  v.sub("audit.", p.audit);
  v.list("failures.", p.failures);
  v.list("warnings.", p.warnings);
}

template <typename F>
std::string encode_point(const typename F::Point& p) {
  PointWriter w(F::kName);
  fields(w, p);
  return w.str();
}

template <typename F>
typename F::Point decode_point(const std::string& blob) {
  PointReader r(F::kName, blob);
  typename F::Point p;
  fields(r, p);
  return p;
}

}  // namespace sempe::sim
