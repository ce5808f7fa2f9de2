#include "workloads/attack.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "isa/program_builder.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/rng.h"
#include "workloads/scenarios.h"
#include "workloads/workload_regs.h"

namespace sempe::workloads {
namespace {

using isa::ProgramBuilder;

enum class AttackKind : u8 { kPrimeProbe, kFlushReload };

const char* attack_name(AttackKind k) {
  return k == AttackKind::kPrimeProbe ? "attack.prime_probe"
                                      : "attack.flush_reload";
}

/// Everything one spec resolves to: the victim kernel, the harness shape,
/// and the co-residence knobs.
struct ResolvedAttack {
  WorkloadSpec spec;  // canonical (every resolved key echoed)
  KernelSpec victim;
  HarnessConfig harness{};
  u64 seed = 42;  // the victim's input-image seed
  usize set_bits = 4;
  Cycle quantum = 2000;
  u64 passes = 0;  // 0 = auto-calibrate in run_attack
};

/// The co-residence knobs, resolved like a harnessed row's kernel keys.
const std::vector<KernelKey>& attack_keys() {
  static const std::vector<KernelKey> keys = {
      {.name = "set_bits", .fallback = 4, .min = 1, .max = 8,
       .help = "watched DL1 sets (or lines) per secret bit: 2^n",
       .zero_is_default = true},
      {.name = "quantum", .fallback = 2000, .min = 1, .max = ~u64{0},
       .help = "scheduler quantum in cycles (0 = default)",
       .zero_is_default = true},
      {"passes", 0, 0, 1u << 20,
       "probe passes (0 = auto-calibrate vs the victim)"},
  };
  return keys;
}

std::vector<ParamInfo> attack_params() {
  std::vector<ParamInfo> out = {
      {"victim", "crypto.modexp",
       "victim kernel: crypto.aes, crypto.modexp, or ds.hash_probe"},
      {"size", "0", "victim problem size (0 = victim default)"},
      {"bits", "0", "crypto.modexp exponent bits (0 = default)"},
      {"rounds", "0", "crypto.aes round passes (0 = default)"},
      {"slots", "0", "ds.hash_probe table slots (0 = default)"},
      {"fill", "0", "ds.hash_probe occupancy per mille (0 = default)"},
  };
  for (const KernelKey& key : attack_keys())
    out.push_back({key.name, std::to_string(key.fallback), key.help});
  out.push_back({"width", "1", "secret bits (one flat level per bit)"});
  out.push_back({"iters", "4", "victim harness iterations"});
  out.push_back({"secrets", "1", "0/1 string or 0bNNN mask literal"});
  out.push_back({"seed", "42", "victim input-image seed"});
  return out;
}

bool row_has_key(const HarnessedRow& row, const char* name) {
  for (const KernelKey& key : row.keys)
    if (std::string(key.name) == name) return true;
  return false;
}

ResolvedAttack resolve_attack(const WorkloadSpec& in, Variant variant) {
  WorkloadSpec spec = in;
  spec.check_keys(attack_params());
  ResolvedAttack r;

  const std::string victim = spec.get("victim", "crypto.modexp");
  spec.set("victim", victim);
  const HarnessedRow* row = nullptr;
  std::string accepted;
  for (const HarnessedRow& candidate : scenario_rows()) {
    if (victim == candidate.name) row = &candidate;
    accepted += (accepted.empty() ? "" : ", ") + std::string(candidate.name);
  }
  if (row == nullptr)
    throw SimError("workload '" + spec.name + "': unknown victim '" + victim +
                   "' (accepted: " + accepted + ")");
  // Another victim's knob must stay at its 0 fallback — a non-zero value
  // would be silently ignored.
  for (const HarnessedRow& other : scenario_rows())
    for (const KernelKey& key : other.keys)
      if (!row_has_key(*row, key.name) && spec.get_u64(key.name, 0) != 0)
        throw SimError("workload '" + spec.name + "': parameter '" +
                       key.name + "' does not apply to victim '" + victim +
                       "'");
  // Every victim knob defaults at 0, so the catalog shows one default for
  // all three victims; the victim row's ranges still apply.
  const KernelArgs knobs =
      resolve_keys(row->keys, spec, /*zero_is_default_everywhere=*/true);
  const KernelArgs co = resolve_keys(attack_keys(), spec);
  r.set_bits = co["set_bits"];
  r.quantum = co["quantum"];
  r.passes = co["passes"];

  apply_harness_defaults(spec);
  r.seed = spec.get_u64("seed", 42);
  r.harness = harness_config_from_spec(spec, variant);
  if (r.harness.width == 0)
    throw SimError("workload '" + spec.name +
                   "': width=0 out of range [1, 30] (one flat level per "
                   "secret bit)");
  r.victim = row->make(knobs, r.seed);
  r.victim.name = row->name;
  r.spec = std::move(spec);
  return r;
}

/// Deterministic Fisher–Yates over node addresses. A permuted chase order
/// never presents the PC-indexed stride prefetcher with a stable stride,
/// and spreads the probe sequence over the set space.
void shuffle_addrs(std::vector<Addr>& v, Rng& rng) {
  for (usize i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.next_below(i)]);
}

/// Link the nodes into a cyclic pointer chain in visit order (each node
/// holds the address of the next) and return the head.
Addr build_chain(ProgramBuilder& pb, const std::vector<Addr>& order) {
  SEMPE_CHECK(!order.empty());
  for (usize i = 0; i < order.size(); ++i)
    pb.poke_word(order[i], static_cast<i64>(order[(i + 1) % order.size()]));
  return order.front();
}

/// Tail-first per-level candidate lines: the level's private input copy
/// (last line first — the bytes a kernel pass is most certain to touch sit
/// furthest from any neighbouring stream), then its working buffer.
std::vector<Addr> level_candidate_lines(const FlatLevel& fl, usize line) {
  std::vector<Addr> out;
  const auto push_rev = [&](Addr base, usize bytes) {
    if (base == 0 || bytes == 0) return;
    const Addr mask = ~static_cast<Addr>(line - 1);
    const Addr first = base & mask;
    for (Addr a = (base + bytes - 1) & mask;; a -= line) {
      out.push_back(a);
      if (a == first) break;
    }
  };
  push_rev(fl.input, fl.input_bytes);
  push_rev(fl.buf, fl.buf_bytes);
  return out;
}

/// DL1-set footprint of one level: its whole allocation span including the
/// out_slot and the trailing prefetch-guard gap (which ends exactly where
/// the next level's allocations begin).
void insert_level_sets(const FlatLevel& fl, usize line, usize sets,
                       std::unordered_set<usize>& out) {
  const Addr lo = fl.input != 0 ? fl.input : (fl.buf != 0 ? fl.buf : fl.out_slot);
  const Addr hi =
      ((fl.out_slot + 8 + line - 1) & ~static_cast<Addr>(line - 1)) + 192;
  for (Addr a = lo & ~static_cast<Addr>(line - 1); a < hi; a += line)
    out.insert(static_cast<usize>(a / line) % sets);
}

class AttackGenerator final : public WorkloadGenerator {
 public:
  explicit AttackGenerator(AttackKind kind) : kind_(kind) {}

  std::string name() const override { return attack_name(kind_); }

  std::string summary() const override {
    const std::string common =
        " attacker vs a flat-harness scenario victim (victim, size, bits, "
        "rounds, slots, fill, set_bits, quantum, passes, width, iters, "
        "secrets, seed)";
    return kind_ == AttackKind::kPrimeProbe
               ? "co-resident prime+probe" + common
               : "co-resident flush+reload (shared-window)" + common;
  }

  usize secret_width(const WorkloadSpec& spec) const override {
    return static_cast<usize>(spec.get_u64("width", 1));
  }

  std::vector<ParamInfo> params() const override { return attack_params(); }

  BuiltWorkload build(const WorkloadSpec& in, Variant variant) const override {
    const ResolvedAttack r = resolve_attack(in, variant);
    BuiltHarness b = build_flat_harness(r.victim, r.harness);
    BuiltWorkload out;
    out.program = std::move(b.program);
    out.spec = r.spec.to_string();
    out.results_addr = b.results_addr;
    out.num_results = b.num_results;
    out.expected_results = std::move(b.expected_results);
    return out;
  }

  bool is_attack() const override { return true; }

  AttackOutcome run_attack(const WorkloadSpec& spec, Variant variant,
                           cpu::ExecMode victim_mode) const override;

 private:
  AttackKind kind_;
};

AttackOutcome AttackGenerator::run_attack(const WorkloadSpec& in,
                                          Variant variant,
                                          cpu::ExecMode victim_mode) const {
  const ResolvedAttack r = resolve_attack(in, variant);
  const KernelSpec& kspec = r.victim;
  const BuiltHarness victim = build_flat_harness(kspec, r.harness);
  const usize W = r.harness.width;

  // Cache geometry: every tenant runs the default Table II machine, and
  // the scheduler builds the shared hierarchy from the victim's config.
  const pipeline::PipelineConfig pcfg{};
  const mem::HierarchyConfig& mc = pcfg.memory;
  const usize line = mc.dl1.line_bytes;
  const usize dl1_sets = mc.dl1.size_bytes / line / mc.dl1.assoc;
  const usize dl1_ways = mc.dl1.assoc;
  // A load that hit DL1 completed in exactly load_base + dl1_hit cycles;
  // anything slower went at least to L2. (The attacker never stores, so
  // store-forwarding can never fake a fast completion.)
  const Cycle hit_thresh = pcfg.load_base_latency + mc.dl1_hit_latency;
  const usize cap = static_cast<usize>(1) << r.set_bits;
  const auto set_of = [&](Addr a) {
    return static_cast<usize>(a / line) % dl1_sets;
  };

  // -------------------------------------------------------------------------
  // Probe plan.
  //
  // prime+probe: pick up to 2^set_bits DL1 sets per level that only that
  // level's footprint maps to — excluding the sets of the harness-shared
  // secrets/results words (touched every iteration regardless of the
  // mask) and of every other level's span. A probe miss in such a set
  // localizes to one secret bit.
  std::unordered_map<usize, usize> set_to_level;  // prime+probe reduction
  std::vector<usize> pp_sets;                     // selection order
  // flush+reload: watch the victim's own line addresses directly (they
  // are untagged inside the shared window), up to 2^set_bits per level.
  std::unordered_map<Addr, usize> line_to_level;  // flush+reload reduction
  std::vector<Addr> reload_lines;                 // insertion order
  if (kind_ == AttackKind::kPrimeProbe) {
    std::vector<std::unordered_set<usize>> foot(W);
    for (usize w = 0; w < W; ++w)
      insert_level_sets(victim.flat_levels[w], line, dl1_sets, foot[w]);
    std::unordered_set<usize> shared_sets;
    for (Addr a = victim.secrets_addr; a < victim.secrets_addr + W * 8;
         a += line)
      shared_sets.insert(set_of(a));
    for (Addr a = victim.results_addr; a < victim.results_addr + W * 8;
         a += line)
      shared_sets.insert(set_of(a));
    // The constant-time merge phase reads every out_slot unconditionally
    // each iteration, so those sets carry no secret signal either.
    for (const FlatLevel& fl : victim.flat_levels)
      shared_sets.insert(set_of(fl.out_slot));
    for (usize w = 0; w < W; ++w) {
      usize taken = 0;
      for (const Addr a : level_candidate_lines(victim.flat_levels[w], line)) {
        const usize s = set_of(a);
        if (shared_sets.count(s) != 0 || set_to_level.count(s) != 0) continue;
        bool aliased = false;
        for (usize v = 0; v < W && !aliased; ++v)
          aliased = v != w && foot[v].count(s) != 0;
        if (aliased) continue;
        set_to_level.emplace(s, w);
        pp_sets.push_back(s);
        if (++taken >= cap) break;
      }
      if (taken == 0)
        throw SimError(name() + ": level " + std::to_string(w + 1) +
                       " has no private DL1 set to watch (victim levels "
                       "alias in set space; reduce size or width)");
    }
  } else {
    for (usize w = 0; w < W; ++w) {
      usize taken = 0;
      for (const Addr a : level_candidate_lines(victim.flat_levels[w], line)) {
        if (line_to_level.count(a) != 0) continue;
        line_to_level.emplace(a, w);
        reload_lines.push_back(a);
        if (++taken >= cap) break;
      }
      if (taken == 0)
        throw SimError(name() + ": level " + std::to_string(w + 1) +
                       " has no data line to reload (victim kernel has no "
                       "per-level input or buffer)");
    }
  }

  // The shared read-only window for flush+reload: the victim's whole data
  // region. The victim allocates from kDataBase up; the attacker's own
  // buffers are pushed above the window so they stay tenant-tagged.
  Addr window_hi = victim.results_addr + W * 8;
  for (const FlatLevel& fl : victim.flat_levels)
    window_hi = std::max(window_hi, fl.out_slot + 8 + 64 + 192);

  // Per-pass probe-load count, known before the attacker program exists
  // (the auto-calibrated pass count feeds its loop bound). The prime
  // targets ONLY the watched sets — a whole-cache chase would take several
  // quanta per pass and erase (re-evict) victim touches racing with its
  // own cold prime; the targeted chase keeps each pass well inside one
  // quantum, so eviction evidence survives until the next probe.
  const usize prime_nodes = dl1_ways * pp_sets.size();
  const usize evict_nodes = 2 * reload_lines.size();
  const usize pass_loads = kind_ == AttackKind::kPrimeProbe
                               ? prime_nodes
                               : evict_nodes + reload_lines.size();

  // Auto-calibrate the pass count so the attacker outlives the victim in
  // this mode: size against the ALL-ONES victim (its slowest legacy
  // point, and the exact runtime of the mask-independent SeMPE/CTE
  // points), so the resulting attacker binary is the same for every
  // secret vector — a mask-dependent probe program would itself be a
  // distinguisher. The warm-pass estimate deliberately undershoots
  // (misses cost more), which only makes the attacker outlast the victim.
  u64 passes = r.passes;
  if (passes == 0) {
    HarnessConfig cal_cfg = r.harness;
    cal_cfg.secrets.assign(W, 1);
    const BuiltHarness cal = build_flat_harness(kspec, cal_cfg);
    sim::RunConfig cal_rc;
    cal_rc.core.mode = victim_mode;
    cal_rc.record_observations = false;
    const Cycle victim_cycles = sim::run(cal.program, cal_rc).stats.cycles;
    const Cycle warm_pass =
        static_cast<Cycle>(pass_loads) *
        (pcfg.load_base_latency + mc.dl1_hit_latency + 2);
    passes = victim_cycles / (warm_pass == 0 ? 1 : warm_pass) + 8;
  }

  // -------------------------------------------------------------------------
  // Attacker program.
  Rng rng(r.seed * 0x9E3779B97F4A7C15ull ^ 0xA77AC4ull);
  ProgramBuilder apb;
  Addr probe_base = 0;  // prime+probe chase region
  const auto emit_pass_loop = [&](const std::vector<std::pair<isa::Reg,
                                                              usize>>& chains,
                                  u64 pass_count) {
    // Chains are cyclic, so each chase of `len` steps ends back at the
    // head — no per-pass pointer reset needed.
    const isa::Reg r_pass = k(8);
    const isa::Reg r_last = k(9);
    apb.li64(r_pass, 0);
    apb.li64(r_last, static_cast<i64>(pass_count));
    const auto top = apb.new_label();
    apb.bind(top);
    for (const auto& [reg, len] : chains)
      for (usize i = 0; i < len; ++i) apb.ld(reg, reg, 0);
    apb.addi(r_pass, r_pass, 1);
    apb.blt(r_pass, r_last, top);
    apb.halt();
  };

  if (kind_ == AttackKind::kPrimeProbe) {
    // A DL1-sized-times-associativity buffer gives the attacker `assoc`
    // private lines in every set; the chase visits only the watched sets'
    // lines, filling both ways (so any later victim touch must evict one)
    // and classifying each load as hit/miss in the same sweep.
    probe_base = apb.alloc(dl1_ways * dl1_sets * line, line);
    const usize base_set = set_of(probe_base);
    std::vector<Addr> order;
    order.reserve(prime_nodes);
    for (const usize s : pp_sets) {
      const usize idx = (s + dl1_sets - base_set) % dl1_sets;
      for (usize way = 0; way < dl1_ways; ++way)
        order.push_back(probe_base + (way * dl1_sets + idx) * line);
    }
    shuffle_addrs(order, rng);
    const Addr head = build_chain(apb, order);
    apb.li64(k(0), static_cast<i64>(head));
    emit_pass_loop({{k(0), prime_nodes}}, passes);
  } else {
    // Keep every private allocation above the shared window, then lay out
    // the evict buffer: two lines per watched DL1 set (the associativity),
    // which forces the watched untagged lines out of DL1 each pass.
    apb.alloc(static_cast<usize>(window_hi - isa::kDataBase), 64);
    const Addr ebuf = apb.alloc(2 * dl1_sets * line, line);
    const usize ebase_set = set_of(ebuf);
    std::vector<Addr> evict_order;
    std::vector<usize> watched_sets;
    for (const Addr a : reload_lines) {
      const usize s = set_of(a);
      if (std::find(watched_sets.begin(), watched_sets.end(), s) !=
          watched_sets.end())
        continue;
      watched_sets.push_back(s);
      const usize idx = (s + dl1_sets - ebase_set) % dl1_sets;
      evict_order.push_back(ebuf + idx * line);
      evict_order.push_back(ebuf + (idx + dl1_sets) * line);
    }
    std::vector<Addr> reload_order = reload_lines;
    shuffle_addrs(evict_order, rng);
    shuffle_addrs(reload_order, rng);
    const Addr ehead = build_chain(apb, evict_order);
    const Addr rhead = build_chain(apb, reload_order);
    apb.li64(k(0), static_cast<i64>(ehead));
    apb.li64(k(1), static_cast<i64>(rhead));
    emit_pass_loop({{k(0), evict_order.size()}, {k(1), reload_order.size()}},
                   passes);
  }
  const isa::Program attacker = apb.build();

  // -------------------------------------------------------------------------
  // Co-residence run: victim is tenant 0 (untagged — the N=1-identical
  // slot, and the address space flush+reload shares), attacker tenant 1.
  sim::TenantConfig vt;
  vt.program = &victim.program;
  vt.run.core.mode = victim_mode;
  vt.run.record_observations = false;
  vt.run.probe_addr = victim.results_addr;
  vt.run.probe_words = victim.num_results;
  sim::TenantConfig at;
  at.program = &attacker;
  at.run.record_observations = true;
  sim::SchedulerConfig sc;
  sc.quantum = r.quantum;
  if (kind_ == AttackKind::kFlushReload) {
    sc.shared_lo = isa::kDataBase;
    sc.shared_hi = window_hi;
  }
  sim::Scheduler sched({vt, at}, sc);

  std::vector<u8> touched(W, 0);
  u64 probe_hash = security::ObservationTrace::kFnvInit;
  u64 probe_count = 0;
  u64 probe_idx = 0;
  sched.core(1).pipe().on_retire = [&](const cpu::DynOp& op,
                                       const pipeline::OpTimestamps& ts) {
    if (!op.is_mem || op.is_store) return;
    const Cycle lat = ts.complete - ts.issue;
    if (kind_ == AttackKind::kPrimeProbe) {
      if (op.mem_addr < probe_base ||
          op.mem_addr >= probe_base + dl1_ways * dl1_sets * line)
        return;
      const bool miss = lat > hit_thresh;
      probe_hash = security::ObservationTrace::fnv(probe_hash, miss ? 1 : 0);
      ++probe_count;
      const u64 pass = probe_idx / prime_nodes;
      ++probe_idx;
      // Pass 0 is the cold prime: every load misses, telling the
      // attacker nothing about the victim.
      if (pass == 0 || !miss) return;
      const auto it = set_to_level.find(set_of(op.mem_addr));
      if (it != set_to_level.end()) touched[it->second] = 1;
    } else {
      const auto it = line_to_level.find(op.mem_addr);
      if (it == line_to_level.end()) return;  // an evict-chain load
      const bool hit = lat <= hit_thresh;
      probe_hash = security::ObservationTrace::fnv(probe_hash, hit ? 1 : 0);
      ++probe_count;
      // A reload can only hit DL1 if the victim touched the shared line
      // after the attacker's own evict — even the cold first pass can
      // witness a touch from the victim's opening quantum, so every pass
      // counts.
      if (hit) touched[it->second] = 1;
    }
  };

  std::vector<sim::RunResult> results = sched.run_to_halt();

  AttackOutcome out;
  out.spec = r.spec.to_string();
  for (usize w = 0; w < W; ++w)
    if (touched[w] != 0) out.guessed_mask |= 1ull << w;
  out.attacker_view = results[1].trace;
  out.attacker_view.probe_hash = probe_hash;
  out.attacker_view.probe_count = probe_count;
  out.attacker_view.mark(security::Channel::kProbe);
  out.results_ok = results[0].probed == victim.expected_results;
  if (!out.results_ok)
    out.mismatch =
        sim::first_result_mismatch(results[0].probed, victim.expected_results);
  return out;
}

}  // namespace

void register_attack_workloads(WorkloadRegistry& reg) {
  reg.add(std::make_unique<AttackGenerator>(AttackKind::kPrimeProbe));
  reg.add(std::make_unique<AttackGenerator>(AttackKind::kFlushReload));
}

}  // namespace sempe::workloads
