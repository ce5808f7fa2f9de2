#include "workloads/harness.h"

#include <algorithm>

#include "util/check.h"
#include "workloads/workload_regs.h"

namespace sempe::workloads {

using isa::ProgramBuilder;
using isa::Secure;
using Label = ProgramBuilder::Label;

void emit_guard_select(ProgramBuilder& pb, isa::Reg dst, isa::Reg val,
                       isa::Reg scratch) {
  pb.and_(scratch, val, rGuardMask);
  pb.and_(dst, dst, rGuardNot);
  pb.or_(dst, dst, scratch);
}

void emit_out_slot(ProgramBuilder& pb, const KernelParams& p, isa::Reg sum,
                   isa::Reg slot, isa::Reg old, isa::Reg scratch, bool cte) {
  pb.li(slot, static_cast<i64>(p.out_slot));
  if (cte) {
    pb.ld(old, slot, 0);
    emit_guard_select(pb, old, sum, scratch);
    pb.st(old, slot, 0);
  } else {
    pb.st(sum, slot, 0);
  }
}

KernelKey size_key(u64 fallback, u64 min, u64 max, const char* help) {
  return {.name = "size", .fallback = fallback, .min = min, .max = max,
          .help = help, .zero_is_default = true};
}

u64 KernelArgs::operator[](std::string_view key) const {
  for (const auto& [k, v] : values_)
    if (k == key) return v;
  SEMPE_CHECK_MSG(false, workload_ << ": key '" << key << "' not resolved");
  return 0;  // unreachable: SEMPE_CHECK throws
}

std::vector<u8> secrets_from_mask(u64 mask, usize width) {
  SEMPE_CHECK_MSG(width >= 64 || (mask >> width) == 0,
                  "secret mask 0x" << std::hex << mask << std::dec
                                   << " does not fit in width " << width);
  std::vector<u8> secrets(width);
  for (usize w = 0; w < width; ++w)
    secrets[w] = static_cast<u8>((mask >> w) & 1);
  return secrets;
}

std::string secrets_literal(u64 mask, usize width) {
  SEMPE_CHECK_MSG(width >= 64 || (mask >> width) == 0,
                  "secret mask 0x" << std::hex << mask << std::dec
                                   << " does not fit in width " << width);
  std::string out = "0b";
  if (width == 0) return out + "0";
  for (usize w = width; w-- > 0;)
    out += ((mask >> w) & 1) ? '1' : '0';
  return out;
}

BuiltHarness build_harness(const KernelSpec& spec, const HarnessConfig& cfg) {
  SEMPE_CHECK_MSG(cfg.iterations > 0, "iterations must be positive");
  SEMPE_CHECK_MSG(cfg.width <= 30, "width exceeds jbTable capacity");
  SEMPE_CHECK_MSG(spec.emit != nullptr,
                  spec.name << " has no natural emitter");
  SEMPE_CHECK_MSG(cfg.variant != Variant::kCte || spec.emit_cte != nullptr,
                  spec.name << " has no CTE form");

  const usize W = cfg.width;
  const usize levels = W + 1;

  ProgramBuilder pb;

  // --- Data layout -----------------------------------------------------------
  // Secrets: W words of 0/1.
  std::vector<i64> secret_words(std::max<usize>(W, 1), 0);
  for (usize w = 0; w < W; ++w)
    secret_words[w] = (w < cfg.secrets.size() && cfg.secrets[w]) ? 1 : 0;
  const Addr secrets_addr = pb.alloc_words(secret_words);

  // Merged results: one word per level.
  const Addr results_addr = pb.alloc(levels * 8, 8);

  // Shared read-only input.
  const Addr input_addr =
      spec.input.empty() ? 0 : pb.alloc_words(spec.input);

  // Per-level private (shadow) buffers + output slots.
  std::vector<KernelParams> params(levels);
  for (usize lv = 0; lv < levels; ++lv) {
    KernelParams& p = params[lv];
    p.size = spec.size;
    p.input = input_addr;
    p.buf = spec.buf_words ? pb.alloc(spec.buf_words * 8, 64) : 0;
    p.aux = spec.aux_words ? pb.alloc(spec.aux_words * 8, 64) : 0;
    p.out_slot = pb.alloc(8, 8);
  }

  // --- Code ------------------------------------------------------------------
  pb.li(rSecrets, static_cast<i64>(secrets_addr));
  pb.li(rResults, static_cast<i64>(results_addr));
  pb.li(rIter, 0);
  const Label loop = pb.new_label();
  pb.bind(loop);

  if (cfg.variant == Variant::kSecure) {
    // Nested secret branches (Fig. 7): skip the level when the secret is 0.
    std::vector<Label> joins(W);
    for (usize w = 0; w < W; ++w) {
      joins[w] = pb.new_label();
      pb.ld(rCond, rSecrets, static_cast<i64>(w * 8));
      pb.beq(rCond, isa::kRegZero, joins[w], Secure::kYes);  // sJMP
      spec.emit(pb, params[w]);
    }
    // Join chain, innermost first; the branch targets land exactly on the
    // eosJMP instructions (the first instruction common to both paths).
    for (usize w = W; w-- > 0;) {
      pb.bind(joins[w]);
      pb.eosjmp();
    }
    // Workload W+1, unconditional.
    spec.emit(pb, params[W]);

    // CMOV merge phase: commit each level's shadow result iff the effective
    // (ANDed) condition holds. Straight-line, constant-time.
    pb.li(rEff, 1);
    for (usize w = 0; w < W; ++w) {
      pb.ld(rCond, rSecrets, static_cast<i64>(w * 8));
      pb.sne(rCond, rCond, isa::kRegZero);
      pb.and_(rEff, rEff, rCond);
      pb.li(rT0, static_cast<i64>(params[w].out_slot));
      pb.ld(rT0, rT0, 0);                                  // shadow value
      pb.ld(rT1, rResults, static_cast<i64>(w * 8));       // current result
      pb.cmov(rT1, rEff, rT0);
      pb.st(rT1, rResults, static_cast<i64>(w * 8));
    }
    pb.li(rT0, static_cast<i64>(params[W].out_slot));
    pb.ld(rT0, rT0, 0);
    pb.st(rT0, rResults, static_cast<i64>(W * 8));
  } else {
    // CTE: every level always executes; the guard is the running AND of the
    // (bool-converted) secrets, as in Figure 2b's bA*bB chains.
    pb.li(rGuardBool, 1);
    for (usize w = 0; w < W; ++w) {
      pb.ld(rCond, rSecrets, static_cast<i64>(w * 8));
      pb.sne(rCond, rCond, isa::kRegZero);           // (bool) conversion
      pb.and_(rGuardBool, rGuardBool, rCond);
      pb.sub(rGuardMask, isa::kRegZero, rGuardBool);
      pb.xori(rGuardNot, rGuardMask, -1);
      spec.emit_cte(pb, params[w]);
      // The masked kernel wrote its own out_slot; commit it to results.
      pb.li(rT0, static_cast<i64>(params[w].out_slot));
      pb.ld(rT0, rT0, 0);
      pb.st(rT0, rResults, static_cast<i64>(w * 8));
    }
    // Workload W+1 is outside all conditionals: plain kernel.
    spec.emit(pb, params[W]);
    pb.li(rT0, static_cast<i64>(params[W].out_slot));
    pb.ld(rT0, rT0, 0);
    pb.st(rT0, rResults, static_cast<i64>(W * 8));
  }

  pb.addi(rIter, rIter, 1);
  pb.li(rT0, static_cast<i64>(cfg.iterations));
  pb.blt(rIter, rT0, loop);
  pb.halt();

  // --- Expected results ------------------------------------------------------
  BuiltHarness out;
  out.results_addr = results_addr;
  out.num_results = levels;
  u64 eff = 1;
  for (usize w = 0; w < W; ++w) {
    eff &= static_cast<u64>(secret_words[w] != 0 ? 1 : 0);
    out.expected_results.push_back(eff ? spec.expected : 0);
  }
  out.expected_results.push_back(spec.expected);  // level W+1: unconditional
  out.program = pb.build();
  return out;
}

BuiltHarness build_flat_harness(const KernelSpec& spec,
                                const HarnessConfig& cfg) {
  SEMPE_CHECK_MSG(cfg.iterations > 0, "iterations must be positive");
  SEMPE_CHECK_MSG(cfg.width >= 1 && cfg.width <= 30,
                  "flat-harness width must be in [1, 30]");
  SEMPE_CHECK_MSG(spec.emit != nullptr,
                  spec.name << " has no natural emitter");
  SEMPE_CHECK_MSG(cfg.variant != Variant::kCte || spec.emit_cte != nullptr,
                  spec.name << " has no CTE form");

  const usize W = cfg.width;

  ProgramBuilder pb;

  // --- Data layout -----------------------------------------------------------
  std::vector<i64> secret_words(W, 0);
  for (usize w = 0; w < W; ++w)
    secret_words[w] = (w < cfg.secrets.size() && cfg.secrets[w]) ? 1 : 0;
  const Addr secrets_addr = pb.alloc_words(secret_words);

  // Merged results: one word per level (no unconditional extra level).
  const Addr results_addr = pb.alloc(W * 8, 8);

  // Per-level PRIVATE input copy + buffers. The point of the flat shape is
  // that level w's data footprint is disjoint from every other level's, so
  // per-set cache contention localizes a touch to one secret bit. Gap
  // allocations between levels absorb stride-prefetch spillover (degree-1
  // prefetcher: at most one line past a streamed region).
  std::vector<KernelParams> params(W);
  std::vector<FlatLevel> layout(W);
  for (usize w = 0; w < W; ++w) {
    KernelParams& p = params[w];
    FlatLevel& fl = layout[w];
    p.size = spec.size;
    if (!spec.input.empty()) {
      fl.input = pb.alloc(spec.input.size() * 8, 64);
      fl.input_bytes = spec.input.size() * 8;
      for (usize i = 0; i < spec.input.size(); ++i)
        pb.poke_word(fl.input + i * 8, spec.input[i]);
    }
    p.input = fl.input;
    if (spec.buf_words != 0) {
      fl.buf = pb.alloc(spec.buf_words * 8, 64);
      fl.buf_bytes = spec.buf_words * 8;
    }
    p.buf = fl.buf;
    p.aux = spec.aux_words ? pb.alloc(spec.aux_words * 8, 64) : 0;
    // Line-aligned: the merge phase reads every out_slot unconditionally,
    // so it must not share a cache line with the level's input/buffer tail
    // (that line would look "touched" regardless of the secret bit).
    p.out_slot = pb.alloc(8, 64);
    fl.out_slot = p.out_slot;
    pb.alloc(192, 64);  // inter-level prefetch guard gap
  }

  // --- Code ------------------------------------------------------------------
  pb.li(rSecrets, static_cast<i64>(secrets_addr));
  pb.li(rResults, static_cast<i64>(results_addr));
  pb.li(rIter, 0);
  const Label loop = pb.new_label();
  pb.bind(loop);

  if (cfg.variant == Variant::kSecure) {
    // W sequential secure regions: skip level w when s(w+1) is 0. Each
    // region opens and closes before the next begins (jbTable depth 1).
    for (usize w = 0; w < W; ++w) {
      const Label join = pb.new_label();
      pb.ld(rCond, rSecrets, static_cast<i64>(w * 8));
      pb.beq(rCond, isa::kRegZero, join, Secure::kYes);  // sJMP
      spec.emit(pb, params[w]);
      pb.bind(join);
      pb.eosjmp();
    }
    // Constant-time merge: commit each level's shadow result iff its own
    // guard holds (per-level guard, not the nested prefix-AND).
    for (usize w = 0; w < W; ++w) {
      pb.ld(rCond, rSecrets, static_cast<i64>(w * 8));
      pb.sne(rCond, rCond, isa::kRegZero);
      pb.li(rT0, static_cast<i64>(params[w].out_slot));
      pb.ld(rT0, rT0, 0);                                // shadow value
      pb.ld(rT1, rResults, static_cast<i64>(w * 8));     // current result
      pb.cmov(rT1, rCond, rT0);
      pb.st(rT1, rResults, static_cast<i64>(w * 8));
    }
  } else {
    // CTE: every level always executes under its own guard mask, computed
    // from s(w+1) alone.
    for (usize w = 0; w < W; ++w) {
      pb.ld(rCond, rSecrets, static_cast<i64>(w * 8));
      pb.sne(rGuardBool, rCond, isa::kRegZero);
      pb.sub(rGuardMask, isa::kRegZero, rGuardBool);
      pb.xori(rGuardNot, rGuardMask, -1);
      spec.emit_cte(pb, params[w]);
      pb.li(rT0, static_cast<i64>(params[w].out_slot));
      pb.ld(rT0, rT0, 0);
      pb.st(rT0, rResults, static_cast<i64>(w * 8));
    }
  }

  pb.addi(rIter, rIter, 1);
  pb.li(rT0, static_cast<i64>(cfg.iterations));
  pb.blt(rIter, rT0, loop);
  pb.halt();

  // --- Expected results ------------------------------------------------------
  BuiltHarness out;
  out.results_addr = results_addr;
  out.num_results = W;
  for (usize w = 0; w < W; ++w)
    out.expected_results.push_back(secret_words[w] != 0 ? spec.expected : 0);
  out.secrets_addr = secrets_addr;
  out.flat_levels = std::move(layout);
  out.program = pb.build();
  return out;
}

}  // namespace sempe::workloads
