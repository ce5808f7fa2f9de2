#include "security/taint_lint.h"

#include <algorithm>
#include <array>
#include <optional>
#include <sstream>

#include "core/region_verifier.h"
#include "isa/cfg.h"
#include "util/check.h"
#include "workloads/registry.h"
#include "workloads/workload_regs.h"

namespace sempe::security {

const char* taint_kind_name(TaintKind k) {
  switch (k) {
    case TaintKind::kSecretBranch: return "secret-branch";
    case TaintKind::kSecretLoadAddr: return "secret-load-addr";
    case TaintKind::kSecretStoreAddr: return "secret-store-addr";
    case TaintKind::kSecretDivRem: return "secret-div-rem";
    case TaintKind::kSecretIndirect: return "secret-indirect";
  }
  SEMPE_CHECK_MSG(false, "bad TaintKind " << static_cast<int>(k));
}

const char* lint_policy_name(LintPolicy p) {
  switch (p) {
    case LintPolicy::kLegacy: return "legacy";
    case LintPolicy::kSempe: return "sempe";
    case LintPolicy::kCte: return "cte";
  }
  SEMPE_CHECK_MSG(false, "bad LintPolicy " << static_cast<int>(p));
}

std::string TaintFinding::to_string() const {
  std::ostringstream os;
  os << taint_kind_name(kind) << " at 0x" << std::hex << pc << std::dec << ": "
     << detail;
  return os.str();
}

bool TaintSeeds::intersects(Addr lo, usize bytes) const {
  const Addr hi = lo + bytes;
  for (const Range& r : ranges)
    if (r.addr < hi && lo < r.addr + r.bytes) return true;
  return false;
}

TaintSeeds resolve_secrets_base(const isa::Program& program) {
  for (usize i = 0; i < program.num_instructions(); ++i) {
    const isa::Instruction ins = program.fetch(program.pc_of(i));
    if (ins.op != isa::Opcode::kLimm || ins.rd != workloads::rSecrets) continue;
    const Addr base = static_cast<Addr>(ins.imm);
    const isa::Allocation* a = program.allocation_of(base);
    SEMPE_CHECK_MSG(a != nullptr, "rSecrets base 0x"
                                      << std::hex << base
                                      << " is not inside any builder "
                                         "allocation");
    return TaintSeeds::range(a->addr, a->bytes);
  }
  SEMPE_CHECK_MSG(false,
                  "no `li rSecrets, ...` instruction found — the program does "
                  "not follow the harness secret-seeding convention");
}

namespace {

using isa::Instruction;
using isa::OpClass;
using isa::Opcode;
using isa::Reg;

constexpr usize kNoAlloc = static_cast<usize>(-1);

/// One abstract register value: what we know about the bits (an exact
/// constant, a pointer into a known allocation, or nothing) plus the
/// secret-taint bit. The kind lattice is Const < Region < Top.
struct AbsVal {
  enum class Kind : u8 { kConst, kRegion, kTop };
  Kind kind = Kind::kTop;
  u64 cval = 0;           // kConst: the value
  usize alloc = kNoAlloc; // kRegion: allocation index (kNoAlloc: unknown
                          // provenance, e.g. a code pointer)
  bool taint = false;

  bool operator==(const AbsVal&) const = default;

  static AbsVal cst(u64 v, bool t = false) {
    return {Kind::kConst, v, kNoAlloc, t};
  }
  static AbsVal region(usize a, bool t) { return {Kind::kRegion, 0, a, t}; }
  static AbsVal top(bool t) { return {Kind::kTop, 0, kNoAlloc, t}; }
};

struct Ctx {
  const isa::Program& prog;
  const TaintSeeds& seeds;

  /// Index into prog.allocations() of the allocation containing addr.
  usize alloc_of(u64 addr) const {
    const auto& allocs = prog.allocations();
    for (usize i = 0; i < allocs.size(); ++i)
      if (addr >= allocs[i].addr && addr < allocs[i].addr + allocs[i].bytes)
        return i;
    return kNoAlloc;
  }
};

AbsVal join(const Ctx& cx, const AbsVal& a, const AbsVal& b) {
  const bool t = a.taint || b.taint;
  // Resolve each side to an allocation id when it names one.
  auto region_of = [&cx](const AbsVal& v) {
    if (v.kind == AbsVal::Kind::kRegion) return v.alloc;
    if (v.kind == AbsVal::Kind::kConst) return cx.alloc_of(v.cval);
    return kNoAlloc;
  };
  if (a.kind == AbsVal::Kind::kConst && b.kind == AbsVal::Kind::kConst &&
      a.cval == b.cval)
    return AbsVal::cst(a.cval, t);
  if (a.kind != AbsVal::Kind::kTop && b.kind != AbsVal::Kind::kTop) {
    const usize ra = region_of(a), rb = region_of(b);
    if (ra != kNoAlloc && ra == rb) return AbsVal::region(ra, t);
  }
  return AbsVal::top(t);
}

/// Register file state: 48 unified registers. x0 reads as Const(0) and
/// discards writes (handled at the access helpers, not stored).
using RegState = std::array<AbsVal, isa::kNumArchRegs>;

AbsVal read_reg(const RegState& s, Reg r) {
  if (r == isa::kRegZero) return AbsVal::cst(0);
  return s[r];
}

void write_reg(RegState& s, Reg r, const AbsVal& v) {
  if (r != isa::kRegZero) s[r] = v;
}

bool join_state(const Ctx& cx, RegState& into, const RegState& from) {
  bool changed = false;
  for (usize i = 0; i < into.size(); ++i) {
    const AbsVal j = join(cx, into[i], from[i]);
    if (!(j == into[i])) {
      into[i] = j;
      changed = true;
    }
  }
  return changed;
}

/// The scratchpad-offset memory abstraction. Taint is monotone (a store
/// can mark memory tainted, never clean it), which keeps the fixpoint
/// terminating. Three layers, from precise to coarse:
///   exact    byte ranges written tainted through an exactly-known address
///   summary  per-allocation bit: a tainted store went through a pointer
///            derived from this allocation's base
///   unknown  a tainted store (or any secret-addressed store) escaped the
///            allocation map entirely
struct MemAbs {
  std::vector<std::pair<Addr, Addr>> exact;  // [lo, hi) tainted ranges
  std::vector<char> summary;                 // per-allocation
  bool unknown = false;
  bool changed = false;  // any-mutation flag, reset per fixpoint pass

  explicit MemAbs(usize num_allocs) : summary(num_allocs, 0) {}

  bool exact_intersects(Addr lo, Addr hi) const {
    for (const auto& [s, e] : exact)
      if (s < hi && lo < e) return true;
    return false;
  }
  bool exact_covered(Addr lo, Addr hi) const {
    for (const auto& [s, e] : exact)
      if (s <= lo && hi <= e) return true;
    return false;
  }
  bool any_exact() const { return !exact.empty(); }
  bool any_summary() const {
    return std::find(summary.begin(), summary.end(), 1) != summary.end();
  }

  void add_exact(Addr lo, Addr hi) {
    if (exact_covered(lo, hi)) return;
    exact.emplace_back(lo, hi);
    changed = true;
  }
  void mark_summary(usize alloc) {
    if (summary[alloc] != 0) return;
    summary[alloc] = 1;
    changed = true;
  }
  void mark_unknown() {
    if (unknown) return;
    unknown = true;
    changed = true;
  }
  bool take_changed() {
    const bool c = changed;
    changed = false;
    return c;
  }
};

usize load_width(Opcode op) {
  return op == Opcode::kLd ? 8 : op == Opcode::kLw ? 4 : 1;
}
usize store_width(Opcode op) {
  return op == Opcode::kSt ? 8 : op == Opcode::kSw ? 4 : 1;
}

/// Taint of the value a load produces, given the abstract address.
bool load_taint(const Ctx& cx, const MemAbs& mem, const AbsVal& base,
                i64 imm, usize width) {
  if (mem.unknown) return true;
  if (base.kind == AbsVal::Kind::kConst) {
    const Addr lo = base.cval + static_cast<u64>(imm);
    const Addr hi = lo + width;
    bool t = cx.seeds.intersects(lo, width) || mem.exact_intersects(lo, hi);
    const usize r = cx.alloc_of(lo);
    // Region stores land inside their own allocation (in-bounds pointer
    // assumption), so only the containing allocation's summary applies.
    if (r != kNoAlloc) t = t || mem.summary[r] != 0;
    return t;
  }
  if (base.kind == AbsVal::Kind::kRegion && base.alloc != kNoAlloc) {
    const isa::Allocation& a = cx.prog.allocations()[base.alloc];
    return mem.summary[base.alloc] != 0 ||
           cx.seeds.intersects(a.addr, a.bytes) ||
           mem.exact_intersects(a.addr, a.addr + a.bytes);
  }
  // Unknown address: anything tainted anywhere could be read.
  return mem.any_summary() || mem.any_exact() || !cx.seeds.empty();
}

void store_effect(MemAbs& mem, const AbsVal& base, i64 imm, usize width,
                  bool value_taint) {
  if (base.taint) mem.mark_unknown();  // secret-chosen destination
  if (!value_taint) return;            // taint is monotone; nothing to add
  if (base.kind == AbsVal::Kind::kConst) {
    const Addr lo = base.cval + static_cast<u64>(imm);
    mem.add_exact(lo, lo + width);
  } else if (base.kind == AbsVal::Kind::kRegion && base.alloc != kNoAlloc) {
    mem.mark_summary(base.alloc);
  } else {
    mem.mark_unknown();
  }
}

/// Fold a register-register ALU op over two known constants (the machine's
/// defined div/rem-by-zero semantics included).
u64 fold_alu(Opcode op, u64 a, u64 b) {
  const i64 sa = static_cast<i64>(a), sb = static_cast<i64>(b);
  switch (op) {
    case Opcode::kAdd: return a + b;
    case Opcode::kSub: return a - b;
    case Opcode::kMul: return a * b;
    case Opcode::kDiv:  // matches cpu/functional_core's defined semantics
      if (sb == 0) return ~0ull;
      if (sa == INT64_MIN && sb == -1) return static_cast<u64>(INT64_MIN);
      return static_cast<u64>(sa / sb);
    case Opcode::kRem:
      if (sb == 0) return a;
      if (sa == INT64_MIN && sb == -1) return 0;
      return static_cast<u64>(sa % sb);
    case Opcode::kAnd: return a & b;
    case Opcode::kOr: return a | b;
    case Opcode::kXor: return a ^ b;
    case Opcode::kSll: return a << (b & 63);
    case Opcode::kSrl: return a >> (b & 63);
    case Opcode::kSra: return static_cast<u64>(sa >> (b & 63));
    case Opcode::kSlt: return sa < sb ? 1 : 0;
    case Opcode::kSltu: return a < b ? 1 : 0;
    case Opcode::kSeq: return a == b ? 1 : 0;
    case Opcode::kSne: return a != b ? 1 : 0;
    default: SEMPE_CHECK_MSG(false, "fold_alu on non-ALU op");
  }
}

u64 fold_alu_imm(Opcode op, u64 a, i64 imm) {
  switch (op) {
    case Opcode::kAddi: return a + static_cast<u64>(imm);
    case Opcode::kAndi: return a & static_cast<u64>(imm);
    case Opcode::kOri: return a | static_cast<u64>(imm);
    case Opcode::kXori: return a ^ static_cast<u64>(imm);
    case Opcode::kSlli: return a << (imm & 63);
    case Opcode::kSrli: return a >> (imm & 63);
    case Opcode::kSrai: return static_cast<u64>(static_cast<i64>(a) >> (imm & 63));
    case Opcode::kSlti: return static_cast<i64>(a) < imm ? 1 : 0;
    default: SEMPE_CHECK_MSG(false, "fold_alu_imm on non-ALU op");
  }
}

bool is_imm_alu(Opcode op) {
  switch (op) {
    case Opcode::kAddi:
    case Opcode::kAndi:
    case Opcode::kOri:
    case Opcode::kXori:
    case Opcode::kSlli:
    case Opcode::kSrli:
    case Opcode::kSrai:
    case Opcode::kSlti:
      return true;
    default:
      return false;
  }
}

bool is_reg_alu(Opcode op) {
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDiv:
    case Opcode::kRem:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kSll:
    case Opcode::kSrl:
    case Opcode::kSra:
    case Opcode::kSlt:
    case Opcode::kSltu:
    case Opcode::kSeq:
    case Opcode::kSne:
      return true;
    default:
      return false;
  }
}

/// Findings and tainted-branch sites collected during the reporting pass.
struct Collector {
  std::vector<TaintFinding> findings;
  std::vector<std::pair<Addr, Instruction>> tainted_branches;

  void add(TaintKind k, Addr pc, const Instruction& ins,
           const std::string& what) {
    findings.push_back({k, pc, ins.to_string() + " — " + what});
  }
};

/// Transfer one instruction. `col` is null during fixpoint iteration and
/// set on the final reporting pass (when states and memory are converged,
/// so the extra transfer is a no-op on the abstract state).
void transfer(const Ctx& cx, MemAbs& mem, RegState& regs, Addr pc,
              const Instruction& ins, Collector* col) {
  const Opcode op = ins.op;
  const OpClass cls = isa::op_info(op).op_class;

  if (op == Opcode::kLimm) {
    write_reg(regs, ins.rd, AbsVal::cst(static_cast<u64>(ins.imm)));
    return;
  }
  if (op == Opcode::kCmov) {
    // Constant-time select: rd = (rs1 != 0) ? rs2 : rd. No finding — this
    // is the sanctioned way to consume a secret condition; the result is
    // tainted by the condition, both arms stay architecturally touched.
    const AbsVal d = read_reg(regs, ins.rd);
    const AbsVal s = read_reg(regs, ins.rs2);
    AbsVal out = join(cx, d, s);
    out.taint = d.taint || s.taint || read_reg(regs, ins.rs1).taint;
    write_reg(regs, ins.rd, out);
    return;
  }
  if (is_imm_alu(op)) {
    const AbsVal a = read_reg(regs, ins.rs1);
    AbsVal out = AbsVal::top(a.taint);
    if (a.kind == AbsVal::Kind::kConst) {
      out = AbsVal::cst(fold_alu_imm(op, a.cval, ins.imm), a.taint);
    } else if (a.kind == AbsVal::Kind::kRegion && op == Opcode::kAddi) {
      out = AbsVal::region(a.alloc, a.taint);  // pointer bump
    }
    write_reg(regs, ins.rd, out);
    return;
  }
  if (is_reg_alu(op)) {
    const AbsVal a = read_reg(regs, ins.rs1);
    const AbsVal b = read_reg(regs, ins.rs2);
    const bool t = a.taint || b.taint;
    if (cls == OpClass::kIntDiv && col != nullptr && t) {
      col->add(TaintKind::kSecretDivRem, pc, ins,
               std::string("variable-latency operand ") +
                   isa::reg_name(a.taint ? ins.rs1 : ins.rs2));
    }
    AbsVal out = AbsVal::top(t);
    if (a.kind == AbsVal::Kind::kConst && b.kind == AbsVal::Kind::kConst) {
      out = AbsVal::cst(fold_alu(op, a.cval, b.cval), t);
    } else if (op == Opcode::kAdd) {
      // Pointer arithmetic: base + offset keeps the base's provenance.
      auto region_side = [&cx](const AbsVal& v) {
        if (v.kind == AbsVal::Kind::kRegion) return v.alloc;
        if (v.kind == AbsVal::Kind::kConst) return cx.alloc_of(v.cval);
        return kNoAlloc;
      };
      const usize ra = region_side(a), rb = region_side(b);
      if (ra != kNoAlloc && rb == kNoAlloc) out = AbsVal::region(ra, t);
      if (rb != kNoAlloc && ra == kNoAlloc) out = AbsVal::region(rb, t);
    }
    write_reg(regs, ins.rd, out);
    return;
  }

  switch (cls) {
    case OpClass::kFpAlu:
    case OpClass::kFpDiv: {
      const auto& info = isa::op_info(op);
      bool t = false;
      if (info.uses_rs1) t = t || read_reg(regs, ins.rs1).taint;
      if (info.uses_rs2) t = t || read_reg(regs, ins.rs2).taint;
      if (cls == OpClass::kFpDiv && col != nullptr && t)
        col->add(TaintKind::kSecretDivRem, pc, ins,
                 "variable-latency FP divide on tainted operand");
      if (info.uses_rd) write_reg(regs, ins.rd, AbsVal::top(t));
      return;
    }
    case OpClass::kLoad: {
      const AbsVal base = read_reg(regs, ins.rs1);
      if (col != nullptr && base.taint)
        col->add(TaintKind::kSecretLoadAddr, pc, ins,
                 std::string("address register ") + isa::reg_name(ins.rs1) +
                     " is secret-tainted");
      const bool t =
          base.taint || load_taint(cx, mem, base, ins.imm, load_width(op));
      write_reg(regs, ins.rd, AbsVal::top(t));
      return;
    }
    case OpClass::kStore: {
      const AbsVal base = read_reg(regs, ins.rs1);
      const AbsVal val = read_reg(regs, ins.rs2);
      if (col != nullptr && base.taint)
        col->add(TaintKind::kSecretStoreAddr, pc, ins,
                 std::string("address register ") + isa::reg_name(ins.rs1) +
                     " is secret-tainted");
      store_effect(mem, base, ins.imm, store_width(op),
                   val.taint || base.taint);
      return;
    }
    case OpClass::kBranch: {
      const bool t =
          read_reg(regs, ins.rs1).taint || read_reg(regs, ins.rs2).taint;
      if (col != nullptr && t) col->tainted_branches.emplace_back(pc, ins);
      return;
    }
    case OpClass::kJump:  // jal: rd = return address (an exact constant)
      write_reg(regs, ins.rd, AbsVal::cst(pc + isa::kInstrBytes));
      return;
    case OpClass::kJumpInd: {
      if (col != nullptr && read_reg(regs, ins.rs1).taint)
        col->add(TaintKind::kSecretIndirect, pc, ins,
                 std::string("target register ") + isa::reg_name(ins.rs1) +
                     " is secret-tainted");
      write_reg(regs, ins.rd, AbsVal::cst(pc + isa::kInstrBytes));
      return;
    }
    default:  // kNop class: nop, eosjmp, halt — no dataflow effect
      return;
  }
}

}  // namespace

LintResult lint_program(const isa::Program& program, const TaintSeeds& seeds,
                        const LintOptions& opt) {
  const isa::Cfg cfg = isa::Cfg::build(program);
  const std::vector<bool> reach = cfg.reachable();
  const usize nblocks = cfg.blocks().size();
  const Ctx cx{program, seeds};

  const usize entry_id = cfg.block_id_of(cfg.entry());
  RegState entry_state;  // all Top, untainted (machine-zeroed registers)

  std::vector<std::optional<RegState>> in(nblocks), out(nblocks);
  MemAbs mem(program.allocations().size());

  auto run_block = [&](usize b, RegState state, Collector* col) {
    const isa::BasicBlock& blk = cfg.blocks()[b];
    for (Addr pc = blk.start; pc < blk.end; pc += isa::kInstrBytes)
      transfer(cx, mem, state, pc, program.fetch(pc), col);
    return state;
  };

  usize passes = 0;
  bool changed = true;
  while (changed) {
    SEMPE_CHECK_MSG(passes < opt.max_passes,
                    "taint fixpoint did not converge in " << opt.max_passes
                                                          << " passes");
    ++passes;
    changed = false;

    // Indirect jumps have statically unknown targets: conservatively their
    // out-state flows into every block (mirrors Cfg::reachable).
    std::optional<RegState> indirect_join;
    for (usize b = 0; b < nblocks; ++b) {
      if (!reach[b] || !cfg.blocks()[b].ends_in_indirect || !out[b]) continue;
      if (!indirect_join) {
        indirect_join = *out[b];
      } else {
        join_state(cx, *indirect_join, *out[b]);
      }
    }

    for (usize b = 0; b < nblocks; ++b) {
      if (!reach[b]) continue;
      std::optional<RegState> newin;
      if (b == entry_id) newin = entry_state;
      for (const usize p : cfg.blocks()[b].preds) {
        if (!out[p]) continue;
        if (!newin) {
          newin = *out[p];
        } else {
          join_state(cx, *newin, *out[p]);
        }
      }
      if (indirect_join) {
        if (!newin) {
          newin = *indirect_join;
        } else {
          join_state(cx, *newin, *indirect_join);
        }
      }
      if (!newin) continue;  // no flow has reached this block yet
      if (!in[b] || !(*in[b] == *newin)) {
        in[b] = *newin;
        changed = true;
      }
      RegState newout = run_block(b, *in[b], nullptr);
      if (!out[b] || !(*out[b] == newout)) {
        out[b] = std::move(newout);
        changed = true;
      }
    }
    changed = mem.take_changed() || changed;
  }

  // Reporting pass over the converged states.
  Collector col;
  for (usize b = 0; b < nblocks; ++b) {
    if (!reach[b] || !in[b]) continue;
    run_block(b, *in[b], &col);
  }

  LintResult res;
  res.passes = passes;
  res.tainted_branches = col.tainted_branches.size();

  // Policy: which tainted branches are violations.
  std::vector<Addr> verified_excuses;  // sJMP pcs with verifier findings
  core::VerifyResult verify;
  if (opt.policy == LintPolicy::kSempe) {
    core::VerifyOptions vopt;
    vopt.allow_div = true;  // this ISA's DIV/REM are defined and trap-free
    verify = core::verify_secure_regions(program, vopt);
  }
  for (const auto& [pc, ins] : col.tainted_branches) {
    if (opt.policy == LintPolicy::kSempe && ins.is_sjmp()) {
      const bool rejected =
          std::any_of(verify.findings.begin(), verify.findings.end(),
                      [pc](const core::Finding& f) { return f.sjmp_pc == pc; });
      if (!rejected) {
        ++res.excused_sjmps;  // multi-path execution hides this branch
        continue;
      }
    }
    const char* why = "secret-dependent branch condition";
    if (ins.is_sjmp()) {
      why = opt.policy == LintPolicy::kSempe
                ? "secret-dependent sJMP outside a verified secure region"
                : "sJMP: a legacy core ignores the SecPrefix and executes "
                  "a plain secret-dependent branch (SDBCB)";
    }
    col.add(TaintKind::kSecretBranch, pc, ins, why);
  }

  res.findings = std::move(col.findings);
  std::sort(res.findings.begin(), res.findings.end(),
            [](const TaintFinding& a, const TaintFinding& b) {
              return a.pc != b.pc ? a.pc < b.pc
                                  : static_cast<int>(a.kind) <
                                        static_cast<int>(b.kind);
            });
  return res;
}

std::string LintResult::to_string() const {
  std::ostringstream os;
  if (clean()) {
    os << "clean";
  } else {
    os << findings.size() << " finding(s)";
  }
  os << " (" << passes << " passes, " << tainted_branches
     << " tainted branch(es), " << excused_sjmps << " excused sJMP(s))";
  for (const TaintFinding& f : findings) os << "\n  " << f.to_string();
  return os.str();
}

std::string WorkloadLint::to_string() const {
  std::ostringstream os;
  os << spec << " (width " << secret_width << ")";
  os << "\n legacy: " << natural_legacy.to_string();
  os << "\n sempe:  " << natural_sempe.to_string();
  if (has_cte) os << "\n cte:    " << cte.to_string();
  return os.str();
}

WorkloadLint lint_workload(const std::string& spec_text) {
  using workloads::Variant;
  auto& registry = workloads::WorkloadRegistry::instance();
  const workloads::WorkloadSpec spec =
      workloads::WorkloadSpec::parse(spec_text);
  const workloads::WorkloadGenerator& gen = registry.resolve(spec.name);

  workloads::BuiltWorkload nat = registry.build(spec_text, Variant::kSecure);

  WorkloadLint wl;
  wl.spec = nat.spec;
  wl.secret_width = gen.secret_width(spec);
  wl.has_cte = gen.has_cte_variant();

  const TaintSeeds nat_seeds = gen.taint_seeds(spec, nat.program);
  LintOptions lopt;
  lopt.policy = LintPolicy::kLegacy;
  wl.natural_legacy = lint_program(nat.program, nat_seeds, lopt);
  lopt.policy = LintPolicy::kSempe;
  wl.natural_sempe = lint_program(nat.program, nat_seeds, lopt);

  if (wl.has_cte) {
    workloads::BuiltWorkload cte = registry.build(spec_text, Variant::kCte);
    const TaintSeeds cte_seeds = gen.taint_seeds(spec, cte.program);
    lopt.policy = LintPolicy::kCte;
    wl.cte = lint_program(cte.program, cte_seeds, lopt);
  }
  return wl;
}

std::vector<WorkloadLint> lint_registry(usize width, usize iters) {
  std::vector<WorkloadLint> out;
  for (const std::string& name :
       workloads::WorkloadRegistry::instance().names()) {
    // Mirror the leakage experiment's sweep: djpeg has no settable secret
    // vector, so the harness keys do not apply.
    const std::string spec =
        name == "djpeg" ? "djpeg?pixels=4096&scale=16"
                        : name + "?width=" + std::to_string(width) +
                              "&iters=" + std::to_string(iters);
    out.push_back(lint_workload(spec));
  }
  return out;
}

}  // namespace sempe::security
