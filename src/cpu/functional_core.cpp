#include "cpu/functional_core.h"

#include "util/bits.h"

namespace sempe::cpu {

using isa::Instruction;
using isa::Opcode;

FunctionalCore::FunctionalCore(const isa::Program* program,
                               mem::MainMemory* memory, const CoreConfig& cfg)
    : prog_(program), mem_(memory), cfg_(cfg), spm_(cfg.spm),
      jb_(cfg.jb_entries), snapshots_(&spm_) {
  SEMPE_CHECK(program != nullptr && memory != nullptr);
  decoded_.reserve(program->num_instructions());
  for (const u64 word : program->code()) {
    Instruction ins{.op = Opcode::kCount};
    try {
      ins = isa::decode(word);
    } catch (const SimError&) {
      // Left as the kCount sentinel: fetch() re-raises at the fetching step.
    }
    decoded_.push_back(ins);
  }
  // Load the data image.
  for (const auto& seg : program->data())
    mem_->write_bytes(seg.addr, seg.bytes.data(), seg.bytes.size());
  state_.pc = program->entry();
  state_.set_int(isa::kRegSp, static_cast<i64>(isa::kStackTop));
}

u32 FunctionalCore::snapshot_bytes(SempeEvent ev, usize archrs_bytes) const {
  switch (cfg_.snapshot_model) {
    case SnapshotModel::kArchRS:
      return static_cast<u32>(archrs_bytes);
    case SnapshotModel::kPhyRS: {
      // Full PRF (8 bytes per physical register) plus the RAT (48 entries
      // of log2(phys) bits, rounded to 2 bytes each), every time.
      const usize full =
          (cfg_.phys_int_regs + cfg_.phys_fp_regs) * 8 + isa::kNumArchRegs * 2;
      return static_cast<u32>(ev == SempeEvent::kEosFirst ? 2 * full : full);
    }
    case SnapshotModel::kLRS:
      // Lazy spill: nothing is saved eagerly at region entry (just the tag
      // vectors); the jump-back and restore move the same modified set as
      // ArchRS. The rename-table cost appears in the pipeline, not here.
      return static_cast<u32>(
          ev == SempeEvent::kSjmpEnter ? 16 : archrs_bytes);
  }
  return static_cast<u32>(archrs_bytes);
}

void FunctionalCore::write_int(isa::Reg r, i64 v) {
  if (r == isa::kRegZero) return;
  state_.set_int(r, v);
  if (snapshots_.in_secure_region()) snapshots_.note_write(r);
}

void FunctionalCore::write_fp(isa::Reg r, double v) {
  state_.set_fp(r, v);
  if (snapshots_.in_secure_region()) snapshots_.note_write(r);
}

void FunctionalCore::sync_regs_from_snapshot(const core::RegBits& bits) {
  state_.set_bits(bits);
}

i64 FunctionalCore::alu(const Instruction& ins, i64 a, i64 b) const {
  const u64 ua = static_cast<u64>(a);
  const u64 ub = static_cast<u64>(b);
  switch (ins.op) {
    case Opcode::kAdd:
    case Opcode::kAddi:
      return static_cast<i64>(ua + ub);
    case Opcode::kSub:
      return static_cast<i64>(ua - ub);
    case Opcode::kMul:
      return static_cast<i64>(ua * ub);
    case Opcode::kDiv:
      // Defined, non-trapping semantics (Section III requires exception-free
      // false paths): x/0 = -1, INT_MIN/-1 = INT_MIN.
      if (b == 0) return -1;
      if (a == INT64_MIN && b == -1) return INT64_MIN;
      return a / b;
    case Opcode::kRem:
      if (b == 0) return a;
      if (a == INT64_MIN && b == -1) return 0;
      return a % b;
    case Opcode::kAnd:
    case Opcode::kAndi:
      return a & b;
    case Opcode::kOr:
    case Opcode::kOri:
      return a | b;
    case Opcode::kXor:
    case Opcode::kXori:
      return a ^ b;
    case Opcode::kSll:
    case Opcode::kSlli:
      return static_cast<i64>(ua << (ub & 63));
    case Opcode::kSrl:
    case Opcode::kSrli:
      return static_cast<i64>(ua >> (ub & 63));
    case Opcode::kSra:
    case Opcode::kSrai:
      return a >> (ub & 63);
    case Opcode::kSlt:
    case Opcode::kSlti:
      return a < b ? 1 : 0;
    case Opcode::kSltu:
      return ua < ub ? 1 : 0;
    case Opcode::kSeq:
      return a == b ? 1 : 0;
    case Opcode::kSne:
      return a != b ? 1 : 0;
    case Opcode::kLimm:
      return ins.imm;
    default:
      SEMPE_CHECK_MSG(false, "alu() on non-ALU opcode");
  }
  return 0;
}

Instruction FunctionalCore::fetch(Addr pc) const {
  const Addr offset = pc - prog_->code_base();  // wraps below the segment
  const Addr index = offset / isa::kInstrBytes;
  if (offset % isa::kInstrBytes == 0 && index < decoded_.size() &&
      decoded_[index].op != Opcode::kCount)
    return decoded_[index];
  return prog_->fetch(pc);
}

DynOp FunctionalCore::step() {
  SEMPE_CHECK_MSG(!halted_, "step() after HALT");
  SEMPE_CHECK_MSG(seq_ < cfg_.max_instructions,
                  "instruction limit exceeded (runaway program?)");

  const Addr pc = state_.pc;
  const Instruction ins = fetch(pc);
  if (on_fetch) on_fetch(pc);

  DynOp op;
  op.seq = seq_++;
  op.pc = pc;
  op.ins = ins;
  op.next_pc = pc + isa::kInstrBytes;

  auto mem_access = [&](Addr a, u8 size, bool store) {
    op.is_mem = true;
    op.is_store = store;
    op.mem_addr = a;
    op.mem_size = size;
    if (on_mem_access) on_mem_access(a, size, store);
  };

  switch (ins.op) {
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
      write_int(ins.rd, alu(ins, state_.get_int(ins.rs1),
                            state_.get_int(ins.rs2)));
      break;

    case Opcode::kAddi:
    case Opcode::kAndi:
    case Opcode::kOri:
    case Opcode::kXori:
    case Opcode::kSlli:
    case Opcode::kSrli:
    case Opcode::kSrai:
    case Opcode::kSlti:
      write_int(ins.rd, alu(ins, state_.get_int(ins.rs1), ins.imm));
      break;

    case Opcode::kLimm:
      write_int(ins.rd, ins.imm);
      break;

    case Opcode::kCmov:
      // Constant-time select: rd = (rs1 != 0) ? rs2 : rd.
      if (state_.get_int(ins.rs1) != 0)
        write_int(ins.rd, state_.get_int(ins.rs2));
      else
        write_int(ins.rd, state_.get_int(ins.rd));  // timing-equal rewrite
      break;

    case Opcode::kFadd:
      write_fp(ins.rd, state_.get_fp(ins.rs1) + state_.get_fp(ins.rs2));
      break;
    case Opcode::kFsub:
      write_fp(ins.rd, state_.get_fp(ins.rs1) - state_.get_fp(ins.rs2));
      break;
    case Opcode::kFmul:
      write_fp(ins.rd, state_.get_fp(ins.rs1) * state_.get_fp(ins.rs2));
      break;
    case Opcode::kFdiv: {
      const double b = state_.get_fp(ins.rs2);
      write_fp(ins.rd, state_.get_fp(ins.rs1) / b);  // IEEE inf/NaN, no trap
      break;
    }
    case Opcode::kI2f:
      write_fp(ins.rd, static_cast<double>(state_.get_int(ins.rs1)));
      break;
    case Opcode::kF2i: {
      const double v = state_.get_fp(ins.rs1);
      // Saturating, non-trapping conversion.
      i64 r;
      if (v != v) r = 0;
      else if (v >= 9.2233720368547758e18) r = INT64_MAX;
      else if (v <= -9.2233720368547758e18) r = INT64_MIN;
      else r = static_cast<i64>(v);
      write_int(ins.rd, r);
      break;
    }
    case Opcode::kFmov:
      write_fp(ins.rd, state_.get_fp(ins.rs1));
      break;

    case Opcode::kLd:
    case Opcode::kLw:
    case Opcode::kLbu: {
      const Addr a = static_cast<Addr>(state_.get_int(ins.rs1) + ins.imm);
      const u8 size = ins.op == Opcode::kLd ? 8 : ins.op == Opcode::kLw ? 4 : 1;
      const u64 raw = mem_->read(a, size);
      i64 v;
      if (ins.op == Opcode::kLw) v = sign_extend(raw, 32);
      else v = static_cast<i64>(raw);
      write_int(ins.rd, v);
      mem_access(a, size, false);
      break;
    }
    case Opcode::kSt:
    case Opcode::kSw:
    case Opcode::kSb: {
      const Addr a = static_cast<Addr>(state_.get_int(ins.rs1) + ins.imm);
      const u8 size = ins.op == Opcode::kSt ? 8 : ins.op == Opcode::kSw ? 4 : 1;
      mem_->write(a, static_cast<u64>(state_.get_int(ins.rs2)), size);
      mem_access(a, size, true);
      break;
    }

    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBltu:
    case Opcode::kBgeu: {
      const i64 a = state_.get_int(ins.rs1);
      const i64 b = state_.get_int(ins.rs2);
      bool taken = false;
      switch (ins.op) {
        case Opcode::kBeq: taken = a == b; break;
        case Opcode::kBne: taken = a != b; break;
        case Opcode::kBlt: taken = a < b; break;
        case Opcode::kBge: taken = a >= b; break;
        case Opcode::kBltu: taken = static_cast<u64>(a) < static_cast<u64>(b); break;
        case Opcode::kBgeu: taken = static_cast<u64>(a) >= static_cast<u64>(b); break;
        default: break;
      }
      op.is_cond_branch = true;
      op.branch_taken = taken;
      op.branch_target = static_cast<Addr>(static_cast<i64>(pc) + ins.imm);

      const bool secure_exec = ins.secure && cfg_.mode == ExecMode::kSempe;
      if (secure_exec) {
        if (jb_.full()) {
          SEMPE_CHECK_MSG(cfg_.overflow == OverflowPolicy::kRunNonSecure,
                          "jbTable nesting overflow at depth "
                              << jb_.depth() << " (pc=0x" << std::hex << pc
                              << ")");
          // Fall back to an ordinary (non-secure) branch.
          op.next_pc = taken ? op.branch_target : pc + isa::kInstrBytes;
          break;
        }
        // sJMP: allocate the jbTable entry, record the computed target and
        // the outcome, snapshot the architectural registers, and always
        // continue with the not-taken SecBlock first.
        op.is_secure_branch = true;
        SEMPE_CHECK(jb_.allocate());
        jb_.commit_sjmp(op.branch_target, taken);
        const core::SpmTraffic t = snapshots_.enter(state_.bits(), taken);
        op.event = SempeEvent::kSjmpEnter;
        op.spm_bytes = snapshot_bytes(op.event, t.total());
        op.next_pc = pc + isa::kInstrBytes;  // NT path first, always
      } else {
        op.next_pc = taken ? op.branch_target : pc + isa::kInstrBytes;
      }
      break;
    }

    case Opcode::kJal:
      write_int(ins.rd, static_cast<i64>(pc + isa::kInstrBytes));
      op.branch_target = static_cast<Addr>(static_cast<i64>(pc) + ins.imm);
      op.next_pc = op.branch_target;
      break;

    case Opcode::kJalr: {
      const Addr t = static_cast<Addr>(state_.get_int(ins.rs1) + ins.imm);
      write_int(ins.rd, static_cast<i64>(pc + isa::kInstrBytes));
      op.branch_target = t;
      op.next_pc = t;
      break;
    }

    case Opcode::kEosjmp: {
      if (cfg_.mode == ExecMode::kSempe && !jb_.empty()) {
        if (!jb_.top().jump_back) {
          // First commit: save NT-modified registers, restore pre-SecBlock
          // state, redirect to the taken SecBlock.
          core::RegBits bits = state_.bits();
          const core::SpmTraffic t = snapshots_.jump_back(bits);
          sync_regs_from_snapshot(bits);
          op.next_pc = jb_.take_jump_back();
          op.event = SempeEvent::kEosFirst;
          op.spm_bytes = snapshot_bytes(op.event, t.total());
        } else {
          // Second commit: constant-time selective restore; region done.
          const core::JbEntry entry = jb_.retire();
          (void)entry;  // outcome already recorded in the snapshot frame
          core::RegBits bits = state_.bits();
          const core::SpmTraffic t = snapshots_.finish(bits);
          sync_regs_from_snapshot(bits);
          op.event = SempeEvent::kEosSecond;
          op.spm_bytes = snapshot_bytes(op.event, t.total());
        }
      }
      // Legacy mode (or no active region): NOP.
      break;
    }

    case Opcode::kNop:
      break;

    case Opcode::kHalt:
      halted_ = true;
      op.is_halt = true;
      break;

    case Opcode::kCount:
      SEMPE_CHECK_MSG(false, "invalid opcode");
  }

  state_.pc = op.next_pc;
  return op;
}

u64 FunctionalCore::run_to_halt() {
  while (!halted_) step();
  return seq_;
}

}  // namespace sempe::cpu
