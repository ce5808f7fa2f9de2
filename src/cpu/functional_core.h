// FunctionalCore — architectural execution of the SeMPE ISA.
//
// Runs a Program against a MainMemory in one of two modes:
//
//   kLegacy — a conventional core: the secure prefix is ignored (secure
//             branches behave as ordinary branches, EOSJMP as NOP). This is
//             the paper's backward-compatibility mode and also the baseline
//             machine for overhead measurements.
//   kSempe  — secure multi-path execution: sJMP always falls through to the
//             not-taken SecBlock after pushing the taken target onto the
//             jbTable; EOSJMP performs the jump-back / region-retire
//             protocol with ArchRS register snapshot/restore.
//
// step() executes one instruction and returns the DynOp record the timing
// model consumes.
#pragma once

#include <functional>
#include <vector>

#include "core/arch_snapshot.h"
#include "core/jb_table.h"
#include "cpu/arch_state.h"
#include "cpu/dyn_op.h"
#include "isa/program.h"
#include "mem/main_memory.h"
#include "mem/scratchpad.h"
#include "util/stats.h"

namespace sempe::cpu {

enum class ExecMode : u8 { kLegacy, kSempe };

/// What to do when secure-branch nesting exceeds the jbTable capacity
/// (Section IV-E: reject at compile time, trap, or run non-secure).
enum class OverflowPolicy : u8 { kTrap, kRunNonSecure };

/// The register-snapshot mechanisms considered in Section IV-F. All three
/// are architecturally equivalent (same final state); they differ in SPM
/// traffic, which the timing model charges:
///   kArchRS — the paper's choice: save the 48 architectural registers,
///             modified-register vectors bound the restore traffic.
///   kPhyRS  — physical-register snapshot: every save/restore moves the
///             full PRF (256 INT + 256 FP) plus the RAT ("produce too much
///             snapshot spilling to memory").
///   kLRS    — lazy register spill: no bulk save at region entry (only the
///             cache-like tag state), but the tagged rename table adds a
///             pipeline stage that taxes ALL instructions (model this by
///             raising PipelineConfig::front_end_depth by one).
enum class SnapshotModel : u8 { kArchRS, kPhyRS, kLRS };

struct CoreConfig {
  ExecMode mode = ExecMode::kLegacy;
  usize jb_entries = 30;
  mem::SpmConfig spm{};
  OverflowPolicy overflow = OverflowPolicy::kTrap;
  SnapshotModel snapshot_model = SnapshotModel::kArchRS;
  usize phys_int_regs = 256;  // PhyRS traffic sizing
  usize phys_fp_regs = 256;
  u64 max_instructions = 2'000'000'000ull;  // runaway guard
};

class FunctionalCore {
 public:
  FunctionalCore(const isa::Program* program, mem::MainMemory* memory,
                 const CoreConfig& cfg = {});

  /// Execute one instruction. Returns the dynamic record; record.is_halt is
  /// true when the program executed HALT (further step() calls are invalid).
  DynOp step();

  bool halted() const { return halted_; }
  u64 instructions_executed() const { return seq_; }

  /// Run to completion; returns the instruction count.
  u64 run_to_halt();

  ArchState& state() { return state_; }
  const ArchState& state() const { return state_; }
  mem::MainMemory& memory() { return *mem_; }

  const core::JbTable& jb_table() const { return jb_; }
  const mem::Scratchpad& spm() const { return spm_; }
  ExecMode mode() const { return cfg_.mode; }
  usize secure_depth() const { return snapshots_.depth(); }

  /// Observation hook: called for every committed memory access with the
  /// address and direction — the attacker-visible address stream.
  std::function<void(Addr addr, u8 size, bool store)> on_mem_access;
  /// Observation hook: called once per executed instruction with its PC —
  /// the attacker-visible fetch stream.
  std::function<void(Addr pc)> on_fetch;

 private:
  i64 alu(const isa::Instruction& ins, i64 a, i64 b) const;
  /// SPM traffic the configured snapshot model charges for one event,
  /// given what ArchRS would have moved.
  u32 snapshot_bytes(SempeEvent ev, usize archrs_bytes) const;
  void write_int(isa::Reg r, i64 v);
  void write_fp(isa::Reg r, double v);
  void sync_regs_from_snapshot(const core::RegBits& bits);

  /// The instruction at pc from the decoded table; anything the table
  /// does not hold (a PC outside the code segment, a word that did not
  /// decode) goes through Program::fetch, which throws the SimError.
  isa::Instruction fetch(Addr pc) const;

  const isa::Program* prog_;
  // prog_'s code decoded once at construction; an undecodable word is held
  // as op == Opcode::kCount, so its error is raised by the step that
  // fetches it, not here.
  std::vector<isa::Instruction> decoded_;
  mem::MainMemory* mem_;
  CoreConfig cfg_;
  ArchState state_;
  mem::Scratchpad spm_;
  core::JbTable jb_;
  core::ArchSnapshotUnit snapshots_;
  u64 seq_ = 0;
  bool halted_ = false;
};

}  // namespace sempe::cpu
