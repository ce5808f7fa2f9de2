#include "pipeline/pipeline.h"

#include <algorithm>

#include "obs/metrics.h"

namespace sempe::pipeline {

using cpu::DynOp;
using cpu::SempeEvent;
using isa::OpClass;
using isa::Opcode;

Pipeline::Pipeline(cpu::FunctionalCore* core, const PipelineConfig& cfg)
    : Pipeline(core, cfg, /*shared=*/nullptr, /*tenant=*/0) {}

Pipeline::Pipeline(cpu::FunctionalCore* core, const PipelineConfig& cfg,
                   mem::Hierarchy* shared, u32 tenant)
    : core_(core),
      cfg_(cfg),
      owned_hier_(shared != nullptr
                      ? nullptr
                      : std::make_unique<mem::Hierarchy>(cfg.memory)),
      hier_(shared != nullptr ? shared : owned_hier_.get()),
      tenant_(tenant),
      tage_(cfg.tage),
      ittage_(cfg.ittage),
      btb_(cfg.btb_entries),
      ras_(cfg.ras_depth),
      fetch_slots_(cfg.fetch_width),
      rename_slots_(cfg.rename_width),
      issue_slots_(cfg.issue_width),
      load_ports_(cfg.load_issue_width),
      store_ports_(cfg.store_ports),
      alu_(cfg.alu_units),
      mul_(cfg.mul_units),
      fpu_(cfg.fp_units),
      retire_slots_(cfg.retire_width),
      rob_(cfg.rob_entries),
      iq_int_(cfg.iq_int_entries),
      iq_fp_(cfg.iq_fp_entries),
      lq_(cfg.load_queue),
      sq_(cfg.store_queue),
      prf_int_(cfg.phys_int_regs - isa::kNumIntRegs),
      prf_fp_(cfg.phys_fp_regs - isa::kNumFpRegs) {
  SEMPE_CHECK(core != nullptr);
  SEMPE_CHECK(cfg.phys_int_regs > isa::kNumIntRegs);
  SEMPE_CHECK(cfg.phys_fp_regs > isa::kNumFpRegs);
}

Cycle Pipeline::spm_cycles(u32 bytes) const {
  return (bytes + cfg_.spm_bytes_per_cycle - 1) / cfg_.spm_bytes_per_cycle;
}

Cycle Pipeline::fetch_of(const DynOp& op) {
  const Addr line =
      op.pc & ~static_cast<Addr>(cfg_.memory.il1.line_bytes - 1);
  if (line != cur_fetch_line_) {
    const Cycle lat = hier_->access_instr(op.pc, tenant_);
    cur_fetch_line_ = line;
    // Hits are pipelined; only the latency beyond a hit stalls fetch.
    // checked_sub: a latency below il1_hit_latency (e.g. from a future
    // hierarchy variant with a line buffer) must clamp to "ready now", not
    // wrap line_ready_ to ~2^64 and deadlock fetch.
    line_ready_ = fetch_floor_ + checked_sub(lat, cfg_.memory.il1_hit_latency);
  }
  return fetch_slots_.alloc(std::max(fetch_floor_, line_ready_));
}

void Pipeline::process(const DynOp& op) {
  if (on_retire) {
    if (load_lat_hist_ != nullptr)
      process_impl<true, true>(op);
    else
      process_impl<true, false>(op);
  } else {
    if (load_lat_hist_ != nullptr)
      process_impl<false, true>(op);
    else
      process_impl<false, false>(op);
  }
}

template <bool kNotify, bool kObserve>
void Pipeline::process_impl(const DynOp& op) {
  const isa::OpInfo& info = isa::op_info(op.ins.op);
  const bool is_fp_class =
      info.op_class == OpClass::kFpAlu || info.op_class == OpClass::kFpDiv;

  // ---- Fetch ---------------------------------------------------------------
  const Cycle f = fetch_of(op);

  // ---- Rename / dispatch -----------------------------------------------------
  Cycle rn = std::max(f + cfg_.front_end_depth, rename_floor_);
  rn = std::max(rn, rob_.free_at());
  rn = std::max(rn, (is_fp_class ? iq_fp_ : iq_int_).free_at());
  if (info.op_class == OpClass::kLoad) rn = std::max(rn, lq_.free_at());
  if (info.op_class == OpClass::kStore) rn = std::max(rn, sq_.free_at());
  const bool writes_int =
      info.uses_rd && isa::is_int_reg(op.ins.rd) && op.ins.rd != isa::kRegZero;
  const bool writes_fp = info.uses_rd && isa::is_fp_reg(op.ins.rd);
  if (writes_int) rn = std::max(rn, prf_int_.free_at());
  if (writes_fp) rn = std::max(rn, prf_fp_.free_at());
  rn = rename_slots_.alloc(rn);

  // ---- Source readiness ------------------------------------------------------
  Cycle ready = rn + 1;
  if (info.uses_rs1) ready = std::max(ready, reg_ready_[op.ins.rs1]);
  if (info.uses_rs2) ready = std::max(ready, reg_ready_[op.ins.rs2]);
  if (info.reads_rd) ready = std::max(ready, reg_ready_[op.ins.rd]);

  // ---- Issue + execute -------------------------------------------------------
  Cycle iss = ready;
  Cycle complete = 0;
  switch (info.op_class) {
    case OpClass::kLoad: {
      ++stats_.loads;
      // RAW detection is 8-byte granular; a load whose bytes straddle an
      // 8-byte boundary must consult BOTH chunks, or a partial overlap with
      // an older store in the second chunk silently misses the dependency.
      const Addr key = op.mem_addr & ~7ull;
      const Addr key_hi =
          (op.mem_addr + (op.mem_size > 0 ? op.mem_size - 1 : 0)) & ~7ull;
      auto it = store_buffer_.find(key);
      if (it != store_buffer_.end())
        iss = std::max(iss, it->second.data_ready);  // memory RAW
      bool crosses_hit = false;
      if (key_hi != key) {
        auto hi = store_buffer_.find(key_hi);
        if (hi != store_buffer_.end()) {
          iss = std::max(iss, hi->second.data_ready);
          crosses_hit = true;
        }
      }
      iss = load_ports_.alloc(iss);
      iss = issue_slots_.alloc(iss);
      // Forwarding needs the whole value from one store-buffer chunk; a
      // boundary-crossing load that also depends on the high chunk reads
      // from the cache instead.
      if (it != store_buffer_.end() && iss < it->second.commit &&
          !crosses_hit) {
        ++stats_.store_forwards;
        complete = iss + cfg_.forward_latency;
      } else {
        const Cycle lat =
            hier_->access_data(op.mem_addr, false, op.pc, tenant_);
        if constexpr (kObserve) load_lat_hist_->record(lat);
        complete = iss + cfg_.load_base_latency + lat;
      }
      break;
    }
    case OpClass::kStore: {
      ++stats_.stores;
      iss = store_ports_.alloc(iss);
      iss = issue_slots_.alloc(iss);
      hier_->access_data(op.mem_addr, true, op.pc, tenant_);
      complete = iss + 1;
      break;
    }
    case OpClass::kIntMul:
      iss = mul_.alloc(iss);
      iss = issue_slots_.alloc(iss);
      complete = iss + cfg_.mul_latency;
      break;
    case OpClass::kIntDiv:
      // Unpipelined divider with a data-independent latency (constant-time
      // division is required for the security property).
      iss = std::max(iss, div_free_);
      iss = issue_slots_.alloc(iss);
      div_free_ = iss + cfg_.div_latency;
      complete = iss + cfg_.div_latency;
      break;
    case OpClass::kFpAlu:
      iss = fpu_.alloc(iss);
      iss = issue_slots_.alloc(iss);
      complete = iss + cfg_.fp_latency;
      break;
    case OpClass::kFpDiv:
      iss = std::max(iss, fpdiv_free_);
      iss = issue_slots_.alloc(iss);
      fpdiv_free_ = iss + cfg_.fp_div_latency;
      complete = iss + cfg_.fp_div_latency;
      break;
    case OpClass::kIntAlu:
    case OpClass::kBranch:
    case OpClass::kJump:
    case OpClass::kJumpInd:
    case OpClass::kNop:
      iss = alu_.alloc(iss);
      iss = issue_slots_.alloc(iss);
      complete = iss + cfg_.alu_latency;
      break;
  }

  // ---- In-order commit ---------------------------------------------------------
  Cycle cm = std::max(complete + 1, last_commit_);
  cm = retire_slots_.alloc(cm);
  last_commit_ = cm;

  // ---- Bookkeeping ----------------------------------------------------------
  rob_.push(cm);
  (is_fp_class ? iq_fp_ : iq_int_).push(iss);
  if (info.op_class == OpClass::kLoad) lq_.push(cm);
  if (info.op_class == OpClass::kStore) {
    sq_.push(cm);
    store_buffer_[op.mem_addr & ~7ull] = {complete, cm};
    // A store straddling an 8-byte boundary registers both chunks so later
    // loads of either chunk see the dependency.
    const Addr key_hi =
        (op.mem_addr + (op.mem_size > 0 ? op.mem_size - 1 : 0)) & ~7ull;
    if (key_hi != (op.mem_addr & ~7ull)) store_buffer_[key_hi] = {complete, cm};
  }
  if (writes_int || writes_fp) {
    reg_ready_[op.ins.rd] = complete;
    (writes_int ? prf_int_ : prf_fp_).push(cm);
  }

  handle_control(op, f, complete, cm);

  if constexpr (kNotify)
    on_retire(op, OpTimestamps{f, rn, iss, complete, cm});

  // Each limiter is pruned at its own lower bound on every request it will
  // see from now on. Each bound only rises, so pruning at it is exact:
  //  - fetch never starts before fetch_floor_;
  //  - rename waits for the commit of the instruction a full ROB back
  //    (rob_.free_at()), and issue, ports and FUs all follow rename;
  //  - commit is in order, so retire never goes below last_commit_.
  // Each ring then spans only the cycles still in flight, not the run.
  const Cycle rob_floor = rob_.free_at();
  fetch_slots_.prune(fetch_floor_);
  rename_slots_.prune(rob_floor);
  issue_slots_.prune(rob_floor);
  load_ports_.prune(rob_floor);
  store_ports_.prune(rob_floor);
  alu_.prune(rob_floor);
  mul_.prune(rob_floor);
  fpu_.prune(rob_floor);
  retire_slots_.prune(last_commit_);

  ++processed_;
  if ((processed_ & 0xffff) == 0) {
    // Keep the store buffer from growing without bound: entries whose commit
    // is long past can no longer forward.
    if (store_buffer_.size() > 4096) {
      for (auto it = store_buffer_.begin(); it != store_buffer_.end();) {
        if (it->second.commit + 10000 < last_commit_)
          it = store_buffer_.erase(it);
        else
          ++it;
      }
    }
  }

  if (op.is_halt) {
    stats_.cycles = cm;
    stats_.instructions = processed_;
    if (owned_hier_ == nullptr) {
      // Shared hierarchy: global demand counters mix every tenant's
      // traffic, so copy this tenant's attributed view instead.
      const mem::TenantStats& t = hier_->tenant_stats(tenant_);
      stats_.il1_accesses = t.il1_accesses;
      stats_.il1_misses = t.il1_misses;
      stats_.dl1_accesses = t.dl1_accesses;
      stats_.dl1_misses = t.dl1_misses;
      stats_.l2_accesses = t.l2_accesses;
      stats_.l2_misses = t.l2_misses;
    } else {
      stats_.il1_accesses = hier_->il1().demand_accesses();
      stats_.il1_misses = hier_->il1().demand_misses();
      stats_.dl1_accesses = hier_->dl1().demand_accesses();
      stats_.dl1_misses = hier_->dl1().demand_misses();
      stats_.l2_accesses = hier_->l2().demand_accesses();
      stats_.l2_misses = hier_->l2().demand_misses();
    }
  }
}

void Pipeline::handle_control(const DynOp& op, Cycle f, Cycle complete,
                              Cycle cm) {
  if (op.is_cond_branch) {
    ++stats_.cond_branches;
    if (op.is_secure_branch) {
      // sJMP: no predictor consultation or update, ever. Rename of the
      // SecBlock stalls until the sJMP commits and the initial register
      // save to the SPM finishes (drain 1 + ArchRS save).
      ++stats_.sjmp_executed;
      stats_.spm_bytes += op.spm_bytes;
      const Cycle t = spm_cycles(op.spm_bytes);
      stats_.spm_transfer_cycles += t;
      const Cycle until = cm + t;
      if (until > rename_floor_)
        stats_.drain_stall_cycles += until - rename_floor_;
      rename_floor_ = std::max(rename_floor_, until);
      return;
    }
    const bool pred = tage_.predict(op.pc);
    tage_.update(op.pc, op.branch_taken);
    if (pred != op.branch_taken) {
      ++stats_.branch_mispredicts;
      fetch_floor_ = std::max(fetch_floor_, complete + 1);
    } else if (op.branch_taken) {
      if (btb_.lookup(op.pc) != op.branch_target) {
        ++stats_.btb_misses;
        fetch_floor_ = std::max(fetch_floor_, f + cfg_.btb_miss_penalty);
      } else {
        fetch_floor_ = std::max(fetch_floor_, f + 1);  // taken-branch break
      }
      btb_.insert(op.pc, op.branch_target);
    }
    return;
  }

  switch (op.ins.op) {
    case Opcode::kJal: {
      tage_.note_unconditional(op.pc);
      if (btb_.lookup(op.pc) != op.branch_target) {
        ++stats_.btb_misses;
        fetch_floor_ = std::max(fetch_floor_, f + cfg_.btb_miss_penalty);
      } else {
        fetch_floor_ = std::max(fetch_floor_, f + 1);
      }
      btb_.insert(op.pc, op.branch_target);
      if (op.ins.rd == isa::kRegRa) ras_.push(op.pc + isa::kInstrBytes);
      break;
    }
    case Opcode::kJalr: {
      tage_.note_unconditional(op.pc);
      const bool is_return =
          op.ins.rs1 == isa::kRegRa && op.ins.rd == isa::kRegZero;
      Addr predicted;
      if (is_return) {
        predicted = ras_.pop();
      } else {
        predicted = ittage_.predict(op.pc);
        ittage_.update(op.pc, op.next_pc);
      }
      if (op.ins.rd == isa::kRegRa) ras_.push(op.pc + isa::kInstrBytes);
      if (predicted == op.next_pc) {
        fetch_floor_ = std::max(fetch_floor_, f + 1);
      } else {
        ++stats_.indirect_mispredicts;
        fetch_floor_ = std::max(fetch_floor_, complete + 1);
      }
      break;
    }
    case Opcode::kEosjmp: {
      if (op.event == SempeEvent::kEosFirst) {
        // The jbTable target becomes nextPC only when the eosJMP commits
        // (Fig. 5 step 4): fetch of the taken SecBlock stalls until then,
        // plus the NT-save/restore SPM transfer (drain 2).
        stats_.spm_bytes += op.spm_bytes;
        const Cycle t = spm_cycles(op.spm_bytes);
        stats_.spm_transfer_cycles += t;
        const Cycle until = cm + t + 1;
        if (until > fetch_floor_)
          stats_.drain_stall_cycles += until - fetch_floor_;
        fetch_floor_ = std::max(fetch_floor_, until);
      } else if (op.event == SempeEvent::kEosSecond) {
        // Selective restore (drain 3): code after the secure region renames
        // only once the restored register state is in place.
        ++stats_.secure_regions_completed;
        stats_.spm_bytes += op.spm_bytes;
        const Cycle t = spm_cycles(op.spm_bytes);
        stats_.spm_transfer_cycles += t;
        const Cycle until = cm + t;
        if (until > rename_floor_)
          stats_.drain_stall_cycles += until - rename_floor_;
        rename_floor_ = std::max(rename_floor_, until);
      }
      break;
    }
    default:
      break;
  }
}

PipelineStats Pipeline::run() {
  // Hoist the observer tests out of the per-instruction loop: the sweep
  // path (no recorder or histogram attached) runs the instantiation with
  // both hooks compiled out entirely.
  if (on_retire) {
    if (load_lat_hist_ != nullptr) {
      while (!core_->halted()) process_impl<true, true>(core_->step());
    } else {
      while (!core_->halted()) process_impl<true, false>(core_->step());
    }
  } else if (load_lat_hist_ != nullptr) {
    while (!core_->halted()) process_impl<false, true>(core_->step());
  } else {
    while (!core_->halted()) process_impl<false, false>(core_->step());
  }
  return stats_;
}

void Pipeline::run_until(Cycle target) {
  // Same hoisted dispatch as run(), bounded by the commit clock: the
  // sequence of process_impl calls for a program is identical whether it is
  // run in one shot or in quanta, which is what makes the N=1 scheduler
  // path bit-identical to sim::run.
  if (on_retire) {
    if (load_lat_hist_ != nullptr) {
      while (!core_->halted() && last_commit_ < target)
        process_impl<true, true>(core_->step());
    } else {
      while (!core_->halted() && last_commit_ < target)
        process_impl<true, false>(core_->step());
    }
  } else if (load_lat_hist_ != nullptr) {
    while (!core_->halted() && last_commit_ < target)
      process_impl<false, true>(core_->step());
  } else {
    while (!core_->halted() && last_commit_ < target)
      process_impl<false, false>(core_->step());
  }
}

bool Pipeline::halted() const { return core_->halted(); }

usize Pipeline::max_limiter_capacity() const {
  return std::max({fetch_slots_.capacity(), rename_slots_.capacity(),
                   issue_slots_.capacity(), load_ports_.capacity(),
                   store_ports_.capacity(), alu_.capacity(), mul_.capacity(),
                   fpu_.capacity(), retire_slots_.capacity()});
}

StatSet PipelineStats::export_stats() const {
  StatSet s;
  s.add("cycles", cycles);
  s.add("instructions", instructions);
  s.add("cond_branches", cond_branches);
  s.add("branch_mispredicts", branch_mispredicts);
  s.add("indirect_mispredicts", indirect_mispredicts);
  s.add("btb_misses", btb_misses);
  s.add("loads", loads);
  s.add("stores", stores);
  s.add("store_forwards", store_forwards);
  s.add("sjmp_executed", sjmp_executed);
  s.add("secure_regions_completed", secure_regions_completed);
  s.add("spm_bytes", spm_bytes);
  s.add("spm_transfer_cycles", spm_transfer_cycles);
  s.add("drain_stall_cycles", drain_stall_cycles);
  s.add("il1_accesses", il1_accesses);
  s.add("il1_misses", il1_misses);
  s.add("dl1_accesses", dl1_accesses);
  s.add("dl1_misses", dl1_misses);
  s.add("l2_accesses", l2_accesses);
  s.add("l2_misses", l2_misses);
  return s;
}

u64 Pipeline::predictor_digest() const {
  u64 h = 1469598103934665603ull;
  auto mix = [&h](u64 v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(tage_.digest());
  mix(ittage_.digest());
  mix(btb_.digest());
  mix(ras_.digest());
  return h;
}

}  // namespace sempe::pipeline
