// The out-of-order timing model.
//
// Consumes the architecturally-resolved DynOp stream from a FunctionalCore
// and computes per-instruction timestamps (fetch, rename, issue, complete,
// commit) under the structural constraints of Table II: stage widths, ROB /
// issue-queue / LSQ / physical-register occupancy, functional-unit
// contention, cache latencies, and branch prediction.
//
// Modeling approach (see README "Timing model"): the correct path executes
// functionally; ordinary-branch mispredictions appear as fetch-redirect
// bubbles (fetch resumes after the branch resolves). SeMPE secure regions
// never speculate, so their timing — the three pipeline drains, the SPM
// save/restore transfers at 64B/cycle, and the jump-back fetch redirect of
// Figure 6 — is modeled exactly:
//
//   sJMP        rename of the SecBlock stalls until the sJMP commits and
//               the initial register save completes (drain 1); fetch is NOT
//               interrupted (nextPC is the fall-through, known statically),
//               matching "instructions are still fetched and decoded
//               correctly, until their queues are full".
//   eosJMP #1   fetch stalls until the eosJMP commits (the jbTable target
//               becomes nextPC only at commit), plus the NT-modified
//               register save + pre-SecBlock restore transfer (drain 2).
//   eosJMP #2   rename stalls until commit plus the constant-time selective
//               restore transfer (drain 3).
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "branch/btb_ras.h"
#include "branch/ittage.h"
#include "branch/tage.h"
#include "cpu/functional_core.h"
#include "mem/hierarchy.h"
#include "mem/scratchpad.h"
#include "pipeline/pipeline_config.h"
#include "pipeline/width_limiter.h"
#include "util/stats.h"

namespace sempe::obs {
class Histogram;
}  // namespace sempe::obs

namespace sempe::pipeline {

struct PipelineStats {
  Cycle cycles = 0;
  u64 instructions = 0;
  double cpi() const {
    return instructions == 0 ? 0.0
                             : static_cast<double>(cycles) /
                                   static_cast<double>(instructions);
  }

  u64 cond_branches = 0;
  u64 branch_mispredicts = 0;
  u64 indirect_mispredicts = 0;
  u64 btb_misses = 0;

  u64 loads = 0;
  u64 stores = 0;
  u64 store_forwards = 0;

  // SeMPE accounting.
  u64 sjmp_executed = 0;
  u64 secure_regions_completed = 0;
  u64 spm_bytes = 0;
  Cycle spm_transfer_cycles = 0;
  Cycle drain_stall_cycles = 0;  // rename/fetch floors imposed by SeMPE

  // Cache counters (copied from the hierarchy at the end of a run).
  u64 il1_accesses = 0, il1_misses = 0;
  u64 dl1_accesses = 0, dl1_misses = 0;
  u64 l2_accesses = 0, l2_misses = 0;
  double il1_miss_rate() const { return rate(il1_misses, il1_accesses); }
  double dl1_miss_rate() const { return rate(dl1_misses, dl1_accesses); }
  double l2_miss_rate() const { return rate(l2_misses, l2_accesses); }

  /// Cold path: render the named view of every slot above ("cycles",
  /// "instructions", "cond_branches", ...) for reports and aggregation.
  StatSet export_stats() const;

 private:
  static double rate(u64 m, u64 a) {
    return a == 0 ? 0.0 : static_cast<double>(m) / static_cast<double>(a);
  }
};

/// Per-instruction pipeline timestamps, delivered through the retire hook
/// (tooling: timeline dumps, per-stage latency analysis).
struct OpTimestamps {
  Cycle fetch = 0;
  Cycle rename = 0;
  Cycle issue = 0;
  Cycle complete = 0;
  Cycle commit = 0;
};

class Pipeline {
 public:
  Pipeline(cpu::FunctionalCore* core, const PipelineConfig& cfg = {});

  /// Co-residence form: time against `shared` (not owned) with every cache
  /// access tagged by `tenant`. The cycles/instructions counters stay
  /// per-pipeline; the cache counters copied into stats() at halt are this
  /// tenant's view of the shared hierarchy.
  Pipeline(cpu::FunctionalCore* core, const PipelineConfig& cfg,
           mem::Hierarchy* shared, u32 tenant);

  /// Optional observer invoked for every retired instruction with its
  /// timestamps, in program order.
  std::function<void(const cpu::DynOp&, const OpTimestamps&)> on_retire;

  /// Run the program to HALT; returns the final statistics. The retire
  /// hook is tested once up front: the no-observer sweep path runs a loop
  /// instantiation with the notification statically compiled out.
  PipelineStats run();

  /// Advance until the commit clock reaches `target` or the program halts —
  /// the scheduler's quantum step. Processes whole instructions, so the
  /// clock may overshoot the target by the last instruction's commit
  /// latency; run() is equivalent to run_until(max Cycle).
  void run_until(Cycle target);

  bool halted() const;

  /// Process a single dynamic instruction (exposed for tests).
  void process(const cpu::DynOp& op);

  /// Attach (nullptr detaches) a histogram recording each load's memory
  /// latency in cycles. Like on_retire, the attachment is tested once up
  /// front — the unobserved path runs a loop instantiation with the
  /// recording statically compiled out, so sweeps without an observability
  /// session pay nothing.
  void set_load_latency_hist(obs::Histogram* h) { load_lat_hist_ = h; }

  const PipelineStats& stats() const { return stats_; }
  const mem::Hierarchy& memory() const { return *hier_; }
  const branch::Tage& tage() const { return tage_; }
  const branch::ItTage& ittage() const { return ittage_; }

  /// Digest of all attacker-visible predictor state (TAGE, ITTAGE, BTB,
  /// RAS). Used by the security indistinguishability checker.
  u64 predictor_digest() const;

  Cycle now() const { return last_commit_; }

  /// Largest ring capacity over the structural-resource limiters: the
  /// widest live window the run has held open (tests pin it bounded).
  usize max_limiter_capacity() const;

 private:
  struct OccupancyRing {
    explicit OccupancyRing(usize n) : slots(n, 0) {}
    /// Cycle at which a new entry becomes available given the ring size.
    Cycle free_at() const { return slots[head]; }
    void push(Cycle c) {
      slots[head] = c;
      if (++head == slots.size()) head = 0;
    }
    std::vector<Cycle> slots;
    usize head = 0;
  };

  Cycle spm_cycles(u32 bytes) const;
  Cycle fetch_of(const cpu::DynOp& op);
  void handle_control(const cpu::DynOp& op, Cycle fetch, Cycle complete,
                      Cycle commit);
  /// The body of process(); kNotify compiles the retire-hook dispatch in
  /// or out, kObserve the load-latency histogram recording, so the hot
  /// sweep path (no observers attached) pays nothing for either.
  template <bool kNotify, bool kObserve>
  void process_impl(const cpu::DynOp& op);

  cpu::FunctionalCore* core_;
  PipelineConfig cfg_;
  std::unique_ptr<mem::Hierarchy> owned_hier_;  // null when sharing
  mem::Hierarchy* hier_;  // owned_hier_.get() or the shared hierarchy
  u32 tenant_ = 0;
  branch::Tage tage_;
  branch::ItTage ittage_;
  branch::Btb btb_;
  branch::ReturnAddressStack ras_;

  // Structural resources.
  WidthLimiter fetch_slots_;
  WidthLimiter rename_slots_;
  WidthLimiter issue_slots_;
  WidthLimiter load_ports_;
  WidthLimiter store_ports_;
  WidthLimiter alu_;
  WidthLimiter mul_;
  WidthLimiter fpu_;
  WidthLimiter retire_slots_;
  Cycle div_free_ = 0;
  Cycle fpdiv_free_ = 0;

  // Occupancy.
  OccupancyRing rob_;
  OccupancyRing iq_int_;
  OccupancyRing iq_fp_;
  OccupancyRing lq_;
  OccupancyRing sq_;
  OccupancyRing prf_int_;
  OccupancyRing prf_fp_;

  // Dataflow.
  std::array<Cycle, isa::kNumArchRegs> reg_ready_{};

  // Store-to-load forwarding: 8-byte-aligned address -> {data ready, commit}.
  struct StoreInfo {
    Cycle data_ready = 0;
    Cycle commit = 0;
  };
  std::unordered_map<Addr, StoreInfo> store_buffer_;

  // Control state.
  Cycle fetch_floor_ = 0;   // earliest cycle the next instruction may fetch
  Cycle rename_floor_ = 0;  // earliest cycle the next instruction may rename
  Addr cur_fetch_line_ = ~0ull;
  Cycle line_ready_ = 0;
  Cycle last_commit_ = 0;
  u64 processed_ = 0;
  obs::Histogram* load_lat_hist_ = nullptr;

  PipelineStats stats_;
};

}  // namespace sempe::pipeline
