// Parameterized synthetic kernel family, in the spirit of scarab's
// synthetic bottleneck dispatcher: each kernel stresses one machine
// resource. Each is one HarnessedRow (workloads/harness.h) whose keys the
// registry exposes through the `synthetic.<kernel>?key=val` spec grammar.
//
//   ptr_chase   — dependent-load pointer chase over a shuffled cycle of
//                 `size` elements spaced `stride` bytes apart: memory
//                 latency bound, prefetcher hostile.
//   stream      — sequential read-accumulate-write over `size` words:
//                 bandwidth bound, prefetcher friendly.
//   cond_branch — `size` data-dependent conditional branches with a
//                 tunable taken ratio (`taken` per mille): TAGE stress.
//   ibr         — data-driven indirect calls through a pool of `targets`
//                 equally-sized code blocks: ITTAGE/BTB stress.
//   ilp         — `chains` independent dependence chains of `depth`
//                 multiply-adds per step: issue-width/latency bound.
//   secret_mix  — loads + data-dependent branches + stores per element;
//                 a mixed stressor sized for secret-region nesting.
//
// Every kernel has a natural and a CTE (branch-free, guard-masked) form
// and a host-side mirror, so the full legacy/SeMPE/CTE mode matrix of the
// paper's evaluation applies to each.
#pragma once

#include "workloads/harness.h"

namespace sempe::workloads {

/// The six kernels as harnessed rows (`synthetic.<kernel>`), in the order
/// above — the sweep order of `sempe_bench synthetic`. ptr_chase rejects a
/// size x stride input image above 2^26 bytes.
const std::vector<HarnessedRow>& synthetic_rows();

}  // namespace sempe::workloads
