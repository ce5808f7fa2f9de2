// Parameterized synthetic kernel family, in the spirit of scarab's
// synthetic bottleneck dispatcher: each kernel stresses one machine
// resource, with knobs exposed through the workload registry's
// `synthetic.<kernel>?key=val` spec grammar.
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

enum class SynthKind : u8 {
  kPtrChase,
  kStream,
  kCondBranch,
  kIndirect,
  kIlpChain,
  kSecretMix,
};

inline constexpr usize kNumSynthKinds = 6;

/// All kinds, in declaration order (sweep order for sempe_bench synthetic).
const std::vector<SynthKind>& all_synth_kinds();

/// Registry-facing kernel name ("ptr_chase", "stream", ...). CHECK-fails
/// on out-of-range values.
const char* synth_name(SynthKind k);

struct SynthConfig {
  SynthKind kind = SynthKind::kPtrChase;
  usize size = 0;           // elements / steps; 0 = synth_default_size
  u64 seed = 42;            // input-image seed
  // Kind-specific knobs (ignored by the other kinds):
  usize stride = 64;        // ptr_chase: element spacing in bytes (mult. of 8)
  usize steps = 0;          // ptr_chase: chase length; 0 = 2*size+1 (the +1
                            // keeps the checksum chase-order sensitive)
  u32 taken_permille = 500; // cond_branch: P(taken) in per mille
  usize targets = 8;        // ibr: indirect target pool size (2..64)
  usize chains = 4;         // ilp: independent chains (1..8)
  usize depth = 8;          // ilp: dependent ops per chain per step (1..64)
};

usize synth_default_size(SynthKind k);

/// Build the harness-facing kernel (emitters + input image + host-mirror
/// checksum) for one parameterization. Throws SimError on out-of-range
/// parameters.
KernelSpec synth_kernel_spec(const SynthConfig& cfg);

}  // namespace sempe::workloads
