// Real-scenario workload pack: the canonical side-channel victims of the
// literature, expressed as harnessed kernels so the full legacy/SeMPE/CTE
// mode matrix and the leakage audit apply to each. Where the synthetic
// family (workloads/synthetic.h) stresses one machine resource per kernel,
// these model the *programs the attacks are written against*:
//
//   crypto.aes    — an S-box/T-table cipher round pass: every state word
//                   drives a table-indexed load (the classic cache-channel
//                   victim). The CTE form replaces each lookup with a full
//                   256-entry oblivious scan — the textbook constant-time
//                   mitigation, and the source of its 10–100x overheads.
//   crypto.modexp — square-and-multiply modular exponentiation: one
//                   conditional multiply per exponent bit (the classic
//                   fetch/timing-channel victim, RSA's SDBCB). The CTE form
//                   always multiplies and mask-selects the result.
//   ds.hash_probe — open-addressing hash-table probing with data-dependent
//                   chain lengths (variable-latency lookups). The CTE form
//                   probes the worst-case bound obliviously.
//
// The secret dimension is the harness nest (the `width`/`secrets` keys):
// in legacy mode a zero secret skips a whole kernel pass, so the secret is
// visible in exactly the channel the kernel exercises — the table lines it
// would have touched (aes), the instructions it would have fetched
// (modexp), the probe chains it would have walked (hash_probe). SeMPE must
// close all of them; the audit (security/audit.h) proves it per workload.
#pragma once

#include "workloads/harness.h"

namespace sempe::workloads {

enum class ScenarioKind : u8 {
  kAesTtable,
  kModexp,
  kHashProbe,
};

inline constexpr usize kNumScenarioKinds = 3;

/// All kinds, in declaration order (sweep order for sempe_bench scenarios).
const std::vector<ScenarioKind>& all_scenario_kinds();

/// Full registry name ("crypto.aes", "crypto.modexp", "ds.hash_probe").
/// CHECK-fails on out-of-range values.
const char* scenario_name(ScenarioKind k);

struct ScenarioConfig {
  ScenarioKind kind = ScenarioKind::kAesTtable;
  usize size = 0;    // main problem size; 0 = scenario_default_size
  u64 seed = 42;     // input-image seed (keys, tables, probe mix)
  // Kind-specific knobs (ignored by the other kinds):
  usize rounds = 2;  // aes: T-table round passes (1..16)
  usize bits = 16;   // modexp: exponent bits per base (1..63)
  usize slots = 64;  // hash_probe: table slots, power of two (8..4096)
  usize fill = 750;  // hash_probe: occupancy in per mille (0..900)
};

usize scenario_default_size(ScenarioKind k);

/// Build the harness-facing kernel (emitters + input image + host-mirror
/// checksum) for one parameterization. Throws SimError on out-of-range
/// parameters.
KernelSpec scenario_kernel_spec(const ScenarioConfig& cfg);

/// The sempe_bench scenarios sweep: every scenario family x width {1,4} x
/// secrets {all-false, all-true}, at `iters` harness iterations. Shared
/// with the golden-file test so the pinned JSON covers the real sweep.
std::vector<std::string> scenario_sweep_specs(usize iters);

}  // namespace sempe::workloads
