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
//
// Each scenario is one HarnessedRow (workloads/harness.h): its kernel keys
// (`rounds`, `bits`, `slots`, `fill`) and their ranges are declared once
// there, and the attacks validate their victim knobs against the same row.
#pragma once

#include "workloads/harness.h"

namespace sempe::workloads {

/// The three scenarios as harnessed rows (workloads/harness.h), in the
/// order above — the sweep order of `sempe_bench scenarios`, and the
/// victims the co-residence attacks accept (workloads/attack.h).
const std::vector<HarnessedRow>& scenario_rows();

}  // namespace sempe::workloads
