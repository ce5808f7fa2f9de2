// Co-residence attack workloads: a victim tenant built from the flat
// harness (workloads/harness.h) and an attacker tenant that probes the
// shared cache hierarchy (sim/scheduler.h), reducing its probe-latency
// observations to a guess of the victim's secret vector.
//
//   attack.prime_probe  — the attacker fills both ways of a targeted group
//       of DL1 sets with its own (tenant-tagged) lines via a permuted
//       pointer-chase, then keeps re-chasing, classifying each load as
//       hit/miss. A miss in a set owned by exactly one victim level means
//       that level executed — one recovered secret bit. No line sharing at
//       all: pure set contention, the paper's threat-model channel.
//   attack.flush_reload — the victim's data region is a shared read-only
//       window (mem::Hierarchy::set_shared_window), so attacker and
//       victim hit the SAME untagged lines. Each pass the attacker
//       evicts the watched victim lines with conflicting private lines
//       ("flush"), then reloads them; a DL1-hit reload means the victim
//       touched the line since the evict.
//
// Both take a `victim=` parameter naming a scenario row (crypto.aes,
// crypto.modexp, ds.hash_probe) plus that row's own knobs (0 means the
// row's default; the row's ranges apply, workloads/scenarios.h), the shared
// harness keys, and the co-residence knobs set_bits (watched sets per
// secret bit: 2^set_bits), quantum (scheduler quantum in cycles), and
// passes (probe passes; 0 auto-calibrates against the victim's all-ones
// runtime so the attacker outlives the victim in every mode).
//
// build() returns the victim binary alone (so the registry's functional
// round-trip, differential, and taint paths apply unchanged); the audit
// reaches the two-tenant simulation through WorkloadGenerator::run_attack.
#pragma once

#include "workloads/registry.h"

namespace sempe::workloads {

/// Register attack.prime_probe and attack.flush_reload. Called once by
/// the WorkloadRegistry constructor.
void register_attack_workloads(WorkloadRegistry& reg);

}  // namespace sempe::workloads
