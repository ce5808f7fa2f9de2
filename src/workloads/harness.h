// The generalized Fig. 7 evaluation harness: I iterations of W nested
// secret-dependent conditionals, each guarding one kernel body, with the
// (W+1)-th body executing unconditionally after the nest. This is the
// skeleton every harnessed workload plugs into — the microbenchmark kinds
// (workloads/kernels.h), the synthetic kernel family
// (workloads/synthetic.h) and the scenario pack (workloads/scenarios.h).
//
// A kernel contributes a KernelSpec: its shared read-only input image,
// per-level private buffer sizes, two emitters (natural and CTE/masked),
// and the host-computed checksum one execution leaves in its out_slot.
// The harness owns everything else: data layout, the sJMP/eosJMP nest,
// the CMOV merge phase (kSecure) or the guard-mask chain (kCte), and the
// expected merged results.
//
// Each harnessed workload is one HarnessedRow: its registry name, a line
// of prose, its kernel keys (name, default, range, help — each declared
// once) and a `make` that turns the resolved key values into a
// KernelSpec. The registry's one HarnessedGenerator derives everything
// else from the row (workloads/registry.h), in the spirit of scarab's
// kernel table, where one table names every synthetic kernel once.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "isa/program.h"
#include "isa/program_builder.h"
#include "workloads/kernels.h"

namespace sempe::workloads {

/// Build flavor of a harnessed workload.
///   kSecure — sJMP-annotated, shadow-memory privatized, CMOV merge phase.
///             Run in legacy mode it is the unprotected baseline; run in
///             SeMPE mode it is the protected configuration (same binary).
///   kCte    — FaCT-style constant-time build: no secret branches; every
///             level executes under a propagated guard mask.
enum class Variant : u8 { kSecure, kCte };

/// One kernel body, as the harness sees it. Emitters may clobber x10..x27
/// (and x1); the CTE emitter must honor rGuardBool/rGuardMask/rGuardNot
/// and mask every memory write with the guard.
struct KernelSpec {
  std::string name;        // diagnostic label, e.g. "synthetic.ptr_chase"
  usize size = 0;          // problem size forwarded in KernelParams::size
  std::vector<i64> input;  // shared read-only input image (may be empty)
  usize buf_words = 0;     // private working buffer, per nesting level
  usize aux_words = 0;     // private auxiliary buffer, per nesting level
  u64 expected = 0;        // host-computed out_slot value of one execution
  std::function<void(isa::ProgramBuilder&, const KernelParams&)> emit;
  std::function<void(isa::ProgramBuilder&, const KernelParams&)> emit_cte;
};

/// How a kernel key's value is checked beyond its [min, max] range.
enum class KeyRule : u8 { kRange, kMultipleOf8, kPowerOfTwo };

class KernelArgs;

/// One numeric key of a harnessed row, declared once: the generator
/// derives the accepted-key list, the catalog line, canonical defaulting
/// and the range check from it.
struct KernelKey {
  const char* name;
  u64 fallback;  // default, as the catalog shows it
  u64 min;       // accepted range, inclusive
  u64 max;
  const char* help;
  /// 0 (or absence) means "use the default", and the canonical spec
  /// echoes the resolved value. Otherwise 0 is a literal value and the
  /// typed text is echoed unchanged.
  bool zero_is_default = false;
  KeyRule rule = KeyRule::kRange;
  /// A default computed from the keys resolved before this one (only with
  /// zero_is_default; `fallback` is then 0).
  u64 (*derive)(const KernelArgs& earlier) = nullptr;
};

/// The `size` key every harnessed row leads with; 0 means `fallback`.
KernelKey size_key(u64 fallback, u64 min, u64 max, const char* help);

/// The resolved values of a row's keys, in row order, for `make`.
class KernelArgs {
 public:
  explicit KernelArgs(std::string workload) : workload_(std::move(workload)) {}
  /// The resolved value of `key`; CHECK-fails on a key not resolved yet.
  u64 operator[](std::string_view key) const;
  void add(std::string key, u64 value) {
    values_.emplace_back(std::move(key), value);
  }
  /// The workload name, for spec-level diagnostics.
  const std::string& workload() const { return workload_; }

 private:
  std::string workload_;
  std::vector<std::pair<std::string, u64>> values_;
};

/// One harnessed workload. `make` builds the kernel from the resolved key
/// values and the input-image seed; the generator names the KernelSpec.
struct HarnessedRow {
  const char* name;     // registry name, e.g. "synthetic.ptr_chase"
  const char* summary;  // prose; the catalog appends " (keys..., seed)"
  std::vector<KernelKey> keys;  // canonical order
  KernelSpec (*make)(const KernelArgs& args, u64 seed);
};

/// The Fig. 7 microbenchmark rows (micro.*), in declaration order.
const std::vector<HarnessedRow>& micro_rows();

struct HarnessConfig {
  usize width = 1;          // W: number of secret branches per iteration
  usize iterations = 100;   // I
  Variant variant = Variant::kSecure;
  std::vector<u8> secrets;  // s1..sW (0/1); missing entries default to 0
};

/// Per-level data layout of a flat-harness build (build_flat_harness):
/// which lines level w touches, for co-residence attackers that reduce
/// per-set contention to per-bit guesses (workloads/attack.h).
struct FlatLevel {
  Addr input = 0;        // this level's private input copy (0 if none)
  usize input_bytes = 0;
  Addr buf = 0;          // this level's private working buffer (0 if none)
  usize buf_bytes = 0;
  Addr out_slot = 0;
};

struct BuiltHarness {
  isa::Program program;
  Addr results_addr = 0;              // merged result words
  usize num_results = 0;
  std::vector<u64> expected_results;  // host-computed, given the secrets
  Addr secrets_addr = 0;
  std::vector<FlatLevel> flat_levels;  // empty for nested builds
};

/// Wrap `spec` in the Fig. 7 harness. A kCte build requires both emitters
/// (the unconditional (W+1)-th body uses the natural form).
BuiltHarness build_harness(const KernelSpec& spec, const HarnessConfig& cfg);

/// The co-residence victim shape: W SEQUENTIAL (non-nested) secure
/// regions, one per secret bit, each guarding one kernel execution over a
/// PRIVATE per-level input copy — so in legacy mode the set of cache lines
/// a run touches encodes the secret vector bit-per-level, which is exactly
/// what a co-resident prime+probe attacker measures. A constant-time merge
/// phase commits each level's out_slot to results[w] (W result words; no
/// unconditional extra level), so results still witness correctness.
/// kCte recomputes the guard per level from s(w+1) alone.
BuiltHarness build_flat_harness(const KernelSpec& spec,
                                const HarnessConfig& cfg);

/// The CTE store-masking idiom every masked kernel uses: dst = guard ?
/// val : dst against the level guard registers (rGuardMask/rGuardNot).
/// Three instructions, no branches.
void emit_guard_select(isa::ProgramBuilder& pb, isa::Reg dst, isa::Reg val,
                       isa::Reg scratch);

/// Write `sum` to p.out_slot — plainly (natural) or guard-masked (CTE).
/// `slot`/`old`/`scratch` are caller-provided scratch registers. Shared by
/// the synthetic and scenario kernel families.
void emit_out_slot(isa::ProgramBuilder& pb, const KernelParams& p,
                   isa::Reg sum, isa::Reg slot, isa::Reg old,
                   isa::Reg scratch, bool cte);

/// Decode a secret-space point into the per-level secret vector: bit w of
/// `mask` (LSB first) is s(w+1). `mask` must fit in `width` bits. This is
/// how the leakage audit enumerates/samples the 2^W secret space.
std::vector<u8> secrets_from_mask(u64 mask, usize width);

/// The spec-grammar literal for a mask, e.g. secrets_literal(0b101, 4) ==
/// "0b0101" (digits written MSB first, zero-padded to `width`). Feeding it
/// back through `secrets=` reproduces secrets_from_mask(mask, width).
std::string secrets_literal(u64 mask, usize width);

}  // namespace sempe::workloads
