// Static secret-taint lint — the compile-time half of the constant-time
// story, complementing the dynamic leakage audit (security/audit.h).
//
// A forward dataflow analysis over isa::Cfg seeds taint at the workload's
// secret memory (by default the harness secret array reached through
// rSecrets, per workloads/workload_regs.h), propagates it through
// registers and a scratchpad-offset memory abstraction to a fixpoint, and
// reports every place a secret can influence an attacker-visible channel:
//
//   kSecretBranch    a conditional branch condition is tainted (SDBCB)
//   kSecretLoadAddr  a load address is tainted (cache-line channel)
//   kSecretStoreAddr a store address is tainted (cache-line channel)
//   kSecretDivRem    a tainted operand reaches variable-latency DIV/REM
//   kSecretIndirect  a jalr target is tainted (BTB/target channel)
//
// The analysis proves the property for ALL secret values at once — where
// the dynamic audit samples the secret space and can miss rare paths —
// and localizes each violation to a PC. It is sound modulo two documented
// precision caveats: pointers derived from an allocation base are assumed
// to stay inside that allocation (true for every builder-emitted
// workload), and indirect jumps conservatively flow state to every block
// (mirroring Cfg::reachable).
//
// Policy (LintPolicy) decides which findings are violations:
//   kLegacy  the binary runs on a legacy core: the SecPrefix is ignored,
//            so every tainted branch is a real SDBCB.
//   kSempe   the binary runs on a SeMPE core: a tainted branch is legal
//            iff it is an sJMP whose secure region the region verifier
//            (core/region_verifier.h) accepts — multi-path execution
//            hides the outcome. Tainted addresses / DIV operands /
//            indirect targets remain violations in every mode.
//   kCte     constant-time discipline: the program must lint fully clean.
#pragma once

#include <string>
#include <vector>

#include "isa/program.h"
#include "util/types.h"

namespace sempe::security {

enum class TaintKind : u8 {
  kSecretBranch,
  kSecretLoadAddr,
  kSecretStoreAddr,
  kSecretDivRem,
  kSecretIndirect,
};

const char* taint_kind_name(TaintKind k);

struct TaintFinding {
  TaintKind kind;
  Addr pc = 0;
  std::string detail;  // disassembly + which operand carries the taint

  std::string to_string() const;
};

enum class LintPolicy : u8 { kLegacy, kSempe, kCte };

const char* lint_policy_name(LintPolicy p);

/// Where secret data lives before the program runs. Ranges are byte
/// ranges in the data region; the lint treats every load intersecting a
/// range as producing a tainted value.
struct TaintSeeds {
  struct Range {
    Addr addr = 0;
    usize bytes = 0;
  };
  std::vector<Range> ranges;

  bool empty() const { return ranges.empty(); }
  bool intersects(Addr lo, usize bytes) const;

  static TaintSeeds none() { return {}; }
  static TaintSeeds range(Addr addr, usize bytes) {
    TaintSeeds s;
    s.ranges.push_back({addr, bytes});
    return s;
  }
};

/// Resolve the harness seeding convention against a concrete program:
/// the first `li rSecrets, imm` names the secret array's base; the seed
/// is the whole builder allocation containing it. Throws SimError when
/// the program has no such instruction or no matching allocation —
/// callers gate on secret_width(spec) > 0 first.
TaintSeeds resolve_secrets_base(const isa::Program& program);

struct LintOptions {
  LintPolicy policy = LintPolicy::kCte;
  usize max_passes = 64;  // fixpoint bound; exceeding it throws SimError
};

struct LintResult {
  std::vector<TaintFinding> findings;  // sorted by pc, deduped
  usize passes = 0;            // dataflow passes until the fixpoint
  usize tainted_branches = 0;  // tainted cond branches incl. excused sJMPs
  usize excused_sjmps = 0;     // tainted sJMPs the SeMPE policy excused

  bool clean() const { return findings.empty(); }
  std::string to_string() const;
};

/// Run the taint lint over one program.
LintResult lint_program(const isa::Program& program, const TaintSeeds& seeds,
                        const LintOptions& opt = {});

/// The lint verdicts of one registry workload across its variant x policy
/// matrix: the secure binary judged for a legacy core and for a SeMPE
/// core, and the CTE binary (when the generator has one) against the
/// clean-lint discipline.
struct WorkloadLint {
  std::string spec;  // canonical spec
  usize secret_width = 0;
  bool has_cte = false;
  LintResult natural_legacy;
  LintResult natural_sempe;
  LintResult cte;  // empty defaults when !has_cte

  std::string to_string() const;
};

/// Lint one `name?key=val&...` spec (registry-resolved, both variants).
WorkloadLint lint_workload(const std::string& spec_text);

/// Lint every registered workload at its bench defaults (width/iters
/// applied to harnessed generators, djpeg taken as-is). The registry-wide
/// sweep sempe_bench lint and the pinned-findings tests drive.
std::vector<WorkloadLint> lint_registry(usize width, usize iters);

}  // namespace sempe::security
