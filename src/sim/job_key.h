// Content-address job identity for the sweep orchestration subsystem.
//
// Every job of a cacheable sweep family (sim/batch_runner.h) reduces to a
// JobIdentity: the canonical workload spec, the result-affecting machine
// configuration, the mode matrix the family executes, the result schema
// version, and the build's code fingerprint (util/fingerprint.h). Its FNV
// hash is the content-address key under which the result is cached
// (sim/sweep_cache.h) and journaled.
//
// What the key deliberately EXCLUDES is as load-bearing as what it
// includes:
//   - job labels (cosmetic; the JSON emitters take labels from the job
//     list, never from cached points);
//   - options the measurement never reads (measure_workload ignores
//     iterations/size/input_seed; AuditOptions::progress steers stderr
//     only);
//   - thread count, shard assignment, cache/journal paths — the
//     byte-identity contract says those cannot change results.
//
// Spec canonicalization: `name?b=2&a=1` and `name?a=1&b=2` resolve to the
// same workload, so params are sorted by key before hashing — permuted-
// equivalent specs share one cache entry.
#pragma once

#include <string>

#include "sim/batch_runner.h"

namespace sempe::sim {

/// Canonicalize a `name?key=val&...` spec for hashing: parse, sort params
/// by key, re-serialize. Specs that fail to parse (the measurement would
/// throw on them anyway) canonicalize to their raw text.
std::string canonical_spec_key(const std::string& spec_text);

/// The content-address identity of one sweep job.
struct JobIdentity {
  std::string family;       // the family row's kName
  std::string spec;         // canonical spec text
  std::string machine;      // result-affecting config, "k=v k=v" text
  std::string modes;        // mode matrix, e.g. "legacy,sempe,cte"
  int schema_version = kResultSchemaVersion;
  std::string fingerprint;  // code fingerprint the result depends on

  /// The exact text the key hashes (stable across builds; also the
  /// debugging form: two jobs collide iff these strings are equal).
  std::string canonical_text() const;
  /// The 64-bit FNV-1a hash of canonical_text() as 16 lowercase hex
  /// digits (the cache filename form).
  std::string key() const;
};

/// The identity of one job of a cacheable family: the row's key text
/// under its family name and mode list. `fingerprint` is normally
/// sempe::code_fingerprint(); tests substitute synthetic values to prove
/// stale-entry behavior.
template <CachedFamily F>
JobIdentity job_identity(const typename F::Job& job,
                         const std::string& fingerprint) {
  KeyText text = F::key(job);
  return {F::kName,  std::move(text.spec), std::move(text.machine),
          F::kModes, kResultSchemaVersion, fingerprint};
}

}  // namespace sempe::sim
