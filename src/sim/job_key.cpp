#include "sim/job_key.h"

#include <algorithm>
#include <cstdio>

#include "util/check.h"
#include "workloads/registry.h"

namespace sempe::sim {

std::string canonical_spec_key(const std::string& spec_text) {
  try {
    workloads::WorkloadSpec spec = workloads::WorkloadSpec::parse(spec_text);
    std::stable_sort(
        spec.params.begin(), spec.params.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    return spec.to_string();
  } catch (const SimError&) {
    // Unparseable specs throw again at measurement time; keying them by
    // raw text keeps key computation total.
    return spec_text;
  }
}

std::string JobIdentity::canonical_text() const {
  std::string out = "family=" + family;
  out += "\nspec=" + spec;
  out += "\nmachine=" + machine;
  out += "\nmodes=" + modes;
  out += "\nschema=" + std::to_string(schema_version);
  out += "\nfingerprint=" + fingerprint;
  out += "\n";
  return out;
}

std::string JobIdentity::key() const {
  u64 h = 14695981039346656037ull;  // 64-bit FNV-1a
  for (const char c : canonical_text()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

namespace {

void append_u64(std::string& out, const char* key, u64 v) {
  if (!out.empty()) out += ' ';
  out += key;
  out += '=';
  out += std::to_string(v);
}

/// The machine knobs, every one of which shapes a timing point.
std::string machine_text(const MachineOptions& opt) {
  std::string out;
  append_u64(out, "snapshot_model", static_cast<u64>(opt.snapshot_model));
  append_u64(out, "spm_bytes_per_cycle", opt.spm_bytes_per_cycle);
  append_u64(out, "enable_prefetchers", opt.enable_prefetchers ? 1 : 0);
  append_u64(out, "extra_front_end_depth", opt.extra_front_end_depth);
  append_u64(out, "rename_width_override", opt.rename_width_override);
  return out;
}

/// The AuditOptions fields that shape the audit result. `progress` only
/// steers stderr and is deliberately excluded.
std::string audit_text(const security::AuditOptions& opt) {
  std::string out;
  append_u64(out, "samples", opt.samples);
  append_u64(out, "seed", opt.seed);
  append_u64(out, "include_cte", opt.include_cte ? 1 : 0);
  append_u64(out, "stat_samples", opt.stat_samples);
  append_u64(out, "stat_budget", opt.stat_budget);
  // Hexfloat: lossless, locale-free text for the one f64 knob.
  char conf[40];
  std::snprintf(conf, sizeof conf, "confidence=%a", opt.confidence);
  if (!out.empty()) out += ' ';
  out += conf;
  return out;
}

}  // namespace

KeyText WorkloadFamily::key(const Job& j) {
  return {canonical_spec_key(j.spec), machine_text(j.opt),
          j.legacy_only ? "legacy" : ""};
}

KeyText LeakageFamily::key(const Job& j) {
  return {canonical_spec_key(j.spec), audit_text(j.opt)};
}

KeyText LintFamily::key(const Job& j) {
  return {canonical_spec_key(j.spec), audit_text(j.opt)};
}

KeyText TenantFamily::key(const Job& j) {
  // The attack spec carries the victim sub-spec, the probe-shape knobs,
  // and the scheduler quantum as ordinary parameters, so canonicalization
  // makes the key sensitive to all of them; the co-residence degree is a
  // machine coordinate of its own.
  const std::string audit = audit_text(j.opt);
  return {canonical_spec_key(j.spec),
          "tenants=" + std::to_string(j.tenants) +
              (audit.empty() ? "" : " " + audit)};
}

}  // namespace sempe::sim
