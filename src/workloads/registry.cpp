#include "workloads/registry.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "util/check.h"
#include "workloads/attack.h"
#include "workloads/djpeg.h"
#include "workloads/scenarios.h"
#include "workloads/synthetic.h"

namespace sempe::workloads {

// ---------------------------------------------------------------------------
// WorkloadSpec
// ---------------------------------------------------------------------------

WorkloadSpec WorkloadSpec::parse(const std::string& text) {
  WorkloadSpec spec;
  const auto qmark = text.find('?');
  spec.name = text.substr(0, qmark);
  if (spec.name.empty())
    throw SimError("workload spec '" + text + "': empty workload name");
  if (qmark == std::string::npos) return spec;

  std::string rest = text.substr(qmark + 1);
  while (!rest.empty()) {
    const auto amp = rest.find('&');
    const std::string pair = rest.substr(0, amp);
    rest = amp == std::string::npos ? "" : rest.substr(amp + 1);
    const auto eq = pair.find('=');
    if (eq == std::string::npos || eq == 0)
      throw SimError("workload spec '" + text + "': malformed parameter '" +
                     pair + "' (expected key=value)");
    const std::string key = pair.substr(0, eq);
    if (spec.has(key))
      throw SimError("workload spec '" + text + "': duplicate key '" + key +
                     "'");
    spec.params.emplace_back(key, pair.substr(eq + 1));
  }
  if (spec.params.empty())
    throw SimError("workload spec '" + text + "': '?' with no parameters");
  return spec;
}

std::string WorkloadSpec::to_string() const {
  std::string out = name;
  for (usize i = 0; i < params.size(); ++i) {
    out += i == 0 ? '?' : '&';
    out += params[i].first;
    out += '=';
    out += params[i].second;
  }
  return out;
}

bool WorkloadSpec::has(const std::string& key) const {
  for (const auto& [k, v] : params)
    if (k == key) return true;
  return false;
}

std::string WorkloadSpec::get(const std::string& key,
                              const std::string& fallback) const {
  for (const auto& [k, v] : params)
    if (k == key) return v;
  return fallback;
}

u64 WorkloadSpec::get_u64(const std::string& key, u64 fallback) const {
  if (!has(key)) return fallback;
  const std::string v = get(key, "");
  // Digits only: strtoull would otherwise wrap "-1" to 2^64-1 silently.
  bool digits = !v.empty();
  for (const char c : v) digits = digits && c >= '0' && c <= '9';
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
  if (!digits || end != v.c_str() + v.size() || errno == ERANGE)
    throw SimError("workload spec parameter '" + key + "=" + v +
                   "': not an unsigned integer");
  return static_cast<u64>(n);
}

void WorkloadSpec::set_default(const std::string& key,
                               const std::string& value) {
  if (!has(key)) params.emplace_back(key, value);
}

void WorkloadSpec::set_default_u64(const std::string& key, u64 value) {
  set_default(key, std::to_string(value));
}

void WorkloadSpec::set(const std::string& key, const std::string& value) {
  for (auto& [k, v] : params) {
    if (k == key) {
      v = value;
      return;
    }
  }
  params.emplace_back(key, value);
}

void WorkloadSpec::check_keys(const std::vector<ParamInfo>& accepted) const {
  for (const auto& [k, v] : params) {
    bool ok = false;
    for (const ParamInfo& a : accepted) ok = ok || k == a.key;
    if (!ok) {
      std::string keys;
      for (const ParamInfo& a : accepted) {
        if (!keys.empty()) keys += ", ";
        keys += a.key;
      }
      throw SimError("workload '" + name + "': unknown parameter '" + k +
                     "' (accepted: " + keys + ")");
    }
  }
}

// ---------------------------------------------------------------------------
// Shared harness-parameter parsing
// ---------------------------------------------------------------------------

HarnessConfig harness_config_from_spec(const WorkloadSpec& spec,
                                       Variant variant) {
  HarnessConfig h;
  h.width = spec.get_u64("width", 1);
  h.iterations = spec.get_u64("iters", 4);
  h.variant = variant;
  // Range-check here with spec-level messages; a huge iters would
  // otherwise surface as a cryptic li-immediate error from the emitter,
  // and a huge width as std::bad_alloc from the secrets vector below
  // before build_harness's own jbTable-capacity check could fire.
  if (h.iterations == 0 || h.iterations > (1u << 24))
    throw SimError("workload '" + spec.name + "': iters=" +
                   std::to_string(h.iterations) +
                   " out of range [1, 2^24]");
  if (h.width > 30)
    throw SimError("workload '" + spec.name + "': width=" +
                   std::to_string(h.width) +
                   " exceeds the jbTable capacity of 30");
  const std::string sec = spec.get("secrets", "1");
  if (sec.size() > 2 && sec[0] == '0' && sec[1] == 'b') {
    // Mask literal: the digits after "0b" are one binary number (MSB
    // first); bit w is s(w+1). This is the secret-space-sweep form the
    // leakage audit emits (security/audit.h) — any point of the 2^W space
    // addressable without changing the string length.
    u64 mask = 0;
    for (usize i = 2; i < sec.size(); ++i) {
      if (sec[i] != '0' && sec[i] != '1')
        throw SimError("workload '" + spec.name + "': secrets literal '" +
                       sec + "' has a non-binary digit");
      mask = (mask << 1) | static_cast<u64>(sec[i] - '0');
    }
    if (sec.size() - 2 > 64 || (h.width < 64 && (mask >> h.width) != 0))
      throw SimError("workload '" + spec.name + "': secrets literal '" + sec +
                     "' does not fit in width=" + std::to_string(h.width));
    h.secrets = secrets_from_mask(mask, h.width);
  } else {
    for (const char c : sec)
      if (c != '0' && c != '1')
        throw SimError("workload '" + spec.name + "': secrets value '" + sec +
                       "' must be a string of 0/1 digits");
    if (sec.size() == 1) {
      h.secrets.assign(h.width, static_cast<u8>(sec[0] - '0'));
    } else if (sec.size() == h.width) {
      for (const char c : sec) h.secrets.push_back(static_cast<u8>(c - '0'));
    } else {
      throw SimError("workload '" + spec.name + "': secrets '" + sec +
                     "' must have one digit or exactly width=" +
                     std::to_string(h.width) +
                     " digits (or a 0b mask literal)");
    }
  }
  return h;
}

namespace {

/// The harness keys every harnessed workload accepts after its kernel
/// keys, with their defaults.
const std::vector<ParamInfo>& harness_params() {
  static const std::vector<ParamInfo> params = {
      {"width", "1", "secret-branch nesting depth W"},
      {"iters", "4", "harness iterations"},
      {"secrets", "1", "0/1 string or 0bNNN mask literal"},
      {"seed", "42", "input-image seed"},
  };
  return params;
}

}  // namespace

void apply_harness_defaults(WorkloadSpec& spec) {
  for (const ParamInfo& p : harness_params())
    spec.set_default(p.key, p.fallback);
}

KernelArgs resolve_keys(const std::vector<KernelKey>& keys, WorkloadSpec& spec,
                        bool zero_is_default_everywhere) {
  KernelArgs args(spec.name);
  for (const KernelKey& key : keys) {
    u64 v = 0;
    if (key.zero_is_default || zero_is_default_everywhere) {
      // Write the resolved value back so the canonical spec echoes what
      // actually ran — an explicit `size=0` must not reach the emitters.
      v = spec.get_u64(key.name, 0);
      if (v == 0) v = key.derive != nullptr ? key.derive(args) : key.fallback;
      spec.set(key.name, std::to_string(v));
    } else {
      spec.set_default_u64(key.name, key.fallback);
      v = spec.get_u64(key.name, key.fallback);
    }
    const std::string what = "workload '" + spec.name + "': " + key.name +
                             "=" + std::to_string(v);
    if (v < key.min || v > key.max)
      throw SimError(what + " out of range [" + std::to_string(key.min) +
                     ", " + std::to_string(key.max) + "]");
    if (key.rule == KeyRule::kMultipleOf8 && v % 8 != 0)
      throw SimError(what + " is not a multiple of 8");
    if (key.rule == KeyRule::kPowerOfTwo && (v & (v - 1)) != 0)
      throw SimError(what + " is not a power of two");
    args.add(key.name, v);
  }
  return args;
}

std::vector<std::string> row_sweep_specs(const std::vector<HarnessedRow>& rows,
                                         usize iters) {
  std::vector<std::string> specs;
  for (const HarnessedRow& row : rows)
    for (const usize w : {usize{1}, usize{4}})
      for (const char* secrets : {"0", "1"})
        specs.push_back(std::string(row.name) + "?width=" + std::to_string(w) +
                        "&iters=" + std::to_string(iters) +
                        "&secrets=" + secrets);
  return specs;
}

namespace {

// ---------------------------------------------------------------------------
// Built-in generators
// ---------------------------------------------------------------------------

/// Every harnessed workload: one row (workloads/harness.h) wrapped in the
/// Fig. 7 harness. Accepted keys, catalog lines, canonical defaulting and
/// range checks all come from the row.
class HarnessedGenerator final : public WorkloadGenerator {
 public:
  explicit HarnessedGenerator(const HarnessedRow& row) : row_(row) {}

  std::string name() const override { return row_.name; }
  std::string summary() const override {
    std::string keys;
    for (const ParamInfo& p : params())
      keys += (keys.empty() ? "" : ", ") + p.key;
    return std::string(row_.summary) + " (" + keys + ")";
  }
  usize secret_width(const WorkloadSpec& spec) const override {
    return static_cast<usize>(spec.get_u64("width", 1));
  }
  std::vector<ParamInfo> params() const override {
    std::vector<ParamInfo> out;
    for (const KernelKey& key : row_.keys)
      out.push_back({key.name, std::to_string(key.fallback), key.help});
    out.insert(out.end(), harness_params().begin(), harness_params().end());
    return out;
  }
  BuiltWorkload build(const WorkloadSpec& in, Variant variant) const override {
    WorkloadSpec spec = in;
    spec.check_keys(params());
    const KernelArgs args = resolve_keys(row_.keys, spec);
    apply_harness_defaults(spec);
    const HarnessConfig h = harness_config_from_spec(spec, variant);
    KernelSpec kernel = row_.make(args, spec.get_u64("seed", 42));
    kernel.name = row_.name;
    BuiltHarness b = build_harness(kernel, h);
    BuiltWorkload out;
    out.program = std::move(b.program);
    out.spec = spec.to_string();
    out.results_addr = b.results_addr;
    out.num_results = b.num_results;
    out.expected_results = std::move(b.expected_results);
    return out;
  }

 private:
  const HarnessedRow& row_;
};

class DjpegGenerator final : public WorkloadGenerator {
 public:
  std::string name() const override { return "djpeg"; }
  std::string summary() const override {
    return "block image decompressor, Figs. 8/9 (format=ppm|gif|bmp, "
           "pixels, scale, seed)";
  }
  bool has_cte_variant() const override { return false; }
  std::vector<ParamInfo> params() const override {
    return {{"format", "ppm", "output epilogue: ppm, gif, or bmp"},
            {"pixels", "262144", "nominal image size"},
            {"scale", "8", "pixel divisor for simulation time"},
            {"seed", "1", "image-content seed (the secret)"}};
  }
  BuiltWorkload build(const WorkloadSpec& in, Variant variant) const override {
    if (variant == Variant::kCte)
      throw SimError("workload 'djpeg' has no CTE variant");
    WorkloadSpec spec = in;
    spec.check_keys(params());
    spec.set_default("format", "ppm");
    spec.set_default_u64("pixels", 256 * 1024);
    spec.set_default_u64("scale", 8);
    spec.set_default_u64("seed", 1);

    DjpegConfig cfg;
    const std::string fmt = spec.get("format", "ppm");
    if (fmt == "ppm") cfg.format = OutputFormat::kPpm;
    else if (fmt == "gif") cfg.format = OutputFormat::kGif;
    else if (fmt == "bmp") cfg.format = OutputFormat::kBmp;
    else
      throw SimError("workload 'djpeg': unknown format '" + fmt +
                     "' (accepted: ppm, gif, bmp)");
    cfg.pixels = spec.get_u64("pixels", cfg.pixels);
    cfg.scale = spec.get_u64("scale", cfg.scale);
    cfg.image_seed = spec.get_u64("seed", cfg.image_seed);
    // Range-check before building: an unbounded pixel count would make
    // the builder allocate (and host-decode) an arbitrarily large image.
    if (cfg.pixels < 64 || cfg.pixels > (1u << 24))
      throw SimError("workload 'djpeg': pixels=" +
                     std::to_string(cfg.pixels) + " out of range [64, 2^24]");
    if (cfg.scale < 1 || cfg.scale > 256)
      throw SimError("workload 'djpeg': scale=" + std::to_string(cfg.scale) +
                     " out of range [1, 256]");

    BuiltDjpeg b = build_djpeg(cfg);
    BuiltWorkload out;
    out.program = std::move(b.program);
    out.spec = spec.to_string();
    out.results_addr = b.checksum_addr;
    out.num_results = 1;
    out.expected_results = {b.expected_checksum};
    return out;
  }
};

}  // namespace

AttackOutcome WorkloadGenerator::run_attack(const WorkloadSpec& spec,
                                            Variant variant,
                                            cpu::ExecMode victim_mode) const {
  (void)variant;
  (void)victim_mode;
  throw SimError("workload '" + spec.name +
                 "' is not a co-residence attack workload");
}

security::TaintSeeds WorkloadGenerator::taint_seeds(
    const WorkloadSpec& spec, const isa::Program& program) const {
  if (secret_width(spec) == 0) return security::TaintSeeds::none();
  return security::resolve_secrets_base(program);
}

// ---------------------------------------------------------------------------
// WorkloadRegistry
// ---------------------------------------------------------------------------

WorkloadRegistry::WorkloadRegistry() {
  for (const auto* rows : {&micro_rows(), &synthetic_rows(), &scenario_rows()})
    for (const HarnessedRow& row : *rows)
      add(std::make_unique<HarnessedGenerator>(row));
  add(std::make_unique<DjpegGenerator>());
  register_attack_workloads(*this);
}

WorkloadRegistry& WorkloadRegistry::instance() {
  static WorkloadRegistry registry;
  return registry;
}

void WorkloadRegistry::add(std::unique_ptr<WorkloadGenerator> gen) {
  SEMPE_CHECK(gen != nullptr);
  const std::string name = gen->name();
  if (find(name) != nullptr)
    throw SimError("workload generator '" + name + "' is already registered");
  gens_.push_back(std::move(gen));
}

const WorkloadGenerator* WorkloadRegistry::find(const std::string& name) const {
  for (const auto& g : gens_)
    if (g->name() == name) return g.get();
  return nullptr;
}

const WorkloadGenerator& WorkloadRegistry::resolve(
    const std::string& name) const {
  const WorkloadGenerator* g = find(name);
  if (g == nullptr) {
    std::ostringstream os;
    os << "unknown workload '" << name << "'; registered workloads:";
    for (const std::string& n : names()) os << ' ' << n;
    throw SimError(os.str());
  }
  return *g;
}

std::vector<std::string> WorkloadRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(gens_.size());
  for (const auto& g : gens_) out.push_back(g->name());
  std::sort(out.begin(), out.end());
  return out;
}

std::string WorkloadRegistry::catalog() const {
  std::ostringstream os;
  for (const std::string& name : names()) {
    const WorkloadGenerator& g = *find(name);
    WorkloadSpec dflt;
    dflt.name = name;
    os << "  " << name << "  [secret width " << g.secret_width(dflt)
       << (g.has_cte_variant() ? "" : "; no CTE variant") << "]\n";
    os << "      " << g.summary() << "\n";
    for (const ParamInfo& p : g.params())
      os << "      " << p.key << "=" << p.fallback << " — " << p.help << "\n";
  }
  return os.str();
}

BuiltWorkload WorkloadRegistry::build(const std::string& spec_text,
                                      Variant variant) const {
  const WorkloadSpec spec = WorkloadSpec::parse(spec_text);
  return resolve(spec.name).build(spec, variant);
}

}  // namespace sempe::workloads
