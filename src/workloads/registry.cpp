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

void WorkloadSpec::check_keys(
    std::initializer_list<const char*> allowed) const {
  for (const auto& [k, v] : params) {
    bool ok = false;
    for (const char* a : allowed) ok = ok || k == a;
    if (!ok) {
      std::string keys;
      for (const char* a : allowed) {
        if (!keys.empty()) keys += ", ";
        keys += a;
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

/// Canonicalize the harness keys shared by every harnessed generator.
/// One definition so micro.* and synthetic.* cannot drift apart.
void apply_harness_defaults(WorkloadSpec& spec) {
  spec.set_default_u64("width", 1);
  spec.set_default_u64("iters", 4);
  spec.set_default("secrets", "1");
  spec.set_default_u64("seed", 42);
}

/// Resolve a numeric key where 0 (or absence) means "use the default",
/// writing the resolved value back so the canonical spec echoes what
/// actually ran — an explicit `size=0` must not leak into the emitters.
usize resolve_defaulted(WorkloadSpec& spec, const char* key, u64 dflt) {
  u64 v = spec.get_u64(key, 0);
  if (v == 0) v = dflt;
  spec.set(key, std::to_string(v));
  return static_cast<usize>(v);
}

BuiltWorkload from_harness(BuiltHarness b, std::string canonical) {
  BuiltWorkload out;
  out.program = std::move(b.program);
  out.spec = std::move(canonical);
  out.results_addr = b.results_addr;
  out.num_results = b.num_results;
  out.expected_results = std::move(b.expected_results);
  return out;
}

/// The harness keys every harnessed generator accepts, for params().
void append_harness_params(std::vector<ParamInfo>& out) {
  out.push_back({"width", "1", "secret-branch nesting depth W"});
  out.push_back({"iters", "4", "harness iterations"});
  out.push_back({"secrets", "1", "0/1 string or 0bNNN mask literal"});
  out.push_back({"seed", "42", "input-image seed"});
}

// ---------------------------------------------------------------------------
// Built-in generators
// ---------------------------------------------------------------------------

/// The harness-facing form of one microbenchmark kernel.
KernelSpec microbench_kernel_spec(Kind kind, usize size, u64 input_seed) {
  KernelSpec s;
  s.name = std::string("micro.") + kind_name(kind);
  s.size = size;
  s.input = make_input(kind, size, input_seed);
  s.buf_words = kernel_buf_words(kind, size);
  s.aux_words = kernel_aux_words(kind, size);
  s.expected = expected_checksum(kind, size, s.input);
  s.emit = [kind](isa::ProgramBuilder& pb, const KernelParams& p) {
    emit_kernel(pb, kind, p);
  };
  s.emit_cte = [kind](isa::ProgramBuilder& pb, const KernelParams& p) {
    emit_kernel_cte(pb, kind, p);
  };
  return s;
}

// The microbenchmark of Figure 7: I iterations of W nested secret-dependent
// conditionals, each guarding one kernel body (workloads/kernels.h), with
// body W+1 executing unconditionally after the nest.
//
//   for (i = 0; i < I; i++) {
//     if (s1) { workload1;
//       if (s2) { workload2;
//         ... if (sW) { workloadW } ... } }
//     workload_{W+1};
//   }
//
// kSecure builds the sJMP-annotated binary, kCte the FaCT-style
// constant-time version. The CTE transform is *optimistic* (a linear guard
// chain rather than the canonical expansion of Fig. 2b), so CTE costs
// measured here are a lower bound — comparisons favor CTE. width=0 builds
// the loop with only body W+1: one path, the unit of the standalone
// sum-of-paths ideal (Fig. 10b).
class MicrobenchGenerator final : public WorkloadGenerator {
 public:
  explicit MicrobenchGenerator(Kind kind) : kind_(kind) {}

  std::string name() const override {
    return std::string("micro.") + kind_name(kind_);
  }
  std::string summary() const override {
    return std::string("Fig. 7 ") + kind_name(kind_) +
           " microbenchmark (size, width, iters, secrets, seed)";
  }
  usize secret_width(const WorkloadSpec& spec) const override {
    return static_cast<usize>(spec.get_u64("width", 1));
  }
  std::vector<ParamInfo> params() const override {
    std::vector<ParamInfo> out = {
        {"size", std::to_string(kernel_default_size(kind_)),
         "problem size (loop count / elements / board size)"}};
    append_harness_params(out);
    return out;
  }
  BuiltWorkload build(const WorkloadSpec& in, Variant variant) const override {
    WorkloadSpec spec = in;
    spec.check_keys({"size", "width", "iters", "secrets", "seed"});
    const usize size =
        resolve_defaulted(spec, "size", kernel_default_size(kind_));
    // Queens' host-mirror backtracking search is exponential in size; an
    // unbounded size would hang the build, not just slow the simulation.
    const usize size_cap = kind_ == Kind::kQueens ? 12 : (1u << 20);
    if (size > size_cap)
      throw SimError("workload '" + name() + "': size=" +
                     std::to_string(size) + " out of range [1, " +
                     std::to_string(size_cap) + "]");
    apply_harness_defaults(spec);

    const u64 seed = spec.get_u64("seed", 42);
    const HarnessConfig h = harness_config_from_spec(spec, variant);
    return from_harness(
        build_harness(microbench_kernel_spec(kind_, size, seed), h),
        spec.to_string());
  }

 private:
  Kind kind_;
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
    spec.check_keys({"format", "pixels", "scale", "seed"});
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

class SyntheticGenerator final : public WorkloadGenerator {
 public:
  explicit SyntheticGenerator(SynthKind kind) : kind_(kind) {}

  std::string name() const override {
    return std::string("synthetic.") + synth_name(kind_);
  }
  std::string summary() const override {
    switch (kind_) {
      case SynthKind::kPtrChase:
        return "pointer-chase memory-latency kernel (size, stride, steps" +
               common();
      case SynthKind::kStream:
        return "streaming bandwidth kernel (size" + common();
      case SynthKind::kCondBranch:
        return "conditional branches, tunable taken ratio (size, taken" +
               common();
      case SynthKind::kIndirect:
        return "indirect-branch target-pool stress (size, targets" + common();
      case SynthKind::kIlpChain:
        return "ILP dependence chains (size, chains, depth" + common();
      case SynthKind::kSecretMix:
        return "mixed secret-region stressor (size" + common();
    }
    synth_name(kind_);  // CHECK-fails on out-of-range values
    std::abort();       // unreachable
  }

  usize secret_width(const WorkloadSpec& spec) const override {
    return static_cast<usize>(spec.get_u64("width", 1));
  }

  std::vector<ParamInfo> params() const override {
    std::vector<ParamInfo> out = {
        {"size", std::to_string(synth_default_size(kind_)),
         "elements / steps per kernel execution"}};
    switch (kind_) {
      case SynthKind::kPtrChase:
        out.push_back({"stride", "64", "element spacing in bytes"});
        out.push_back({"steps", "0", "chase length (0 = 2*size+1)"});
        break;
      case SynthKind::kCondBranch:
        out.push_back({"taken", "500", "P(taken) in per mille"});
        break;
      case SynthKind::kIndirect:
        out.push_back({"targets", "8", "indirect target pool size"});
        break;
      case SynthKind::kIlpChain:
        out.push_back({"chains", "4", "independent dependence chains"});
        out.push_back({"depth", "8", "dependent ops per chain per step"});
        break;
      case SynthKind::kStream:
      case SynthKind::kSecretMix:
        break;
    }
    append_harness_params(out);
    return out;
  }

  BuiltWorkload build(const WorkloadSpec& in, Variant variant) const override {
    WorkloadSpec spec = in;
    SynthConfig cfg;
    cfg.kind = kind_;
    switch (kind_) {
      case SynthKind::kPtrChase:
        spec.check_keys(
            {"size", "stride", "steps", "width", "iters", "secrets", "seed"});
        cfg.size = resolve_defaulted(spec, "size", synth_default_size(kind_));
        spec.set_default_u64("stride", cfg.stride);
        cfg.stride = spec.get_u64("stride", cfg.stride);
        // 2*size+1: off the lap boundary, so the checksum stays
        // chase-order sensitive (see synth_kernel_spec).
        cfg.steps = resolve_defaulted(spec, "steps", 2 * cfg.size + 1);
        break;
      case SynthKind::kCondBranch: {
        spec.check_keys({"size", "taken", "width", "iters", "secrets", "seed"});
        cfg.size = resolve_defaulted(spec, "size", synth_default_size(kind_));
        spec.set_default_u64("taken", cfg.taken_permille);
        // Range-check before the u32 narrowing: 2^32+1000 must not wrap
        // into a value the downstream check would accept.
        const u64 taken = spec.get_u64("taken", cfg.taken_permille);
        if (taken > 1000)
          throw SimError("workload '" + name() + "': taken=" +
                         std::to_string(taken) +
                         " exceeds 1000 per mille");
        cfg.taken_permille = static_cast<u32>(taken);
        break;
      }
      case SynthKind::kIndirect:
        spec.check_keys(
            {"size", "targets", "width", "iters", "secrets", "seed"});
        cfg.size = resolve_defaulted(spec, "size", synth_default_size(kind_));
        spec.set_default_u64("targets", cfg.targets);
        cfg.targets = spec.get_u64("targets", cfg.targets);
        break;
      case SynthKind::kIlpChain:
        spec.check_keys(
            {"size", "chains", "depth", "width", "iters", "secrets", "seed"});
        cfg.size = resolve_defaulted(spec, "size", synth_default_size(kind_));
        spec.set_default_u64("chains", cfg.chains);
        spec.set_default_u64("depth", cfg.depth);
        cfg.chains = spec.get_u64("chains", cfg.chains);
        cfg.depth = spec.get_u64("depth", cfg.depth);
        break;
      case SynthKind::kStream:
      case SynthKind::kSecretMix:
        spec.check_keys({"size", "width", "iters", "secrets", "seed"});
        cfg.size = resolve_defaulted(spec, "size", synth_default_size(kind_));
        break;
    }
    apply_harness_defaults(spec);
    cfg.seed = spec.get_u64("seed", 42);

    const HarnessConfig h = harness_config_from_spec(spec, variant);
    return from_harness(build_harness(synth_kernel_spec(cfg), h),
                        spec.to_string());
  }

 private:
  static std::string common() { return ", width, iters, secrets, seed)"; }

  SynthKind kind_;
};

class ScenarioGenerator final : public WorkloadGenerator {
 public:
  explicit ScenarioGenerator(ScenarioKind kind) : kind_(kind) {}

  std::string name() const override { return scenario_name(kind_); }

  std::string summary() const override {
    switch (kind_) {
      case ScenarioKind::kAesTtable:
        return "S-box/T-table cipher round passes, the cache-channel "
               "victim; CTE scans the whole table (size, rounds" +
               common();
      case ScenarioKind::kModexp:
        return "square-and-multiply modular exponentiation, the "
               "fetch/timing-channel victim (size, bits" +
               common();
      case ScenarioKind::kHashProbe:
        return "open-addressing hash-table probing with data-dependent "
               "chain lengths (size, slots, fill" +
               common();
    }
    scenario_name(kind_);  // CHECK-fails on out-of-range values
    std::abort();          // unreachable
  }

  usize secret_width(const WorkloadSpec& spec) const override {
    return static_cast<usize>(spec.get_u64("width", 1));
  }

  std::vector<ParamInfo> params() const override {
    std::vector<ParamInfo> out = {
        {"size", std::to_string(scenario_default_size(kind_)),
         kind_ == ScenarioKind::kAesTtable
             ? "state words per round pass"
             : (kind_ == ScenarioKind::kModexp ? "bases exponentiated"
                                               : "probe lookups")}};
    switch (kind_) {
      case ScenarioKind::kAesTtable:
        out.push_back({"rounds", "2", "T-table round passes"});
        break;
      case ScenarioKind::kModexp:
        out.push_back({"bits", "16", "exponent bits per base"});
        break;
      case ScenarioKind::kHashProbe:
        out.push_back({"slots", "64", "table slots (power of two)"});
        out.push_back({"fill", "750", "occupancy in per mille"});
        break;
    }
    append_harness_params(out);
    return out;
  }

  BuiltWorkload build(const WorkloadSpec& in, Variant variant) const override {
    WorkloadSpec spec = in;
    ScenarioConfig cfg;
    cfg.kind = kind_;
    switch (kind_) {
      case ScenarioKind::kAesTtable:
        spec.check_keys(
            {"size", "rounds", "width", "iters", "secrets", "seed"});
        cfg.size = resolve_defaulted(spec, "size", scenario_default_size(kind_));
        spec.set_default_u64("rounds", cfg.rounds);
        cfg.rounds = spec.get_u64("rounds", cfg.rounds);
        break;
      case ScenarioKind::kModexp:
        spec.check_keys({"size", "bits", "width", "iters", "secrets", "seed"});
        cfg.size = resolve_defaulted(spec, "size", scenario_default_size(kind_));
        spec.set_default_u64("bits", cfg.bits);
        cfg.bits = spec.get_u64("bits", cfg.bits);
        break;
      case ScenarioKind::kHashProbe:
        spec.check_keys(
            {"size", "slots", "fill", "width", "iters", "secrets", "seed"});
        cfg.size = resolve_defaulted(spec, "size", scenario_default_size(kind_));
        spec.set_default_u64("slots", cfg.slots);
        spec.set_default_u64("fill", cfg.fill);
        cfg.slots = spec.get_u64("slots", cfg.slots);
        cfg.fill = spec.get_u64("fill", cfg.fill);
        break;
    }
    apply_harness_defaults(spec);
    cfg.seed = spec.get_u64("seed", 42);

    const HarnessConfig h = harness_config_from_spec(spec, variant);
    return from_harness(build_harness(scenario_kernel_spec(cfg), h),
                        spec.to_string());
  }

 private:
  static std::string common() { return ", width, iters, secrets, seed)"; }

  ScenarioKind kind_;
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
  for (const Kind kd : {Kind::kFibonacci, Kind::kOnes, Kind::kQuicksort,
                        Kind::kQueens})
    add(std::make_unique<MicrobenchGenerator>(kd));
  add(std::make_unique<DjpegGenerator>());
  for (const SynthKind kd : all_synth_kinds())
    add(std::make_unique<SyntheticGenerator>(kd));
  for (const ScenarioKind kd : all_scenario_kinds())
    add(std::make_unique<ScenarioGenerator>(kd));
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
