#include "sim/batch_runner.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <unordered_map>

#include "sim/job_key.h"
#include "sim/sweep_codec.h"
#include "util/fingerprint.h"

namespace sempe::sim {

namespace {

void append_f(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append_f(std::string& out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int needed = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  if (needed > 0) {
    const usize old = out.size();
    out.resize(old + static_cast<usize>(needed) + 1);
    std::vsnprintf(out.data() + old, static_cast<usize>(needed) + 1, fmt, ap2);
    out.resize(old + static_cast<usize>(needed));  // drop the NUL
  }
  va_end(ap2);
}

// Labels are generated from enum names and numbers, but escape defensively
// so hand-built job labels cannot produce invalid JSON.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          append_f(out, "\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

// Every line ends in a comma; sweep_json drops the last one.
class JsonFields {
 public:
  explicit JsonFields(std::string& out) : out_(out) {}
  void u(const std::string& key, u64 v) {
    append_f(out_, "      \"%s\": %" PRIu64 ",\n", key.c_str(), v);
  }
  void f(const std::string& key, double v) {
    append_f(out_, "      \"%s\": %.6f,\n", key.c_str(), v);
  }
  void s(const std::string& key, const std::string& v) {
    append_f(out_, "      \"%s\": \"%s\",\n", key.c_str(),
             json_escape(v).c_str());
  }

 private:
  std::string& out_;
};

namespace {

// The metadata header. `threads` is deliberately the constant 0: results
// are thread-count invariant by construction, and recording the actual
// worker count would break the byte-identical-across---threads guarantee.
std::string json_header(const std::string& experiment,
                        const std::string& workload, const char* modes) {
  std::string out = "{\n";
  out += "  \"meta\": {\n";
  append_f(out, "    \"schema_version\": %d,\n", kResultSchemaVersion);
  append_f(out, "    \"experiment\": \"%s\",\n",
           json_escape(experiment).c_str());
  append_f(out, "    \"workload\": \"%s\",\n", json_escape(workload).c_str());
  append_f(out, "    \"modes\": \"%s\",\n", modes);
  out += "    \"threads\": 0\n";
  out += "  },\n";
  out += "  \"points\": [\n";
  return out;
}

// Header workload field: the distinct generator names, in job order.
template <typename Job>
std::string workload_field(const std::vector<Job>& jobs) {
  std::vector<std::string> seen;
  std::string generators;
  for (const Job& j : jobs) {
    const std::string name = j.spec.substr(0, j.spec.find('?'));
    if (std::find(seen.begin(), seen.end(), name) != seen.end()) continue;
    seen.push_back(name);
    if (!generators.empty()) generators += ',';
    generators += name;
  }
  return generators;
}

}  // namespace

usize resolve_threads(usize requested, usize jobs) {
  usize n = requested;
  if (n == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n = hw == 0 ? 1 : hw;
  }
  if (jobs > 0 && n > jobs) n = jobs;
  return n == 0 ? 1 : n;
}

template <typename F>
SweepRun<typename F::Point> run_sweep(const std::vector<typename F::Job>& jobs,
                                      const SweepOptions& opt) {
  using Point = typename F::Point;
  SweepRun<Point> run;
  const usize n = jobs.size();
  // Touch the registry before fanning out: its lazy construction is the
  // only shared mutable state a job could race on.
  workloads::WorkloadRegistry::instance();

  const std::string fingerprint =
      opt.fingerprint.empty() ? code_fingerprint() : opt.fingerprint;
  std::unique_ptr<SweepCache> cache;
  if (!opt.cache_dir.empty())
    cache = std::make_unique<SweepCache>(opt.cache_dir, fingerprint);
  std::unique_ptr<SweepJournal> journal;
  if (!opt.journal_path.empty())
    journal = std::make_unique<SweepJournal>(opt.journal_path);

  // Distinct keys in first-occurrence order; slot[k] is job k's.
  std::vector<std::string> keys;
  std::vector<usize> first;  // a job position per distinct key
  std::vector<usize> slot(n);
  std::unordered_map<std::string, usize> index;
  for (usize k = 0; k < n; ++k) {
    std::string key = job_identity<F>(jobs[k], fingerprint).key();
    const auto [it, fresh] = index.emplace(key, keys.size());
    if (fresh) {
      keys.push_back(std::move(key));
      first.push_back(k);
    }
    slot[k] = it->second;
  }

  // Planning pass: resolve each distinct key from the journal first (the
  // resume path), then the cache. Every unresolved key is counted exactly
  // once as miss, stale, or corrupt.
  std::vector<Point> points(keys.size());
  std::vector<usize> pending;  // distinct-key indices left to execute
  for (usize d = 0; d < keys.size(); ++d) {
    bool counted = false;
    if (journal != nullptr) {
      if (const std::string* blob = journal->find(keys[d])) {
        try {
          points[d] = decode_point<F>(*blob);
          ++run.cache.journal_hits;
          continue;
        } catch (const SimError&) {
          ++run.cache.corrupt;
          counted = true;
        }
      }
    }
    if (cache != nullptr) {
      const SweepCache::Lookup hit = cache->lookup(keys[d]);
      if (hit.status == SweepCache::Status::kHit) {
        try {
          points[d] = decode_point<F>(hit.blob);
          ++run.cache.hits;
          // The journal holds no decodable record of this key (that would
          // have resolved it above), so mirror the hit: a later kill +
          // resume replays it even if the cache has been pruned meanwhile,
          // and a corrupt record is superseded.
          if (journal != nullptr) journal->append(keys[d], hit.blob);
          continue;
        } catch (const SimError&) {
          if (!counted) ++run.cache.corrupt;
          counted = true;
        }
      } else if (hit.status == SweepCache::Status::kStale) {
        if (!counted) ++run.cache.stale;
        counted = true;
      }
    }
    if (!counted) ++run.cache.misses;
    pending.push_back(d);
  }
  if (cache != nullptr) run.cache.stores = pending.size();

  auto executed = run_indexed_labeled(
      pending.size(), opt.threads,
      [&](usize j) {
        const usize d = pending[j];
        Point p = F::measure(jobs[first[d]]);
        if (cache != nullptr || journal != nullptr) {
          const std::string blob = encode_point<F>(p);
          if (cache != nullptr) cache->store(keys[d], blob);
          if (journal != nullptr) journal->append(keys[d], blob);
        }
        return p;
      },
      [&](usize j) { return jobs[first[pending[j]]].label; });
  for (usize j = 0; j < pending.size(); ++j)
    points[pending[j]] = std::move(executed[j]);
  run.points.reserve(n);
  for (usize k = 0; k < n; ++k) run.points.push_back(points[slot[k]]);

  if (cache == nullptr && journal == nullptr) return run;
  std::fprintf(stderr,
               "sweep: %zu job(s), %zu distinct: %" PRIu64
               " cache hit(s), %" PRIu64 " journal hit(s), %" PRIu64
               " stale, %" PRIu64 " corrupt, %zu executed\n",
               n, keys.size(), run.cache.hits, run.cache.journal_hits,
               run.cache.stale, run.cache.corrupt, pending.size());
  obs::Session* const os = obs::session();
  if (os != nullptr && os->metrics_enabled()) {
    auto& m = os->metrics().local();
    m.add("sweep.cache_hits", run.cache.hits);
    m.add("sweep.cache_misses", run.cache.misses);
    m.add("sweep.cache_stale", run.cache.stale);
    m.add("sweep.cache_corrupt", run.cache.corrupt);
    m.add("sweep.cache_stores", run.cache.stores);
    m.add("sweep.journal_hits", run.cache.journal_hits);
    if (journal != nullptr)
      m.add("sweep.journal_replayed", journal->replayed());
  }
  return run;
}

template <typename F>
std::string sweep_json(const std::string& experiment,
                       const std::vector<typename F::Job>& jobs,
                       const SweepRun<typename F::Point>& run) {
  SEMPE_CHECK(run.points.size() == jobs.size());
  std::string out = json_header(experiment, workload_field(jobs), F::kModes);
  for (usize k = 0; k < jobs.size(); ++k) {
    const typename F::Job& job = jobs[k];
    out += "    {\n";
    JsonFields fields(out);
    fields.s("label", job.label);
    F::json(fields, job, run.points[k]);
    out.erase(out.size() - 2, 1);  // the last field takes no comma
    out += k + 1 == run.points.size() ? "    }\n" : "    },\n";
  }
  out += "  ]\n}\n";
  return out;
}

#define SEMPE_INSTANTIATE_FAMILY(F)                                         \
  template SweepRun<F::Point> run_sweep<F>(const std::vector<F::Job>&,     \
                                           const SweepOptions&);           \
  template std::string sweep_json<F>(const std::string&,                   \
                                     const std::vector<F::Job>&,           \
                                     const SweepRun<F::Point>&);
SEMPE_SWEEP_FAMILIES(SEMPE_INSTANTIATE_FAMILY)
#undef SEMPE_INSTANTIATE_FAMILY

std::vector<std::string> registry_audit_specs(usize iters) {
  std::vector<std::string> specs;
  for (const std::string& name :
       workloads::WorkloadRegistry::instance().names()) {
    if (name.rfind("attack.", 0) == 0) continue;
    specs.push_back(name == "djpeg"
                        ? "djpeg?pixels=4096&scale=16"
                        : name + "?width=3&iters=" + std::to_string(iters));
  }
  return specs;
}

// ---------------------------------------------------------------------------
// The JSON projections of the family rows.

void WorkloadFamily::json(JsonFields& out, const Job& j, const Point& p) {
  out.s("spec", p.spec);
  if (j.legacy_only) {
    // A baseline-only point (a Fig. 10b ideal) names the one mode it ran
    // and carries only that mode's fields.
    out.s("modes", "legacy");
    out.u("results_ok", p.results_ok);
    const ModeResultCheck* c = p.check("legacy");
    out.u("legacy_ok", c != nullptr && c->ok);
    out.s("result_mismatch", p.mismatch_summary());
    out.u("baseline_cycles", p.baseline_cycles);
    out.u("baseline_instructions", p.baseline_instructions);
    out.f("il1_miss_baseline", p.baseline_stats.il1_miss_rate());
    out.f("dl1_miss_baseline", p.baseline_stats.dl1_miss_rate());
    out.f("l2_miss_baseline", p.baseline_stats.l2_miss_rate());
    return;
  }
  out.u("has_cte", p.has_cte);
  out.u("results_ok", p.results_ok);
  // Per-mode verdicts (modes that did not run count as ok).
  for (const char* mode : {"legacy", "sempe", "cte"}) {
    const ModeResultCheck* c = p.check(mode);
    out.u(std::string(mode) + "_ok", c == nullptr || c->ok);
  }
  out.s("result_mismatch", p.mismatch_summary());
  out.u("baseline_cycles", p.baseline_cycles);
  out.u("sempe_cycles", p.sempe_cycles);
  out.u("cte_cycles", p.cte_cycles);
  out.u("baseline_instructions", p.baseline_instructions);
  out.u("sempe_instructions", p.sempe_instructions);
  out.u("cte_instructions", p.cte_instructions);
  out.f("sempe_slowdown", p.sempe_slowdown());
  out.f("cte_slowdown", p.cte_slowdown());
  // Fig. 9's cache miss rates.
  out.f("il1_miss_baseline", p.baseline_stats.il1_miss_rate());
  out.f("il1_miss_sempe", p.sempe_stats.il1_miss_rate());
  out.f("dl1_miss_baseline", p.baseline_stats.dl1_miss_rate());
  out.f("dl1_miss_sempe", p.sempe_stats.dl1_miss_rate());
  out.f("l2_miss_baseline", p.baseline_stats.l2_miss_rate());
  out.f("l2_miss_sempe", p.sempe_stats.l2_miss_rate());
}

void LeakageFamily::json(JsonFields& out, const Job&, const Point& p) {
  const security::WorkloadAudit& a = p.audit;
  out.s("spec", a.spec);
  out.u("secret_width", a.secret_width);
  out.u("samples", a.masks.size());
  out.u("results_ok", p.results_ok());
  out.u("has_cte", a.mode("cte") != nullptr);
  // Absent modes (e.g. cte for djpeg) serialize as closed/zero so every
  // point carries the same keys (byte-stable schema).
  for (const char* mode : {"legacy", "sempe", "cte"}) {
    const security::ModeAudit* m = a.mode(mode);
    const std::string k = mode;
    out.u(k + "_distinguishable", m != nullptr && !m->indistinguishable());
    out.f(k + "_leaked_bits", m != nullptr ? m->leaked_bits() : 0.0);
    out.s(k + "_channels", m != nullptr ? m->open_channels() : "");
    out.s(k + "_stat_verdict",
          security::stat_verdict_name(m != nullptr
                                          ? m->stat_verdict()
                                          : security::StatVerdict::kNotRun));
    out.f(k + "_stat_t", m != nullptr ? m->stat_max_t() : 0.0);
    out.f(k + "_stat_mi_bits", m != nullptr ? m->stat_max_mi_bits() : 0.0);
    out.s(k + "_stat_channels", m != nullptr ? m->stat_leak_channels() : "");
    out.u(k + "_stat_samples", m != nullptr ? m->stat_samples() : 0);
  }
  out.u("stat_pairs", a.stat_pairs);
  // Attack-audit points (workloads/attack.h) additionally carry the
  // end-to-end key-recovery metric per mode. Non-attack points keep the
  // pre-v3 key set, so their pinned golden bytes only move with the
  // schema line.
  bool attack_point = false;
  for (const security::ModeAudit& m : a.modes)
    attack_point = attack_point || m.attack;
  if (attack_point) {
    for (const char* mode : {"legacy", "sempe", "cte"}) {
      const security::ModeAudit* m = a.mode(mode);
      const std::string k = mode;
      out.u(k + "_key_bits_total", m != nullptr ? m->key_bits_total : 0);
      out.u(k + "_key_bits_recovered",
            m != nullptr ? m->key_bits_recovered : 0);
      out.f(k + "_recovery_rate", m != nullptr ? m->recovery_rate() : 0.0);
    }
  }
  for (const char* mode : {"legacy", "sempe"}) {
    const security::ModeAudit* m = a.mode(mode);
    out.s(std::string(mode) + "_divergence",
          m != nullptr ? m->first_divergence() : "");
  }
}

void TenantFamily::json(JsonFields& out, const Job& j, const Point& p) {
  const security::WorkloadAudit& a = p.audit;
  out.s("spec", a.spec);
  out.u("tenants", j.tenants);
  out.u("secret_width", a.secret_width);
  out.u("samples", a.masks.size());
  out.u("results_ok", p.results_ok());
  for (const char* mode : {"legacy", "sempe", "cte"}) {
    const security::ModeAudit* m = a.mode(mode);
    const std::string k = mode;
    out.u(k + "_distinguishable", m != nullptr && !m->indistinguishable());
    out.s(k + "_channels", m != nullptr ? m->open_channels() : "");
    out.s(k + "_stat_verdict",
          security::stat_verdict_name(m != nullptr
                                          ? m->stat_verdict()
                                          : security::StatVerdict::kNotRun));
    out.u(k + "_key_bits_total", m != nullptr ? m->key_bits_total : 0);
    out.u(k + "_key_bits_recovered", m != nullptr ? m->key_bits_recovered : 0);
    out.f(k + "_recovery_rate", m != nullptr ? m->recovery_rate() : 0.0);
  }
  // The greppable acceptance-gate flags: the legacy baseline recovers
  // >= 90% of the key while the protected modes give the attacker no
  // evidence (exact tier clean, or stat tier no-evidence).
  out.u("legacy_recovery_above_chance", p.legacy_recovers());
  out.u("sempe_at_chance", p.at_chance("sempe"));
  out.u("cte_at_chance", p.at_chance("cte"));
}

void LintFamily::json(JsonFields& out, const Job&, const Point& p) {
  // Findings serialize compactly as "0x<pc>:<kind>" CSV — the PCs are the
  // pinned part; details stay in the human report.
  const auto findings_csv = [](const security::LintResult& r) {
    std::string csv;
    for (const security::TaintFinding& f : r.findings) {
      if (!csv.empty()) csv += ',';
      append_f(csv, "0x%" PRIx64 ":%s", f.pc, taint_kind_name(f.kind));
    }
    return csv;
  };
  const security::WorkloadLint& l = p.lint;
  out.s("spec", l.spec);
  out.u("secret_width", l.secret_width);
  out.u("has_cte", l.has_cte);
  out.u("ok", p.ok());
  out.s("failures", p.failure_summary());
  out.s("warnings", p.warning_summary());
  out.u("legacy_findings", l.natural_legacy.findings.size());
  out.u("sempe_findings", l.natural_sempe.findings.size());
  out.u("cte_findings", l.cte.findings.size());
  out.u("sempe_excused_sjmps", l.natural_sempe.excused_sjmps);
  out.u("legacy_passes", l.natural_legacy.passes);
  out.s("legacy_finding_pcs", findings_csv(l.natural_legacy));
  out.s("sempe_finding_pcs", findings_csv(l.natural_sempe));
  out.s("cte_finding_pcs", findings_csv(l.cte));
  // The dynamic half of the cross-check, for auditability of the verdict.
  for (const char* mode : {"legacy", "sempe", "cte"}) {
    const security::ModeAudit* m = p.audit.mode(mode);
    out.u(std::string(mode) + "_distinguishable",
          m != nullptr && !m->indistinguishable());
  }
  out.u("audit_samples", p.audit.masks.size());
}

BatchCli parse_batch_cli(int& argc, char** argv) {
  BatchCli cli;
  // The flags that take a non-empty string value.
  const std::pair<const char*, std::string*> string_flags[] = {
      {"--trace-out=", &cli.trace_path},
      {"--metrics-out=", &cli.metrics_path},
      {"--cache-dir=", &cli.sweep.cache_dir},
      {"--journal=", &cli.sweep.journal_path},
      {"--jobs=", &cli.jobs_regex},
  };
  const auto reject = [&cli](const char* a) {
    cli.ok = false;
    cli.error = a;
  };
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const auto string_flag = std::find_if(
        std::begin(string_flags), std::end(string_flags), [a](const auto& f) {
          return !std::strncmp(a, f.first, std::strlen(f.first));
        });
    if (string_flag != std::end(string_flags)) {
      *string_flag->second = a + std::strlen(string_flag->first);
      if (string_flag->second->empty()) reject(a);
    } else if (!std::strncmp(a, "--threads=", 10)) {
      char* end = nullptr;
      const long long n = std::strtoll(a + 10, &end, 10);
      if (n < 0 || end == a + 10 || *end != '\0')
        reject(a);
      else
        cli.sweep.threads = static_cast<usize>(n);
    } else if (!std::strcmp(a, "--json")) {
      cli.want_json = true;
    } else if (!std::strncmp(a, "--json=", 7)) {
      cli.want_json = true;
      cli.json_path = a + 7;
    } else if (!std::strcmp(a, "--progress")) {
      cli.progress = true;
    } else if (!std::strncmp(a, "--shard=", 8)) {
      char* end = nullptr;
      const unsigned long long idx = std::strtoull(a + 8, &end, 10);
      bool good = end != a + 8 && *end == '/';
      unsigned long long count = 0;
      if (good) {
        const char* p = end + 1;
        count = std::strtoull(p, &end, 10);
        good = end != p && *end == '\0' && count >= 1 && idx < count;
      }
      if (!good) {
        reject(a);
      } else {
        cli.shard_index = static_cast<usize>(idx);
        cli.shard_count = static_cast<usize>(count);
      }
    } else if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
      cli.help = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  if (!cli.jobs_regex.empty()) {
    try {
      const std::regex probe(cli.jobs_regex);
    } catch (const std::regex_error&) {
      cli.ok = false;
      cli.error = "--jobs=" + cli.jobs_regex;
    }
  }
  // Anything not recognized stays in argv; the caller decides whether
  // leftovers are an error.
  for (int i = kept; i < argc; ++i) argv[i] = nullptr;
  argc = kept;
  return cli;
}

std::FILE* report_stream(const BatchCli& cli) {
  return cli.want_json && cli.json_path.empty() ? stderr : stdout;
}

namespace {

/// Write `text` to `path`, diagnosing failures on stderr.
bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    return false;
  }
  const usize written = std::fwrite(text.data(), 1, text.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != text.size()) {
    std::fprintf(stderr, "short write to '%s'\n", path.c_str());
    return false;
  }
  if (!closed) {
    std::fprintf(stderr, "cannot flush '%s'\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

bool emit_json(const BatchCli& cli, const std::string& json) {
  if (cli.json_path.empty()) {
    const usize written = std::fwrite(json.data(), 1, json.size(), stdout);
    if (written != json.size() || std::fflush(stdout) != 0) {
      std::fprintf(stderr, "short write to stdout\n");
      return false;
    }
    return true;
  }
  return write_text_file(cli.json_path, json);
}

std::unique_ptr<obs::Session> make_obs_session(const BatchCli& cli) {
  obs::Session::Options opt;
  opt.metrics = !cli.metrics_path.empty();
  opt.trace = !cli.trace_path.empty();
  opt.progress = cli.progress;
  if (!opt.metrics && !opt.trace && !opt.progress) return nullptr;
  auto session = std::make_unique<obs::Session>(opt);
  obs::set_session(session.get());
  return session;
}

bool finish_obs_session(const BatchCli& cli, const std::string& experiment,
                        std::unique_ptr<obs::Session> session) {
  obs::set_session(nullptr);
  if (session == nullptr) return true;
  return write_obs_outputs(*session, experiment, cli.trace_path,
                           cli.metrics_path);
}

bool write_obs_outputs(obs::Session& session, const std::string& experiment,
                       const std::string& trace_path,
                       const std::string& metrics_path) {
  bool ok = true;
  if (!trace_path.empty() && session.trace() != nullptr) {
    ok = write_text_file(trace_path, session.trace()->to_json()) && ok;
    if (session.trace()->dropped() > 0)
      std::fprintf(stderr, "trace: %" PRIu64 " event(s) dropped (ring full)\n",
                   session.trace()->dropped());
  }
  if (!metrics_path.empty())
    ok = write_text_file(metrics_path,
                         obs::render_report(experiment, session)) &&
         ok;
  return ok;
}

void print_batch_usage(const char* argv0, const char* what) {
  std::fprintf(stderr,
               "%s — %s\n"
               "usage: %s [EXPERIMENT...] [--threads=N] [--json[=FILE]]\n"
               "          [--trace-out=FILE] [--metrics-out=FILE] "
               "[--progress]\n"
               "          [--jobs=REGEX] [--shard=i/N] [--cache-dir=DIR] "
               "[--journal=FILE]\n"
               "  --threads=N      worker threads for the experiment sweep\n"
               "                   (default: all hardware threads)\n"
               "  --json[=F]       emit deterministic machine-readable\n"
               "                   results to FILE (default: stdout)\n"
               "  --trace-out=F    write a Chrome trace-event timeline of\n"
               "                   the sweep (chrome://tracing, Perfetto)\n"
               "  --metrics-out=F  write the structured metric report\n"
               "                   (counters, gauges, histograms, timers)\n"
               "  --progress       stderr progress meter (done/total, ETA,\n"
               "                   worker utilization)\n"
               "  --jobs=REGEX     run only jobs whose label matches REGEX\n"
               "  --shard=i/N      run only shard i of a round-robin N-way\n"
               "                   split of the jobs (reassemble by\n"
               "                   rerunning in full over the merged\n"
               "                   --cache-dir of every shard)\n"
               "  --cache-dir=D    reuse results cached under D; store\n"
               "                   fresh ones (content-addressed, safe\n"
               "                   across concurrent sweeps)\n"
               "  --journal=F      append each result to F as it retires;\n"
               "                   rerunning with the same F resumes a\n"
               "                   killed sweep\n"
               "env: SEMPE_BENCH_ITERS, SEMPE_DJPEG_SCALE, "
               "SEMPE_AUDIT_SAMPLES scale the workloads;\n"
               "     SEMPE_STAT_SAMPLES, SEMPE_STAT_BUDGET turn on the "
               "statistical audit tier\n",
               argv0, what, argv0);
}

}  // namespace sempe::sim
