// Golden-file regression tests for the batch-runner JSON emitters: the
// meta header (schema_version, experiment, workload, modes, threads) is
// pinned byte-for-byte and every point's field set and field order are
// pinned with the (machine-dependent, churn-prone) values blanked out.
// Schema drift — a renamed field, a dropped key, a reordered header —
// fails one of these tests instead of silently breaking downstream
// parsers of the synthetic/leakage/scenarios experiments' --json.
//
// The Orchestration* cases pin values too: per job family, the full
// --json document, every point's encoded cache blob, and every job's key
// text — so a refactor of the sweep layer must reproduce every byte a
// document, cache or journal depends on.
//
// The golden files live in tests/golden/. After an INTENDED schema
// change, regenerate them with:  SEMPE_UPDATE_GOLDEN=1 ./golden_json_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/batch_runner.h"
#include "sim/job_key.h"
#include "sim/sweep_codec.h"
#include "workloads/registry.h"
#include "workloads/scenarios.h"

namespace sempe::sim {
namespace {

/// Sweep options with only the worker count set.
SweepOptions on_threads(usize n) {
  SweepOptions opt;
  opt.threads = n;
  return opt;
}

/// Blank every value inside the points array (`"key": value` -> `"key": _`)
/// while leaving the meta header verbatim.
std::string normalize_points(const std::string& json) {
  std::istringstream in(json);
  std::ostringstream out;
  std::string line;
  bool in_points = false;
  while (std::getline(in, line)) {
    if (!in_points) {
      out << line << "\n";
      if (line == "  \"points\": [") in_points = true;
      continue;
    }
    const auto q1 = line.find('"');
    const auto q2 = q1 == std::string::npos
                        ? std::string::npos
                        : line.find("\": ", q1 + 1);
    if (q2 != std::string::npos) {
      const bool comma = !line.empty() && line.back() == ',';
      out << line.substr(0, q2 + 3) << "_" << (comma ? "," : "") << "\n";
    } else {
      out << line << "\n";  // braces / brackets
    }
  }
  return out.str();
}

/// Normalizer for the --metrics-out report: the meta header stays
/// verbatim; every other `"key": value` line keeps the key (the metric
/// namespace IS the schema) and blanks the value. Lines opening nested
/// objects (sections, histograms) pass through, pinning the structure.
std::string normalize_report(const std::string& json) {
  std::istringstream in(json);
  std::ostringstream out;
  std::string line;
  bool in_meta = false;
  while (std::getline(in, line)) {
    if (line == "  \"meta\": {") in_meta = true;
    else if (in_meta && line == "  },") in_meta = false;
    const auto q1 = line.find('"');
    const auto q2 = q1 == std::string::npos
                        ? std::string::npos
                        : line.find("\": ", q1 + 1);
    const bool opens_object = !line.empty() && line.back() == '{';
    if (!in_meta && q2 != std::string::npos && !opens_object) {
      const bool comma = !line.empty() && line.back() == ',';
      out << line.substr(0, q2 + 3) << "_" << (comma ? "," : "") << "\n";
    } else {
      out << line << "\n";
    }
  }
  return out.str();
}

void check_golden(const char* fname, const std::string& normalized) {
  const std::string path = std::string(SEMPE_GOLDEN_DIR) + "/" + fname;
  if (std::getenv("SEMPE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream f(path);
    ASSERT_TRUE(f.good()) << "cannot write " << path;
    f << normalized;
    GTEST_SKIP() << "golden file rewritten: " << path;
  }
  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << "missing golden file " << path
                        << " (regenerate with SEMPE_UPDATE_GOLDEN=1)";
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_EQ(buf.str(), normalized)
      << "JSON schema drift against " << fname
      << ". If the change is intended, regenerate the golden files with "
         "SEMPE_UPDATE_GOLDEN=1 and update downstream parsers.";
}

TEST(GoldenJson, BenchSyntheticSchemaIsPinned) {
  const std::vector<std::string> specs = {
      "synthetic.cond_branch?size=32&width=1&iters=1",
      "synthetic.stream?size=32&width=1&iters=1",
  };
  const auto jobs = workload_grid(specs, MachineOptions{});
  const std::string json = sweep_json<WorkloadFamily>(
      "synthetic", jobs, run_sweep<WorkloadFamily>(jobs, on_threads(1)));
  EXPECT_NE(json.find("\"schema_version\": 4"), std::string::npos);
  check_golden("bench_synthetic.json.golden", normalize_points(json));
}

TEST(GoldenJson, BenchLeakageSchemaIsPinned) {
  security::AuditOptions opt;
  opt.samples = 2;
  const std::vector<std::string> specs = {
      "synthetic.cond_branch?size=32&width=1&iters=1",
      "synthetic.stream?size=32&width=1&iters=1",
  };
  const auto jobs = spec_grid<AuditFamily>(specs, opt);
  const std::string json = sweep_json<AuditFamily>(
      "leakage", jobs, run_sweep<AuditFamily>(jobs, on_threads(1)));
  EXPECT_NE(json.find("\"schema_version\": 4"), std::string::npos);
  check_golden("bench_leakage.json.golden", normalize_points(json));
}

TEST(GoldenJson, BenchLintSchemaIsPinned) {
  security::AuditOptions opt;
  opt.samples = 2;
  const std::vector<std::string> specs = {
      "synthetic.cond_branch?size=32&width=1&iters=1",
      "synthetic.stream?size=32&width=1&iters=1",
  };
  const auto jobs = spec_grid<AuditFamily>(specs, opt);
  const auto run = run_sweep<AuditFamily>(jobs, on_threads(1));
  const std::string json =
      sweep_json<AuditFamily>("lint", jobs, run, &AuditFamily::lint_json);
  EXPECT_NE(json.find("\"schema_version\": 4"), std::string::npos);
  for (const auto& pt : run.points)
    EXPECT_TRUE(pt.ok()) << pt.lint.spec << ": " << pt.failure_summary();
  check_golden("bench_lint.json.golden", normalize_points(json));
}

TEST(GoldenJson, BenchTenantsSchemaIsPinned) {
  security::AuditOptions opt;
  opt.samples = 2;
  const std::vector<std::string> specs = {
      "attack.prime_probe?victim=crypto.modexp&width=2&size=8&bits=8&iters=2",
  };
  const auto jobs = spec_grid<AuditFamily>(specs, opt);
  const std::string json =
      sweep_json<AuditFamily>("tenants", jobs,
                              run_sweep<AuditFamily>(jobs, on_threads(1)),
                              &AuditFamily::tenant_json);
  EXPECT_NE(json.find("\"schema_version\": 4"), std::string::npos);
  // The acceptance-gate flags CI greps for are part of the pinned schema.
  EXPECT_NE(json.find("\"legacy_recovery_above_chance\": 1"),
            std::string::npos);
  EXPECT_NE(json.find("\"sempe_at_chance\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"cte_at_chance\": 1"), std::string::npos);
  check_golden("bench_tenants.json.golden", normalize_points(json));
}

TEST(GoldenJson, BenchScenariosByteIdenticalAcrossThreadsAndPinned) {
  // The exact sweep sempe_bench scenarios fans out (workloads/registry.h), so
  // the golden file covers the real sweep and the --threads byte-identity
  // guarantee is asserted here, not just in CI.
  const auto jobs = workload_grid(
      workloads::row_sweep_specs(workloads::scenario_rows(), 1),
      MachineOptions{});
  const auto run1 = run_sweep<WorkloadFamily>(jobs, on_threads(1));
  const std::string j1 = sweep_json<WorkloadFamily>("scenarios", jobs, run1);
  const std::string j4 = sweep_json<WorkloadFamily>(
      "scenarios", jobs, run_sweep<WorkloadFamily>(jobs, on_threads(4)));
  EXPECT_EQ(j1, j4);  // byte-identical across --threads values
  EXPECT_NE(j1.find("\"experiment\": \"scenarios\""), std::string::npos);
  EXPECT_NE(
      j1.find("\"workload\": \"crypto.aes,crypto.modexp,ds.hash_probe\""),
      std::string::npos);
  for (const auto& pt : run1.points) EXPECT_TRUE(pt.results_ok) << pt.spec;
  check_golden("bench_scenarios.json.golden", normalize_points(j1));
}

TEST(GoldenJson, MetricsReportSchemaIsPinned) {
  // The --metrics-out document (src/obs/report.h): metric names and
  // section structure are the schema; values — and the whole host-timing
  // section, which strip_report_timing removes — are not.
  const std::vector<std::string> specs = {
      "synthetic.cond_branch?size=32&width=1&iters=1",
      "synthetic.stream?size=32&width=1&iters=1",
  };
  const auto jobs = workload_grid(specs, MachineOptions{});
  obs::Session::Options opt;
  opt.metrics = true;
  obs::Session session(opt);
  {
    const obs::ScopedSession scope(&session);
    run_sweep<WorkloadFamily>(jobs, on_threads(2));
  }
  const std::string report = obs::render_report("golden", session);
  EXPECT_NE(report.find("\"schema_version\": 1"), std::string::npos);
  const std::string stripped = obs::strip_report_timing(report);
  EXPECT_EQ(stripped.find("\"timing\""), std::string::npos);
  check_golden("metrics_report.json.golden", normalize_report(stripped));
}

// ---------------------------------------------------------------------------
// Value-pinned orchestration records, one per job family.

constexpr const char* kGoldenFingerprint = "golden-fingerprint";

/// The golden record of one family's small sweep: the full document under
/// each of `projections`, each point's blob and each job's key text.
template <typename F>
std::string orchestration_record(
    const std::vector<typename F::Job>& jobs,
    const std::vector<JsonProjection<F>>& projections = {&F::json}) {
  const auto run = run_sweep<F>(jobs, on_threads(2));
  std::string out;
  for (const JsonProjection<F> project : projections)
    out += "== json\n" + sweep_json<F>("orch", jobs, run, project);
  for (usize i = 0; i < run.points.size(); ++i)
    out += "== blob " + std::to_string(i) + "\n" +
           encode_point<F>(run.points[i]);
  for (usize i = 0; i < jobs.size(); ++i)
    out += "== key " + std::to_string(i) + "\n" +
           job_identity<F>(jobs[i], kGoldenFingerprint).canonical_text();
  return out;
}

std::vector<std::string> two_synthetic_specs() {
  return {"synthetic.cond_branch?size=32&width=1&iters=1",
          "synthetic.stream?size=32&width=1&iters=1"};
}

security::AuditOptions two_samples() {
  security::AuditOptions opt;
  opt.samples = 2;
  return opt;
}

TEST(GoldenJson, OrchestrationWorkloadValuesArePinned) {
  // Two small Fig. 8/9 djpeg points ride along with the synthetic ones,
  // then Fig. 10's micro.* points: full jobs at W=1,2, and the legacy-only
  // ideal jobs of Fig. 10b — all secrets true, and the shared width-0 run.
  std::vector<std::string> specs = two_synthetic_specs();
  specs.push_back("djpeg?format=ppm&pixels=4096&scale=16");
  specs.push_back("djpeg?format=bmp&pixels=4096&scale=16");
  for (const char* kind : {"ones", "fibonacci"})
    for (const char* w : {"1", "2"})
      specs.push_back(std::string("micro.") + kind + "?width=" + w +
                      "&iters=2&secrets=0");
  std::vector<WorkloadJob> jobs = workload_grid(specs, {});
  for (const char* kind : {"ones", "fibonacci"}) {
    std::vector<std::string> ideals;
    for (const char* w : {"1", "2"})
      ideals.push_back(std::string("micro.") + kind + "?width=" + w +
                       "&iters=2&secrets=1");
    ideals.push_back(std::string("micro.") + kind + "?width=0&iters=2");
    for (const std::string& spec : ideals)
      jobs.push_back({"legacy:" + spec, spec, {}, /*legacy_only=*/true});
  }
  check_golden("orch_workload.golden",
               orchestration_record<WorkloadFamily>(jobs));
}

TEST(GoldenJson, OrchestrationAuditValuesArePinned) {
  // The synthetic points and two co-residence attack points, each document
  // under the leakage, lint and tenants projections.
  std::vector<std::string> specs = two_synthetic_specs();
  specs.push_back(
      "attack.prime_probe?victim=crypto.modexp&width=2&size=8&bits=8&iters=2");
  specs.push_back(
      "attack.flush_reload?victim=crypto.modexp&width=2&size=8&bits=8&iters=2");
  check_golden("orch_audit.golden",
               orchestration_record<AuditFamily>(
                   spec_grid<AuditFamily>(specs, two_samples()),
                   {&AuditFamily::json, &AuditFamily::lint_json,
                    &AuditFamily::tenant_json}));
}

}  // namespace
}  // namespace sempe::sim
