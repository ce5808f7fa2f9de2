// Ablation studies for the design choices Section IV-F discusses and the
// mechanisms README's "Benchmarks" section lists. Not figures from the
// paper, but the experiments behind its design narrative:
//
//   1. Snapshot mechanism: ArchRS (chosen) vs PhyRS (full PRF + RAT
//      spills, "too much snapshot spilling") vs LRS (lazy spill, but the
//      tagged rename table taxes every instruction).
//   2. SPM throughput: how the 64B/cycle port of Table II affects overhead.
//   3. Prefetchers: the "prefetching effect" that lets SeMPE approach (and
//      against the standalone ideal, beat) the sum-of-paths bound.
//
// All 31 ablation points are independent and run concurrently through
// sim/batch_runner.h; the sections below recombine them by job label, so a
// --jobs filter or --shard simply drops the rows it starves.
#include <cstdio>
#include <string>

#include "sim/batch_runner.h"

namespace {

using namespace sempe;
using sim::MicrobenchJob;
using sim::MicrobenchOptions;
using workloads::Kind;

constexpr usize kSnapshotWidths = 8;                   // W = 1..8, 3 jobs each
constexpr u32 kSpmRates[] = {8, 16, 32, 64, 128};      // B/cycle

MicrobenchJob snapshot_job(usize w, cpu::SnapshotModel model, const char* name,
                           const MicrobenchOptions& base) {
  MicrobenchJob j;
  j.label = std::string("snapshot/") + name + "/W=" + std::to_string(w);
  j.kind = Kind::kOnes;
  j.width = w;
  j.opt = base;
  j.opt.snapshot_model = model;
  if (model == cpu::SnapshotModel::kLRS) {
    j.opt.extra_front_end_depth = 1;  // the tagged-rename pipeline stage
    j.opt.rename_width_override = 4;  // tag-lookup ports halve rename width
  }
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  MicrobenchOptions base;
  base.iterations = sim::env_usize("SEMPE_BENCH_ITERS", 20);

  std::vector<MicrobenchJob> jobs;
  // Section 1: snapshot mechanism, 3 configurations per width.
  for (usize w = 1; w <= kSnapshotWidths; ++w) {
    jobs.push_back(
        snapshot_job(w, cpu::SnapshotModel::kArchRS, "archrs", base));
    jobs.push_back(snapshot_job(w, cpu::SnapshotModel::kPhyRS, "phyrs", base));
    jobs.push_back(snapshot_job(w, cpu::SnapshotModel::kLRS, "lrs", base));
  }
  // Section 2: SPM port throughput.
  for (const u32 rate : kSpmRates) {
    MicrobenchJob j;
    j.label = "spm/" + std::to_string(rate) + "B";
    j.kind = Kind::kFibonacci;
    j.width = 4;
    j.opt = base;
    j.opt.spm_bytes_per_cycle = rate;
    jobs.push_back(std::move(j));
  }
  // Section 3: prefetching effect, on then off.
  for (const bool enabled : {true, false}) {
    MicrobenchJob j;
    j.label = std::string("prefetch/") + (enabled ? "on" : "off");
    j.kind = Kind::kOnes;
    j.width = 6;
    j.opt = base;
    j.opt.enable_prefetchers = enabled;
    jobs.push_back(std::move(j));
  }

  return sim::bench_main<sim::MicrobenchFamily>(
      argc, argv, "ablation", "Ablations: snapshot / SPM / prefetch",
      std::move(jobs), [](std::FILE* out, const auto& sweep) {
        // The sections recombine points by job label: a filtered or
        // sharded run holds only a subset, so rows with a missing
        // ingredient are skipped.
        const auto find =
            [&](const std::string& label) -> const sim::MicrobenchPoint* {
          for (usize k = 0; k < sweep.jobs.size(); ++k)
            if (sweep.jobs[k].label == label) return &sweep.run.points[k];
          return nullptr;
        };
        for (usize w = 1; w <= kSnapshotWidths; ++w) {
          const std::string suffix = "/W=" + std::to_string(w);
          const auto* arch = find("snapshot/archrs" + suffix);
          const auto* phy = find("snapshot/phyrs" + suffix);
          const auto* lrs = find("snapshot/lrs" + suffix);
          if (!arch || !phy || !lrs) continue;
          // Normalize every configuration's protected run against the SAME
          // (ArchRS-machine) unprotected baseline: LRS's rename-table stage
          // taxes the whole program — including code outside secure
          // regions — which is exactly the paper's objection to it.
          const double b = static_cast<double>(arch->baseline_cycles);
          const double lrs_base_tax =
              static_cast<double>(lrs->baseline_cycles) / b - 1.0;
          std::fprintf(out,
                       "Ablation/snapshot  W=%zu  ArchRS %5.2fx   PhyRS "
                       "%5.2fx   LRS %5.2fx (+%4.1f%% tax on unprotected "
                       "code)\n",
                       w, static_cast<double>(arch->sempe_cycles) / b,
                       static_cast<double>(phy->sempe_cycles) / b,
                       static_cast<double>(lrs->sempe_cycles) / b,
                       lrs_base_tax * 100.0);
        }
        for (const u32 rate : kSpmRates) {
          const auto* pt = find("spm/" + std::to_string(rate) + "B");
          if (!pt) continue;
          std::fprintf(out,
                       "Ablation/spm  %3u B/cycle  SeMPE %5.2fx (fibonacci, "
                       "W=4)\n",
                       rate, pt->sempe_slowdown());
        }
        for (const bool on : {true, false}) {
          const auto* pt = find(on ? "prefetch/on" : "prefetch/off");
          if (!pt) continue;
          std::fprintf(out,
                       "Ablation/prefetch  %s  SeMPE/ideal(standalone) = "
                       "%.3f (ones, W=6)\n",
                       on ? "on " : "off", pt->sempe_vs_ideal_standalone());
        }
        return true;
      });
}
