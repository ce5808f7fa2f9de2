// Figure 9 — cache miss rates (IL1 / DL1 / L2) for the djpeg workload:
// baseline (dashed, left column) vs SeMPE (solid, right column), per output
// format and image size.
//
// Paper shape: IL1 low and size-independent; DL1 low with SeMPE close to
// baseline (ShadowMemory locality); L2 higher than DL1 overall.
//
// The 12 (format, size) cells run concurrently through sim/batch_runner.h.
#include <cstdio>

#include "sim/batch_runner.h"

int main(int argc, char** argv) {
  using namespace sempe;
  using workloads::OutputFormat;
  return sim::bench_main<sim::DjpegFamily>(
      argc, argv, "fig9", "Figure 9: djpeg cache miss rates",
      sim::djpeg_grid(
          {OutputFormat::kPpm, OutputFormat::kGif, OutputFormat::kBmp},
          sim::djpeg_sizes(), sim::env_usize("SEMPE_DJPEG_SCALE", 8)),
      [](std::FILE* out, const auto& sweep) {
        for (const auto& pt : sweep.run.points)
          std::fprintf(
              out,
              "Fig9  %-4s %5zuk  IL1 %5.2f%%|%5.2f%%  DL1 %5.2f%%|%5.2f%%  "
              "L2 %5.2f%%|%5.2f%%   (baseline|SeMPE)\n",
              workloads::format_name(pt.format), pt.pixels / 1024,
              pt.baseline.il1_miss_rate() * 100,
              pt.sempe.il1_miss_rate() * 100,
              pt.baseline.dl1_miss_rate() * 100,
              pt.sempe.dl1_miss_rate() * 100, pt.baseline.l2_miss_rate() * 100,
              pt.sempe.l2_miss_rate() * 100);
        return true;
      });
}
