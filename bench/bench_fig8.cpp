// Figure 8 — execution time overhead for libjpeg(-like) decompression with
// different image output formats, varying input size.
//
// Paper shape: overheads between ~31% and ~87%; PPM > GIF > BMP; nearly
// flat across image sizes (256k..2048k pixels).
//
// SEMPE_DJPEG_SCALE divides the pixel counts for simulation time
// (default 8; set 1 for paper-sized images). The 12 (format, size) cells
// run concurrently through sim/batch_runner.h.
#include <cstdio>

#include "sim/batch_runner.h"

int main(int argc, char** argv) {
  using namespace sempe;
  using workloads::OutputFormat;
  return sim::bench_main<sim::DjpegFamily>(
      argc, argv, "fig8", "Figure 8: djpeg overhead by format/size",
      sim::djpeg_grid(
          {OutputFormat::kPpm, OutputFormat::kGif, OutputFormat::kBmp},
          sim::djpeg_sizes(), sim::env_usize("SEMPE_DJPEG_SCALE", 8)),
      [](std::FILE* out, const auto& sweep) {
        for (const auto& pt : sweep.run.points)
          std::fprintf(out, "Fig8  %-4s %5zuk  overhead = %5.1f%%\n",
                       workloads::format_name(pt.format), pt.pixels / 1024,
                       pt.overhead() * 100.0);
        return true;
      });
}
