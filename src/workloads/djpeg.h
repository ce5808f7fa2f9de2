// The real-world workload: a block-based image decompressor standing in
// for libjpeg's djpeg (see README "Workload catalog").
//
// The secret is the image content (the coefficient array). Processing
// mirrors djpeg's structure: the image is decomposed into 64-coefficient
// blocks; each block's decode takes one of two paths chosen by a
// secret-dependent conditional (dense vs. run-length decode — the SDBCB the
// paper closes), followed by an IDCT-like transform and a format-specific
// output epilogue. PPM has the smallest non-secret epilogue, GIF a medium
// one, BMP the largest — which is what makes the secure-region share (and
// therefore the SeMPE overhead) differ across formats in Figure 8.
//
// Shadow-memory discipline: the two decode paths write to word-interleaved
// shadow buffers sharing the same cache lines, and a single CMOV selects
// the live buffer's offset after the join. The cache-line address trace is
// therefore image-independent under SeMPE.
#pragma once

#include "isa/program.h"
#include "util/types.h"

namespace sempe::workloads {

enum class OutputFormat : u8 { kPpm, kGif, kBmp };

const char* format_name(OutputFormat f);

struct DjpegConfig {
  OutputFormat format = OutputFormat::kPpm;
  usize pixels = 256 * 1024;  // nominal image size (paper: 256k..2048k)
  usize scale = 8;            // divide pixels by this for simulation time
  u64 image_seed = 1;         // the secret: determines the image content
};

struct BuiltDjpeg {
  isa::Program program;
  usize blocks = 0;
  Addr output_addr = 0;
  Addr checksum_addr = 0;   // 8-byte slot with the output checksum
  u64 expected_checksum = 0;  // host-computed mirror
};

BuiltDjpeg build_djpeg(const DjpegConfig& cfg);

}  // namespace sempe::workloads
