#include "workloads/synthetic.h"

#include <algorithm>

#include "util/check.h"
#include "util/rng.h"
#include "workloads/workload_regs.h"

namespace sempe::workloads {

using isa::ProgramBuilder;
using Label = ProgramBuilder::Label;

namespace {

// ---------------------------------------------------------------------------
// ptr_chase: dependent loads over a shuffled single-cycle permutation.
// Element e lives at byte offset e*stride in the input image and holds the
// byte offset of its cycle successor; the kernel hops `steps` times from
// element 0, summing the offsets it visits.
// ---------------------------------------------------------------------------

std::vector<usize> chase_cycle(usize size, u64 seed) {
  // Visit order: element 0 first, the rest shuffled (Fisher-Yates).
  std::vector<usize> order(size);
  for (usize i = 0; i < size; ++i) order[i] = i;
  Rng rng(seed);
  for (usize i = size - 1; i >= 2; --i)
    std::swap(order[i], order[1 + rng.next_below(i)]);
  std::vector<usize> next(size);
  for (usize i = 0; i < size; ++i) next[order[i]] = order[(i + 1) % size];
  return next;
}

/// The largest ptr_chase input image: size x stride bytes are allocated,
/// then copied into the program's data segment.
constexpr u64 kMaxChaseBytes = u64{1} << 26;

KernelSpec spec_ptr_chase(const KernelArgs& args, u64 seed) {
  const usize size = args["size"], stride = args["stride"],
              steps = args["steps"];
  if (size * stride > kMaxChaseBytes)
    throw SimError("workload '" + args.workload() + "': size x stride = " +
                   std::to_string(size * stride) +
                   " bytes exceeds the 2^26-byte input image cap");
  const usize words_per_elem = stride / 8;
  const std::vector<usize> next = chase_cycle(size, seed);

  KernelSpec s;
  s.size = size;
  s.input.assign(size * words_per_elem, 0);
  for (usize e = 0; e < size; ++e)
    s.input[e * words_per_elem] = static_cast<i64>(next[e] * stride);

  u64 sum = 0;
  usize e = 0;
  for (usize i = 0; i < steps; ++i) {
    e = next[e];
    sum += static_cast<u64>(e) * stride;
  }
  s.expected = sum;

  auto body = [steps](ProgramBuilder& pb, const KernelParams& p, bool cte) {
    const Reg base = k(0), off = k(1), n = k(2), a = k(3), sum_r = k(4),
              slot = k(5), old = k(6), scr = k(7);
    pb.li(base, static_cast<i64>(p.input));
    pb.li(off, 0);
    pb.li(n, static_cast<i64>(steps));
    pb.li(sum_r, 0);
    const Label top = pb.new_label();
    pb.bind(top);
    pb.add(a, base, off);
    pb.ld(off, a, 0);  // the dependent load: next hop's byte offset
    pb.add(sum_r, sum_r, off);
    pb.addi(n, n, -1);
    pb.bne(n, isa::kRegZero, top);
    emit_out_slot(pb, p, sum_r, slot, old, scr, cte);
  };
  s.emit = [body](ProgramBuilder& pb, const KernelParams& p) {
    body(pb, p, false);
  };
  s.emit_cte = [body](ProgramBuilder& pb, const KernelParams& p) {
    body(pb, p, true);
  };
  return s;
}

// ---------------------------------------------------------------------------
// stream: sequential read / accumulate / write. The private buffer receives
// the running prefix sums; the checksum is the sum of those prefix sums,
// so it is order-sensitive.
// ---------------------------------------------------------------------------

KernelSpec spec_stream(const KernelArgs& args, u64 seed) {
  const usize size = args["size"];
  KernelSpec s;
  s.size = size;
  s.buf_words = size;
  Rng rng(seed);
  s.input.resize(size);
  for (auto& v : s.input) v = static_cast<i64>(rng.next_u64() >> 16);

  u64 sum = 0, acc = 0;
  for (const i64 v : s.input) {
    sum += static_cast<u64>(v);
    acc += sum;
  }
  s.expected = acc;

  auto body = [size](ProgramBuilder& pb, const KernelParams& p, bool cte) {
    const Reg src = k(0), dst = k(1), n = k(2), v = k(3), sum_r = k(4),
              acc_r = k(5), slot = k(6), old = k(7), scr = k(8);
    pb.li(src, static_cast<i64>(p.input));
    pb.li(dst, static_cast<i64>(p.buf));
    pb.li(n, static_cast<i64>(size));
    pb.li(sum_r, 0);
    pb.li(acc_r, 0);
    const Label top = pb.new_label();
    pb.bind(top);
    pb.ld(v, src, 0);
    pb.add(sum_r, sum_r, v);
    if (cte) {
      pb.ld(old, dst, 0);
      emit_guard_select(pb, old, sum_r, scr);
      pb.st(old, dst, 0);
    } else {
      pb.st(sum_r, dst, 0);
    }
    pb.add(acc_r, acc_r, sum_r);
    pb.addi(src, src, 8);
    pb.addi(dst, dst, 8);
    pb.addi(n, n, -1);
    pb.bne(n, isa::kRegZero, top);
    emit_out_slot(pb, p, acc_r, slot, old, scr, cte);
  };
  s.emit = [body](ProgramBuilder& pb, const KernelParams& p) {
    body(pb, p, false);
  };
  s.emit_cte = [body](ProgramBuilder& pb, const KernelParams& p) {
    body(pb, p, true);
  };
  return s;
}

// ---------------------------------------------------------------------------
// cond_branch: one data-dependent conditional per element, taken with
// probability ~taken_permille/1000 (values are uniform u64; the branch
// compares against a scaled threshold). Taken path: sum += 2v+1; not
// taken: sum ^= v.
// ---------------------------------------------------------------------------

KernelSpec spec_cond_branch(const KernelArgs& args, u64 seed) {
  const usize size = args["size"];
  const u64 thr = args["taken"] * (UINT64_MAX / 1000);

  KernelSpec s;
  s.size = size;
  Rng rng(seed);
  s.input.resize(size);
  for (auto& v : s.input) v = static_cast<i64>(rng.next_u64());

  u64 sum = 0;
  for (const i64 sv : s.input) {
    const u64 v = static_cast<u64>(sv);
    if (v < thr)
      sum += 2 * v + 1;
    else
      sum ^= v;
  }
  s.expected = sum;

  s.emit = [size, thr](ProgramBuilder& pb, const KernelParams& p) {
    const Reg ptr = k(0), n = k(1), v = k(2), c = k(3), sum_r = k(4),
              thr_r = k(5), t = k(6), slot = k(7), old = k(8), scr = k(9);
    pb.li(ptr, static_cast<i64>(p.input));
    pb.li(n, static_cast<i64>(size));
    pb.li(sum_r, 0);
    pb.li64(thr_r, static_cast<i64>(thr));
    const Label top = pb.new_label();
    const Label taken = pb.new_label();
    const Label next = pb.new_label();
    pb.bind(top);
    pb.ld(v, ptr, 0);
    pb.sltu(c, v, thr_r);
    pb.bne(c, isa::kRegZero, taken);
    pb.xor_(sum_r, sum_r, v);  // not-taken path
    pb.jmp(next);
    pb.bind(taken);
    pb.slli(t, v, 1);  // taken path: sum += 2v+1
    pb.add(sum_r, sum_r, t);
    pb.addi(sum_r, sum_r, 1);
    pb.bind(next);
    pb.addi(ptr, ptr, 8);
    pb.addi(n, n, -1);
    pb.bne(n, isa::kRegZero, top);
    emit_out_slot(pb, p, sum_r, slot, old, scr, /*cte=*/false);
  };
  s.emit_cte = [size, thr](ProgramBuilder& pb, const KernelParams& p) {
    const Reg ptr = k(0), n = k(1), v = k(2), c = k(3), sum_r = k(4),
              thr_r = k(5), t = k(6), a = k(7), b = k(8), m = k(9),
              mn = k(10), slot = k(11), old = k(12), scr = k(13);
    pb.li(ptr, static_cast<i64>(p.input));
    pb.li(n, static_cast<i64>(size));
    pb.li(sum_r, 0);
    pb.li64(thr_r, static_cast<i64>(thr));
    const Label top = pb.new_label();
    pb.bind(top);
    pb.ld(v, ptr, 0);
    pb.sltu(c, v, thr_r);
    pb.sub(m, isa::kRegZero, c);  // data mask (public), not the guard mask
    pb.xori(mn, m, -1);
    pb.xor_(a, sum_r, v);  // not-taken result
    pb.slli(t, v, 1);      // taken result
    pb.add(b, sum_r, t);
    pb.addi(b, b, 1);
    pb.and_(a, a, mn);
    pb.and_(b, b, m);
    pb.or_(sum_r, a, b);
    pb.addi(ptr, ptr, 8);
    pb.addi(n, n, -1);
    pb.bne(n, isa::kRegZero, top);
    emit_out_slot(pb, p, sum_r, slot, old, scr, /*cte=*/true);
  };
  return s;
}

// ---------------------------------------------------------------------------
// ibr: indirect-branch target-pool stress. The input image holds [A table |
// B table | target-index sequence]; the natural form dispatches each step
// through a jalr into one of `targets` equally-sized code blocks (block t:
// sum += A_t; sum ^= B_t), the CTE form computes the same updates via table
// loads with no indirect control flow.
// ---------------------------------------------------------------------------

i64 ibr_add_const(usize t) { return static_cast<i64>(1 + t * 257); }
i64 ibr_xor_const(usize t) { return static_cast<i64>((t * 73) & 1023); }

KernelSpec spec_ibr(const KernelArgs& args, u64 seed) {
  const usize size = args["size"], T = args["targets"];

  KernelSpec s;
  s.size = size;
  s.input.reserve(2 * T + size);
  for (usize t = 0; t < T; ++t) s.input.push_back(ibr_add_const(t));
  for (usize t = 0; t < T; ++t) s.input.push_back(ibr_xor_const(t));
  Rng rng(seed);
  std::vector<usize> seq(size);
  for (auto& t : seq) {
    t = rng.next_below(T);
    s.input.push_back(static_cast<i64>(t));
  }

  u64 sum = 0;
  for (const usize t : seq) {
    sum += static_cast<u64>(ibr_add_const(t));
    sum ^= static_cast<u64>(ibr_xor_const(t));
  }
  s.expected = sum;

  s.emit = [size, T](ProgramBuilder& pb, const KernelParams& p) {
    const Reg ptr = k(0), n = k(1), t = k(2), o1 = k(3), o2 = k(4),
              ta = k(5), tb = k(6), sum_r = k(7), slot = k(8), old = k(9),
              scr = k(10);
    const Label entry = pb.new_label();
    pb.jmp(entry);
    // The target pool: T blocks of exactly 3 instructions, i.e.
    // 3 * kInstrBytes bytes each — the dispatch stride below.
    const Addr pool_base = pb.here();
    for (usize blk = 0; blk < T; ++blk) {
      pb.addi(sum_r, sum_r, ibr_add_const(blk));
      pb.xori(sum_r, sum_r, ibr_xor_const(blk));
      pb.ret();
    }
    pb.bind(entry);
    pb.li(ptr, static_cast<i64>(p.input + 16 * T));  // index sequence
    pb.li(n, static_cast<i64>(size));
    pb.li(sum_r, 0);
    pb.li(tb, static_cast<i64>(pool_base));
    const Label top = pb.new_label();
    pb.bind(top);
    pb.ld(t, ptr, 0);
    pb.li(o2, 3 * static_cast<i64>(isa::kInstrBytes));  // block byte size
    pb.mul(o1, t, o2);
    pb.add(ta, tb, o1);
    pb.jalr(isa::kRegRa, ta);  // the indirect call under test
    pb.addi(ptr, ptr, 8);
    pb.addi(n, n, -1);
    pb.bne(n, isa::kRegZero, top);
    emit_out_slot(pb, p, sum_r, slot, old, scr, /*cte=*/false);
  };
  s.emit_cte = [size, T](ProgramBuilder& pb, const KernelParams& p) {
    const Reg ptr = k(0), n = k(1), t = k(2), o = k(3), aa = k(4), av = k(5),
              ba = k(6), bv = k(7), sum_r = k(8), slot = k(9), old = k(10),
              scr = k(11);
    pb.li(ptr, static_cast<i64>(p.input + 16 * T));
    pb.li(n, static_cast<i64>(size));
    pb.li(sum_r, 0);
    const Label top = pb.new_label();
    pb.bind(top);
    pb.ld(t, ptr, 0);
    pb.slli(o, t, 3);
    pb.li(aa, static_cast<i64>(p.input));  // A table
    pb.add(aa, aa, o);
    pb.ld(av, aa, 0);
    pb.li(ba, static_cast<i64>(p.input + 8 * T));  // B table
    pb.add(ba, ba, o);
    pb.ld(bv, ba, 0);
    pb.add(sum_r, sum_r, av);
    pb.xor_(sum_r, sum_r, bv);
    pb.addi(ptr, ptr, 8);
    pb.addi(n, n, -1);
    pb.bne(n, isa::kRegZero, top);
    emit_out_slot(pb, p, sum_r, slot, old, scr, /*cte=*/true);
  };
  return s;
}

// ---------------------------------------------------------------------------
// ilp: `chains` independent dependence chains, each `depth` serial
// multiply-adds per step — the classic issue-width vs latency kernel.
// ---------------------------------------------------------------------------

constexpr u64 kIlpMul = 0x2545f4914f6cdd1dull;  // odd: invertible mod 2^64

KernelSpec spec_ilp(const KernelArgs& args, u64 seed) {
  const usize size = args["size"], chains = args["chains"],
              depth = args["depth"];
  KernelSpec s;
  s.size = size;
  Rng rng(seed);
  std::vector<u64> init(chains);
  for (auto& x : init) x = rng.next_u64();

  std::vector<u64> x = init;
  for (usize i = 0; i < size; ++i)
    for (usize c = 0; c < chains; ++c)
      for (usize d = 0; d < depth; ++d)
        x[c] = x[c] * kIlpMul + static_cast<u64>(17 * (c + 1) + d);
  u64 sum = 0;
  for (const u64 v : x) sum ^= v;
  s.expected = sum;

  auto body = [size, chains, depth, init](ProgramBuilder& pb,
                                          const KernelParams& p, bool cte) {
    const Reg mul = k(8), n = k(9), sum_r = k(10), slot = k(11), old = k(12),
              scr = k(13);
    for (usize c = 0; c < chains; ++c)
      pb.li64(k(static_cast<int>(c)), static_cast<i64>(init[c]));
    pb.li64(mul, static_cast<i64>(kIlpMul));
    pb.li(n, static_cast<i64>(size));
    const Label top = pb.new_label();
    pb.bind(top);
    for (usize c = 0; c < chains; ++c) {
      const Reg x = k(static_cast<int>(c));
      for (usize d = 0; d < depth; ++d) {
        pb.mul(x, x, mul);
        pb.addi(x, x, static_cast<i64>(17 * (c + 1) + d));
      }
    }
    pb.addi(n, n, -1);
    pb.bne(n, isa::kRegZero, top);
    pb.li(sum_r, 0);
    for (usize c = 0; c < chains; ++c)
      pb.xor_(sum_r, sum_r, k(static_cast<int>(c)));
    emit_out_slot(pb, p, sum_r, slot, old, scr, cte);
  };
  s.emit = [body](ProgramBuilder& pb, const KernelParams& p) {
    body(pb, p, false);
  };
  s.emit_cte = [body](ProgramBuilder& pb, const KernelParams& p) {
    body(pb, p, true);
  };
  return s;
}

// ---------------------------------------------------------------------------
// secret_mix: per element, a load, a data-dependent two-way branch (odd:
// v = 5v+13, even: v = (v^0x2a5)*3), a store into the private buffer, and
// an order-sensitive accumulate — a mixed stressor for secure regions.
// ---------------------------------------------------------------------------

KernelSpec spec_secret_mix(const KernelArgs& args, u64 seed) {
  const usize size = args["size"];
  KernelSpec s;
  s.size = size;
  s.buf_words = size;
  Rng rng(seed);
  s.input.resize(size);
  for (auto& v : s.input) v = static_cast<i64>(rng.next_below(1u << 16));

  u64 sum = 0;
  for (usize i = 0; i < size; ++i) {
    u64 v = static_cast<u64>(s.input[i]);
    v = (v & 1) ? 5 * v + 13 : (v ^ 0x2a5) * 3;
    sum += v ^ static_cast<u64>(i);
  }
  s.expected = sum;

  s.emit = [size](ProgramBuilder& pb, const KernelParams& p) {
    const Reg ptr = k(0), buf = k(1), n = k(2), idx = k(3), v = k(4),
              c = k(5), t = k(6), sum_r = k(7), slot = k(8), old = k(9),
              scr = k(10);
    pb.li(ptr, static_cast<i64>(p.input));
    pb.li(buf, static_cast<i64>(p.buf));
    pb.li(n, static_cast<i64>(size));
    pb.li(idx, 0);
    pb.li(sum_r, 0);
    const Label top = pb.new_label();
    const Label odd = pb.new_label();
    const Label join = pb.new_label();
    pb.bind(top);
    pb.ld(v, ptr, 0);
    pb.andi(c, v, 1);
    pb.bne(c, isa::kRegZero, odd);
    pb.xori(v, v, 0x2a5);  // even path: v = (v^0x2a5)*3
    pb.slli(t, v, 1);
    pb.add(v, v, t);
    pb.jmp(join);
    pb.bind(odd);
    pb.slli(t, v, 2);  // odd path: v = 5v+13
    pb.add(v, v, t);
    pb.addi(v, v, 13);
    pb.bind(join);
    pb.st(v, buf, 0);
    pb.xor_(t, v, idx);
    pb.add(sum_r, sum_r, t);
    pb.addi(idx, idx, 1);
    pb.addi(ptr, ptr, 8);
    pb.addi(buf, buf, 8);
    pb.addi(n, n, -1);
    pb.bne(n, isa::kRegZero, top);
    emit_out_slot(pb, p, sum_r, slot, old, scr, /*cte=*/false);
  };
  s.emit_cte = [size](ProgramBuilder& pb, const KernelParams& p) {
    const Reg ptr = k(0), buf = k(1), n = k(2), idx = k(3), v = k(4),
              c = k(5), t = k(6), sum_r = k(7), va = k(8), vb = k(9),
              m = k(10), mn = k(11), slot = k(12), old = k(13), scr = k(14);
    pb.li(ptr, static_cast<i64>(p.input));
    pb.li(buf, static_cast<i64>(p.buf));
    pb.li(n, static_cast<i64>(size));
    pb.li(idx, 0);
    pb.li(sum_r, 0);
    const Label top = pb.new_label();
    pb.bind(top);
    pb.ld(v, ptr, 0);
    pb.andi(c, v, 1);
    pb.sub(m, isa::kRegZero, c);  // data mask (public), not the guard mask
    pb.xori(mn, m, -1);
    pb.slli(t, v, 2);  // odd result
    pb.add(va, v, t);
    pb.addi(va, va, 13);
    pb.xori(vb, v, 0x2a5);  // even result
    pb.slli(t, vb, 1);
    pb.add(vb, vb, t);
    pb.and_(va, va, m);
    pb.and_(vb, vb, mn);
    pb.or_(v, va, vb);
    pb.ld(old, buf, 0);  // guard-masked store into the private buffer
    emit_guard_select(pb, old, v, scr);
    pb.st(old, buf, 0);
    pb.xor_(t, v, idx);
    pb.add(sum_r, sum_r, t);
    pb.addi(idx, idx, 1);
    pb.addi(ptr, ptr, 8);
    pb.addi(buf, buf, 8);
    pb.addi(n, n, -1);
    pb.bne(n, isa::kRegZero, top);
    emit_out_slot(pb, p, sum_r, slot, old, scr, /*cte=*/true);
  };
  return s;
}

// Default steps sit just off the whole-lap boundary: over whole laps the
// visited-offset sum is permutation-invariant, which would blind the
// end-to-end checksum to chase-order regressions.
u64 chase_steps(const KernelArgs& earlier) { return 2 * earlier["size"] + 1; }

KernelKey synth_size(u64 fallback) {
  return size_key(fallback, 2, 1u << 20,
                  "elements / steps per kernel execution");
}

}  // namespace

const std::vector<HarnessedRow>& synthetic_rows() {
  static const std::vector<HarnessedRow> rows = {
      {"synthetic.ptr_chase", "pointer-chase memory-latency kernel",
       {synth_size(256),
        {.name = "stride", .fallback = 64, .min = 8, .max = 4096,
         .help = "element spacing in bytes", .rule = KeyRule::kMultipleOf8},
        {.name = "steps", .fallback = 0, .min = 1, .max = 1u << 22,
         .help = "chase length (0 = 2*size+1)", .zero_is_default = true,
         .derive = chase_steps}},
       spec_ptr_chase},
      {"synthetic.stream", "streaming bandwidth kernel", {synth_size(1024)},
       spec_stream},
      {"synthetic.cond_branch", "conditional branches, tunable taken ratio",
       {synth_size(2048), {"taken", 500, 0, 1000, "P(taken) in per mille"}},
       spec_cond_branch},
      {"synthetic.ibr", "indirect-branch target-pool stress",
       {synth_size(512), {"targets", 8, 2, 64, "indirect target pool size"}},
       spec_ibr},
      {"synthetic.ilp", "ILP dependence chains",
       {synth_size(256),
        {"chains", 4, 1, 8, "independent dependence chains"},
        {"depth", 8, 1, 64, "dependent ops per chain per step"}},
       spec_ilp},
      {"synthetic.secret_mix", "mixed secret-region stressor",
       {synth_size(512)}, spec_secret_mix},
  };
  return rows;
}

}  // namespace sempe::workloads
