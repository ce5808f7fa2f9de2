#include "workloads/kernels.h"

#include <algorithm>
#include <cstdlib>
#include <functional>

#include "util/check.h"
#include "util/rng.h"
#include "workloads/harness.h"
#include "workloads/workload_regs.h"

namespace sempe::workloads {

using isa::ProgramBuilder;
using Label = ProgramBuilder::Label;

namespace {

/// Seed used by the Ones kernel's in-assembly xorshift generator; the host
/// mirror in expected_checksum() must match.
constexpr u64 kOnesSeed = 0x1234567ull;

u64 xorshift64_step(u64 x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

// ---------------------------------------------------------------------------
// Fibonacci
// ---------------------------------------------------------------------------

void emit_fib(ProgramBuilder& pb, const KernelParams& p) {
  const Reg a = k(0), b = k(1), n = k(2), t = k(3), slot = k(4);
  pb.li(a, 0);
  pb.li(b, 1);
  pb.li(n, static_cast<i64>(p.size));
  const Label top = pb.new_label();
  pb.bind(top);
  pb.add(t, a, b);
  pb.mov(a, b);
  pb.mov(b, t);
  pb.addi(n, n, -1);
  pb.bne(n, isa::kRegZero, top);
  pb.li(slot, static_cast<i64>(p.out_slot));
  pb.st(b, slot, 0);
}

void emit_fib_cte(ProgramBuilder& pb, const KernelParams& p) {
  const Reg a = k(0), b = k(1), n = k(2), t = k(3), s = k(4), slot = k(5),
            old = k(6);
  pb.li(a, 0);
  pb.li(b, 1);
  pb.li(n, static_cast<i64>(p.size));
  const Label top = pb.new_label();
  pb.bind(top);
  pb.add(t, a, b);
  emit_guard_select(pb, a, b, s);  // a = guard ? b : a
  emit_guard_select(pb, b, t, s);  // b = guard ? a+b : b
  pb.addi(n, n, -1);
  pb.bne(n, isa::kRegZero, top);
  pb.li(slot, static_cast<i64>(p.out_slot));
  pb.ld(old, slot, 0);
  emit_guard_select(pb, old, b, s);
  pb.st(old, slot, 0);
}

// ---------------------------------------------------------------------------
// Ones: allocate a vector, fill it with pseudo-random numbers, sum it, and
// "delete" it (zero the storage) on exit.
// ---------------------------------------------------------------------------

void emit_ones(ProgramBuilder& pb, const KernelParams& p) {
  const Reg ptr = k(0), seed = k(1), n = k(2), t = k(3), sum = k(4),
            slot = k(5);
  // Fill.
  pb.li(ptr, static_cast<i64>(p.buf));
  pb.li64(seed, static_cast<i64>(kOnesSeed));
  pb.li(n, static_cast<i64>(p.size));
  const Label fill = pb.new_label();
  pb.bind(fill);
  pb.slli(t, seed, 13);
  pb.xor_(seed, seed, t);
  pb.srli(t, seed, 7);
  pb.xor_(seed, seed, t);
  pb.slli(t, seed, 17);
  pb.xor_(seed, seed, t);
  pb.st(seed, ptr, 0);
  pb.addi(ptr, ptr, 8);
  pb.addi(n, n, -1);
  pb.bne(n, isa::kRegZero, fill);
  // Sum.
  pb.li(ptr, static_cast<i64>(p.buf));
  pb.li(n, static_cast<i64>(p.size));
  pb.li(sum, 0);
  const Label acc = pb.new_label();
  pb.bind(acc);
  pb.ld(t, ptr, 0);
  pb.add(sum, sum, t);
  pb.addi(ptr, ptr, 8);
  pb.addi(n, n, -1);
  pb.bne(n, isa::kRegZero, acc);
  // Delete (zero the storage).
  pb.li(ptr, static_cast<i64>(p.buf));
  pb.li(n, static_cast<i64>(p.size));
  const Label del = pb.new_label();
  pb.bind(del);
  pb.st(isa::kRegZero, ptr, 0);
  pb.addi(ptr, ptr, 8);
  pb.addi(n, n, -1);
  pb.bne(n, isa::kRegZero, del);
  pb.li(slot, static_cast<i64>(p.out_slot));
  pb.st(sum, slot, 0);
}

void emit_ones_cte(ProgramBuilder& pb, const KernelParams& p) {
  const Reg ptr = k(0), seed = k(1), n = k(2), t = k(3), sum = k(4),
            slot = k(5), old = k(6), s = k(7);
  // Fill with masked stores: buf[i] = guard ? next() : buf[i].
  pb.li(ptr, static_cast<i64>(p.buf));
  pb.li64(seed, static_cast<i64>(kOnesSeed));
  pb.li(n, static_cast<i64>(p.size));
  const Label fill = pb.new_label();
  pb.bind(fill);
  pb.slli(t, seed, 13);
  pb.xor_(seed, seed, t);
  pb.srli(t, seed, 7);
  pb.xor_(seed, seed, t);
  pb.slli(t, seed, 17);
  pb.xor_(seed, seed, t);
  pb.ld(old, ptr, 0);
  emit_guard_select(pb, old, seed, s);
  pb.st(old, ptr, 0);
  pb.addi(ptr, ptr, 8);
  pb.addi(n, n, -1);
  pb.bne(n, isa::kRegZero, fill);
  // Sum (buffer contents are already guard-consistent).
  pb.li(ptr, static_cast<i64>(p.buf));
  pb.li(n, static_cast<i64>(p.size));
  pb.li(sum, 0);
  const Label acc = pb.new_label();
  pb.bind(acc);
  pb.ld(t, ptr, 0);
  pb.add(sum, sum, t);
  pb.addi(ptr, ptr, 8);
  pb.addi(n, n, -1);
  pb.bne(n, isa::kRegZero, acc);
  // Masked delete.
  pb.li(ptr, static_cast<i64>(p.buf));
  pb.li(n, static_cast<i64>(p.size));
  const Label del = pb.new_label();
  pb.bind(del);
  pb.ld(old, ptr, 0);
  emit_guard_select(pb, old, isa::kRegZero, s);
  pb.st(old, ptr, 0);
  pb.addi(ptr, ptr, 8);
  pb.addi(n, n, -1);
  pb.bne(n, isa::kRegZero, del);
  pb.li(slot, static_cast<i64>(p.out_slot));
  pb.ld(old, slot, 0);
  emit_guard_select(pb, old, sum, s);
  pb.st(old, slot, 0);
}

// ---------------------------------------------------------------------------
// Quicksort
// ---------------------------------------------------------------------------

void emit_copy_input(ProgramBuilder& pb, const KernelParams& p) {
  const Reg src = k(0), dst = k(1), n = k(2), t = k(3);
  pb.li(src, static_cast<i64>(p.input));
  pb.li(dst, static_cast<i64>(p.buf));
  pb.li(n, static_cast<i64>(p.size));
  const Label cp = pb.new_label();
  pb.bind(cp);
  pb.ld(t, src, 0);
  pb.st(t, dst, 0);
  pb.addi(src, src, 8);
  pb.addi(dst, dst, 8);
  pb.addi(n, n, -1);
  pb.bne(n, isa::kRegZero, cp);
}

// Order-sensitive checksum over the private buffer: sum of (buf[i] ^ i).
void emit_checksum(ProgramBuilder& pb, const KernelParams& p, bool cte) {
  const Reg ptr = k(0), n = k(2), sum = k(3), idx = k(4), t = k(5), t2 = k(6),
            slot = k(7), old = k(8), s = k(9);
  pb.li(ptr, static_cast<i64>(p.buf));
  pb.li(n, static_cast<i64>(p.size));
  pb.li(sum, 0);
  pb.li(idx, 0);
  const Label ck = pb.new_label();
  pb.bind(ck);
  pb.ld(t, ptr, 0);
  pb.xor_(t2, t, idx);
  pb.add(sum, sum, t2);
  pb.addi(ptr, ptr, 8);
  pb.addi(idx, idx, 1);
  pb.addi(n, n, -1);
  pb.bne(n, isa::kRegZero, ck);
  pb.li(slot, static_cast<i64>(p.out_slot));
  if (cte) {
    pb.ld(old, slot, 0);
    emit_guard_select(pb, old, sum, s);
    pb.st(old, slot, 0);
  } else {
    pb.st(sum, slot, 0);
  }
}

// Iterative Lomuto quicksort with an explicit (lo,hi) stack in aux.
void emit_quicksort(ProgramBuilder& pb, const KernelParams& p) {
  emit_copy_input(pb, p);

  const Reg sp = k(0), stk = k(1), lo = k(2), hi = k(3), base = k(4),
            pa = k(5), pivot = k(6), i = k(7), j = k(8), ja = k(9), jv = k(10),
            ia = k(11), iv = k(12), t = k(13);
  pb.li(stk, static_cast<i64>(p.aux));
  pb.st(isa::kRegZero, stk, 0);  // push (0, size-1)
  pb.li(t, static_cast<i64>(p.size) - 1);
  pb.st(t, stk, 8);
  pb.li(sp, 16);  // stack pointer: byte offset into aux
  pb.li(base, static_cast<i64>(p.buf));

  const Label qloop = pb.new_label();
  const Label qdone = pb.new_label();
  const Label part = pb.new_label();
  const Label partdone = pb.new_label();
  const Label noswap = pb.new_label();

  pb.bind(qloop);
  pb.beq(sp, isa::kRegZero, qdone);
  pb.addi(sp, sp, -16);
  pb.add(t, stk, sp);
  pb.ld(lo, t, 0);
  pb.ld(hi, t, 8);
  pb.bge(lo, hi, qloop);  // empty or single-element range

  // Partition with pivot = buf[hi].
  pb.slli(pa, hi, 3);
  pb.add(pa, base, pa);
  pb.ld(pivot, pa, 0);
  pb.addi(i, lo, -1);
  pb.mov(j, lo);
  pb.bind(part);
  pb.bge(j, hi, partdone);
  pb.slli(ja, j, 3);
  pb.add(ja, base, ja);
  pb.ld(jv, ja, 0);
  pb.blt(pivot, jv, noswap);  // buf[j] > pivot: keep scanning
  pb.addi(i, i, 1);
  pb.slli(ia, i, 3);
  pb.add(ia, base, ia);
  pb.ld(iv, ia, 0);
  pb.st(jv, ia, 0);
  pb.st(iv, ja, 0);
  pb.bind(noswap);
  pb.addi(j, j, 1);
  pb.jmp(part);
  pb.bind(partdone);

  // p = i+1; swap buf[p] and buf[hi].
  pb.addi(i, i, 1);
  pb.slli(ia, i, 3);
  pb.add(ia, base, ia);
  pb.ld(iv, ia, 0);
  pb.st(pivot, ia, 0);
  pb.st(iv, pa, 0);

  // push (lo, p-1) and (p+1, hi).
  pb.add(t, stk, sp);
  pb.st(lo, t, 0);
  pb.addi(jv, i, -1);
  pb.st(jv, t, 8);
  pb.addi(sp, sp, 16);
  pb.add(t, stk, sp);
  pb.addi(jv, i, 1);
  pb.st(jv, t, 0);
  pb.st(hi, t, 8);
  pb.addi(sp, sp, 16);
  pb.jmp(qloop);
  pb.bind(qdone);

  emit_checksum(pb, p, /*cte=*/false);
}

// CTE quicksort: comparisons cannot branch and the algorithm must have a
// data-independent shape, so the oblivious replacement is an odd-even
// transposition sort: n passes of masked compare-exchange over the array.
void emit_quicksort_cte(ProgramBuilder& pb, const KernelParams& p) {
  emit_copy_input(pb, p);

  const Reg base = k(0), pass = k(1), j = k(2), limit = k(3), ja = k(4),
            a = k(5), b = k(6), c = k(7), m = k(8), mn = k(9), lov = k(10),
            hiv = k(11), t = k(12), parity = k(13);
  pb.li(base, static_cast<i64>(p.buf));
  pb.li(pass, 0);
  pb.li(limit, static_cast<i64>(p.size));

  const Label ptop = pb.new_label();
  const Label jtop = pb.new_label();
  const Label jdone = pb.new_label();

  pb.bind(ptop);
  pb.andi(parity, pass, 1);
  pb.mov(j, parity);
  pb.bind(jtop);
  pb.addi(t, j, 1);
  pb.bge(t, limit, jdone);
  pb.slli(ja, j, 3);
  pb.add(ja, base, ja);
  pb.ld(a, ja, 0);
  pb.ld(b, ja, 8);
  // Swap iff a > b AND the level guard holds; branch-free.
  pb.slt(c, b, a);
  pb.and_(c, c, rGuardBool);
  pb.sub(m, isa::kRegZero, c);
  pb.xori(mn, m, -1);
  pb.and_(lov, b, m);
  pb.and_(t, a, mn);
  pb.or_(lov, lov, t);
  pb.and_(hiv, a, m);
  pb.and_(t, b, mn);
  pb.or_(hiv, hiv, t);
  pb.st(lov, ja, 0);
  pb.st(hiv, ja, 8);
  pb.addi(j, j, 2);
  pb.jmp(jtop);
  pb.bind(jdone);
  pb.addi(pass, pass, 1);
  pb.blt(pass, limit, ptop);

  emit_checksum(pb, p, /*cte=*/true);
}

// ---------------------------------------------------------------------------
// N-Queens: count the placements of N non-attacking queens. Natural
// version: pruned iterative backtracking. CTE version: full odometer
// enumeration of all N^N column assignments with a branchless conflict
// test (pruning would leak, so the oblivious version visits the worst-case
// space — exactly why the paper measures Queens as CTE's worst case).
// ---------------------------------------------------------------------------

void emit_queens(ProgramBuilder& pb, const KernelParams& p) {
  const Reg board = k(0), row = k(1), count = k(2), nreg = k(3), ca = k(4),
            cv = k(5), j = k(6), ja = k(7), jv = k(8), d1 = k(9), d2 = k(10),
            sgn = k(11), t = k(12), slot = k(13);

  pb.li(board, static_cast<i64>(p.buf));
  pb.li(row, 0);
  pb.li(count, 0);
  pb.li(nreg, static_cast<i64>(p.size));
  pb.li(t, -1);
  pb.st(t, board, 0);  // col[0] = -1

  const Label top = pb.new_label();
  const Label done = pb.new_label();
  const Label try_ = pb.new_label();
  const Label conf = pb.new_label();
  const Label place = pb.new_label();
  const Label deeper = pb.new_label();

  pb.bind(top);
  // col[row]++
  pb.slli(ca, row, 3);
  pb.add(ca, board, ca);
  pb.ld(cv, ca, 0);
  pb.addi(cv, cv, 1);
  pb.st(cv, ca, 0);
  pb.blt(cv, nreg, try_);
  // Row exhausted: backtrack.
  pb.addi(row, row, -1);
  pb.blt(row, isa::kRegZero, done);
  pb.jmp(top);

  pb.bind(try_);
  pb.li(j, 0);
  pb.bind(conf);
  pb.bge(j, row, place);
  pb.slli(ja, j, 3);
  pb.add(ja, board, ja);
  pb.ld(jv, ja, 0);
  pb.beq(jv, cv, top);  // same column: conflict, try next col[row]
  pb.sub(d1, cv, jv);
  pb.srai(sgn, d1, 63);  // abs()
  pb.xor_(d1, d1, sgn);
  pb.sub(d1, d1, sgn);
  pb.sub(d2, row, j);
  pb.beq(d1, d2, top);  // diagonal conflict
  pb.addi(j, j, 1);
  pb.jmp(conf);

  pb.bind(place);
  pb.addi(t, row, 1);
  pb.bne(t, nreg, deeper);
  pb.addi(count, count, 1);  // full placement found
  pb.jmp(top);
  pb.bind(deeper);
  pb.mov(row, t);
  pb.li(t, -1);
  pb.slli(ca, row, 3);
  pb.add(ca, board, ca);
  pb.st(t, ca, 0);
  pb.jmp(top);

  pb.bind(done);
  pb.li(slot, static_cast<i64>(p.out_slot));
  pb.st(count, slot, 0);
}

void emit_queens_cte(ProgramBuilder& pb, const KernelParams& p) {
  const usize nq = p.size;
  SEMPE_CHECK_MSG(nq >= 2 && nq <= 8, "CTE queens supports N in [2,8]");

  const Reg count = k(0), nreg = k(1), ok = k(2), t = k(3);
  auto col = [](usize lvl) { return k(4 + static_cast<int>(lvl)); };
  const Reg s1 = k(12), s2 = k(13), s3 = k(14);
  const Reg slot = k(15), old = k(16), sel = k(17);

  pb.li(count, 0);
  pb.li(nreg, static_cast<i64>(nq));

  // N nested fixed-trip-count loops (the odometer); the innermost body
  // performs a branchless all-pairs conflict test.
  std::function<void(usize)> nest = [&](usize lvl) {
    if (lvl == nq) {
      pb.li(ok, 1);
      for (usize i = 0; i < nq; ++i) {
        for (usize j = i + 1; j < nq; ++j) {
          pb.seq(t, col(i), col(j));  // same column
          pb.sub(s1, col(i), col(j));
          pb.srai(s2, s1, 63);  // abs()
          pb.xor_(s1, s1, s2);
          pb.sub(s1, s1, s2);
          pb.li(s3, static_cast<i64>(j - i));
          pb.seq(s1, s1, s3);  // diagonal
          pb.or_(t, t, s1);
          pb.xori(t, t, 1);
          pb.and_(ok, ok, t);
        }
      }
      pb.and_(t, ok, rGuardBool);
      pb.add(count, count, t);
      return;
    }
    const Reg c = col(lvl);
    pb.li(c, 0);
    const Label ltop = pb.new_label();
    pb.bind(ltop);
    nest(lvl + 1);
    pb.addi(c, c, 1);
    pb.blt(c, nreg, ltop);
  };
  nest(0);

  pb.li(slot, static_cast<i64>(p.out_slot));
  pb.ld(old, slot, 0);
  emit_guard_select(pb, old, count, sel);
  pb.st(old, slot, 0);
}

// ---------------------------------------------------------------------------
// Host mirrors for correctness tests.
// ---------------------------------------------------------------------------

u64 host_fib(usize n) {
  u64 a = 0, b = 1;
  for (usize i = 0; i < n; ++i) {
    const u64 t = a + b;
    a = b;
    b = t;
  }
  return b;
}

u64 host_ones(usize n) {
  u64 seed = kOnesSeed;
  u64 sum = 0;
  for (usize i = 0; i < n; ++i) {
    seed = xorshift64_step(seed);
    sum += seed;
  }
  return sum;
}

u64 host_sorted_checksum(std::vector<i64> v) {
  std::sort(v.begin(), v.end());
  u64 sum = 0;
  for (usize i = 0; i < v.size(); ++i)
    sum += static_cast<u64>(v[i]) ^ static_cast<u64>(i);
  return sum;
}

u64 host_queens(usize n) {
  std::vector<i64> col(n, 0);
  u64 count = 0;
  std::function<void(usize)> rec = [&](usize row) {
    if (row == n) {
      ++count;
      return;
    }
    for (i64 c = 0; c < static_cast<i64>(n); ++c) {
      bool ok = true;
      for (usize j = 0; j < row; ++j) {
        const i64 d = col[j] > c ? col[j] - c : c - col[j];
        if (col[j] == c || d == static_cast<i64>(row - j)) {
          ok = false;
          break;
        }
      }
      if (ok) {
        col[row] = c;
        rec(row + 1);
      }
    }
  };
  rec(0);
  return count;
}

/// Out-of-range Kind values (a corrupted config, a cast from a raw int)
/// must fail loudly, not silently fall through to a placeholder.
[[noreturn]] void bad_kind(Kind kd) {
  SEMPE_CHECK_MSG(false, "out-of-range workloads::Kind value "
                             << static_cast<int>(static_cast<u8>(kd)));
  std::abort();  // unreachable: SEMPE_CHECK throws
}

}  // namespace

const char* kind_name(Kind kd) {
  switch (kd) {
    case Kind::kFibonacci: return "fibonacci";
    case Kind::kOnes: return "ones";
    case Kind::kQuicksort: return "quicksort";
    case Kind::kQueens: return "queens";
  }
  bad_kind(kd);
}

usize kernel_default_size(Kind kd) {
  switch (kd) {
    case Kind::kFibonacci: return 400;
    case Kind::kOnes: return 256;
    case Kind::kQuicksort: return 64;
    case Kind::kQueens: return 5;
  }
  bad_kind(kd);
}

usize kernel_input_words(Kind kd, usize size) {
  kind_name(kd);  // range check
  return kd == Kind::kQuicksort ? size : 0;
}

usize kernel_buf_words(Kind kd, usize size) {
  switch (kd) {
    case Kind::kFibonacci: return 0;
    case Kind::kOnes: return size;
    case Kind::kQuicksort: return size;
    case Kind::kQueens: return size;  // col[] for the backtracking version
  }
  bad_kind(kd);
}

usize kernel_aux_words(Kind kd, usize size) {
  kind_name(kd);  // range check
  // Quicksort's explicit stack: worst case ~(size+1) frames of 2 words.
  return kd == Kind::kQuicksort ? 4 * size + 8 : 0;
}

void emit_kernel(ProgramBuilder& pb, Kind kd, const KernelParams& p) {
  switch (kd) {
    case Kind::kFibonacci: emit_fib(pb, p); return;
    case Kind::kOnes: emit_ones(pb, p); return;
    case Kind::kQuicksort: emit_quicksort(pb, p); return;
    case Kind::kQueens: emit_queens(pb, p); return;
  }
  bad_kind(kd);
}

void emit_kernel_cte(ProgramBuilder& pb, Kind kd, const KernelParams& p) {
  switch (kd) {
    case Kind::kFibonacci: emit_fib_cte(pb, p); return;
    case Kind::kOnes: emit_ones_cte(pb, p); return;
    case Kind::kQuicksort: emit_quicksort_cte(pb, p); return;
    case Kind::kQueens: emit_queens_cte(pb, p); return;
  }
  bad_kind(kd);
}

std::vector<i64> make_input(Kind kd, usize size, u64 seed) {
  std::vector<i64> v(kernel_input_words(kd, size));
  Rng rng(seed);
  for (auto& x : v) x = static_cast<i64>(rng.next_u64() >> 16);
  return v;
}

u64 expected_checksum(Kind kd, usize size, const std::vector<i64>& input) {
  switch (kd) {
    case Kind::kFibonacci: return host_fib(size);
    case Kind::kOnes: return host_ones(size);
    case Kind::kQuicksort: return host_sorted_checksum(input);
    case Kind::kQueens: return host_queens(size);
  }
  bad_kind(kd);
}

namespace {

/// The harness-facing form of one microbenchmark kernel.
template <Kind K>
KernelSpec micro_spec(const KernelArgs& args, u64 seed) {
  const usize size = args["size"];
  KernelSpec s;
  s.size = size;
  s.input = make_input(K, size, seed);
  s.buf_words = kernel_buf_words(K, size);
  s.aux_words = kernel_aux_words(K, size);
  s.expected = expected_checksum(K, size, s.input);
  s.emit = [](ProgramBuilder& pb, const KernelParams& p) {
    emit_kernel(pb, K, p);
  };
  s.emit_cte = [](ProgramBuilder& pb, const KernelParams& p) {
    emit_kernel_cte(pb, K, p);
  };
  if (K == Kind::kQueens && (size < 2 || size > 8)) {
    // The CTE odometer enumerates all N^N placements in 8 column
    // registers; a CTE build of another size fails when it emits a level.
    const std::string what = "workload '" + args.workload() + "': size=" +
                             std::to_string(size) +
                             " out of range [2, 8] for the CTE variant";
    s.emit_cte = [what](ProgramBuilder&, const KernelParams&) {
      throw SimError(what);
    };
  }
  return s;
}

KernelKey micro_size(Kind kind, u64 max) {
  return size_key(kernel_default_size(kind), 1, max,
                  "problem size (loop count / elements / board size)");
}

}  // namespace

// The microbenchmark of Figure 7: I iterations of W nested secret-dependent
// conditionals, each guarding one kernel body, with body W+1 executing
// unconditionally after the nest.
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
const std::vector<HarnessedRow>& micro_rows() {
  constexpr u64 kMaxSize = 1u << 20;
  static const std::vector<HarnessedRow> rows = {
      {"micro.fibonacci", "Fig. 7 fibonacci microbenchmark",
       {micro_size(Kind::kFibonacci, kMaxSize)}, micro_spec<Kind::kFibonacci>},
      {"micro.ones", "Fig. 7 ones microbenchmark",
       {micro_size(Kind::kOnes, kMaxSize)}, micro_spec<Kind::kOnes>},
      {"micro.quicksort", "Fig. 7 quicksort microbenchmark",
       {micro_size(Kind::kQuicksort, kMaxSize)}, micro_spec<Kind::kQuicksort>},
      // Queens' host-mirror backtracking search is exponential in size; an
      // unbounded size would hang the build, not just slow the simulation.
      {"micro.queens", "Fig. 7 queens microbenchmark",
       {micro_size(Kind::kQueens, 12)}, micro_spec<Kind::kQueens>},
  };
  return rows;
}

}  // namespace sempe::workloads
