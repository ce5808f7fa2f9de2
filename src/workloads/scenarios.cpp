#include "workloads/scenarios.h"

#include <algorithm>

#include "util/check.h"
#include "util/rng.h"
#include "workloads/workload_regs.h"

namespace sempe::workloads {

using isa::ProgramBuilder;
using Label = ProgramBuilder::Label;

namespace {

// ---------------------------------------------------------------------------
// crypto.aes: T-table cipher round passes. The input image holds a
// 256-entry T-table, `rounds` round keys, and `size` state words. Each
// pass sends every state word through a table-indexed load:
//
//   idx = (v ^ rk) & 0xff;  v' = T[idx] + (v >> 8)
//
// The natural form issues the indexed load directly (the address pattern
// the cache attacks key on); the CTE form scans all 256 table entries per
// lookup and mask-selects the hit — the textbook constant-time S-box.
// ---------------------------------------------------------------------------

constexpr usize kAesTableWords = 256;

KernelSpec spec_aes(const KernelArgs& args, u64 seed) {
  const usize size = args["size"], rounds = args["rounds"];
  KernelSpec s;
  s.size = size;
  s.buf_words = size;
  Rng rng(seed);
  s.input.reserve(kAesTableWords + rounds + size);
  for (usize j = 0; j < kAesTableWords + rounds + size; ++j)
    s.input.push_back(static_cast<i64>(rng.next_u64()));

  std::vector<u64> b(size);
  for (usize i = 0; i < size; ++i)
    b[i] = static_cast<u64>(s.input[kAesTableWords + rounds + i]);
  for (usize r = 0; r < rounds; ++r) {
    const u64 rk = static_cast<u64>(s.input[kAesTableWords + r]);
    for (usize i = 0; i < size; ++i) {
      const u64 v = b[i];
      const u64 idx = (v ^ rk) & 0xff;
      b[i] = static_cast<u64>(s.input[idx]) + (v >> 8);
    }
  }
  u64 sum = 0;
  for (usize i = 0; i < size; ++i) sum += b[i] ^ static_cast<u64>(i);
  s.expected = sum;

  auto body = [size, rounds](ProgramBuilder& pb, const KernelParams& p,
                             bool cte) {
    const Reg tab = k(0), rkp = k(1), rk = k(2), bptr = k(3), n = k(4),
              v = k(5), x = k(6), t = k(7), rcnt = k(8), sum_r = k(9),
              i = k(10), j = k(11), jn = k(12), acc = k(13), tv = k(14),
              c = k(15), m = k(16), old = k(17);
    const i64 input = static_cast<i64>(p.input);
    pb.li(tab, input);

    // Copy the state words into the private buffer (rkp doubles as the
    // source cursor until the round loop reassigns it).
    pb.li(rkp, input + 8 * static_cast<i64>(kAesTableWords + rounds));
    pb.li(bptr, static_cast<i64>(p.buf));
    pb.li(n, static_cast<i64>(size));
    const Label copy = pb.new_label();
    pb.bind(copy);
    pb.ld(v, rkp, 0);
    if (cte) {
      pb.ld(old, bptr, 0);
      emit_guard_select(pb, old, v, c);
      pb.st(old, bptr, 0);
    } else {
      pb.st(v, bptr, 0);
    }
    pb.addi(rkp, rkp, 8);
    pb.addi(bptr, bptr, 8);
    pb.addi(n, n, -1);
    pb.bne(n, isa::kRegZero, copy);

    pb.li(rcnt, static_cast<i64>(rounds));
    pb.li(rkp, input + 8 * static_cast<i64>(kAesTableWords));
    const Label round = pb.new_label();
    pb.bind(round);
    pb.ld(rk, rkp, 0);
    pb.li(bptr, static_cast<i64>(p.buf));
    pb.li(n, static_cast<i64>(size));
    const Label elem = pb.new_label();
    pb.bind(elem);
    pb.ld(v, bptr, 0);
    pb.xor_(x, v, rk);
    pb.andi(x, x, 0xff);
    if (!cte) {
      pb.slli(x, x, 3);
      pb.add(x, tab, x);
      pb.ld(t, x, 0);  // the table-indexed load under attack
    } else {
      // Oblivious lookup: touch every table line, keep the match.
      pb.li(j, 0);
      pb.li(acc, 0);
      pb.li(jn, static_cast<i64>(kAesTableWords));
      const Label scan = pb.new_label();
      pb.bind(scan);
      pb.slli(t, j, 3);
      pb.add(t, tab, t);
      pb.ld(tv, t, 0);
      pb.seq(c, j, x);
      pb.sub(m, isa::kRegZero, c);
      pb.and_(tv, tv, m);
      pb.or_(acc, acc, tv);
      pb.addi(j, j, 1);
      pb.addi(jn, jn, -1);
      pb.bne(jn, isa::kRegZero, scan);
      pb.mov(t, acc);
    }
    pb.srli(v, v, 8);
    pb.add(v, t, v);
    if (cte) {
      pb.ld(old, bptr, 0);
      emit_guard_select(pb, old, v, c);
      pb.st(old, bptr, 0);
    } else {
      pb.st(v, bptr, 0);
    }
    pb.addi(bptr, bptr, 8);
    pb.addi(n, n, -1);
    pb.bne(n, isa::kRegZero, elem);
    pb.addi(rkp, rkp, 8);
    pb.addi(rcnt, rcnt, -1);
    pb.bne(rcnt, isa::kRegZero, round);

    pb.li(bptr, static_cast<i64>(p.buf));
    pb.li(n, static_cast<i64>(size));
    pb.li(i, 0);
    pb.li(sum_r, 0);
    const Label ck = pb.new_label();
    pb.bind(ck);
    pb.ld(v, bptr, 0);
    pb.xor_(t, v, i);
    pb.add(sum_r, sum_r, t);
    pb.addi(bptr, bptr, 8);
    pb.addi(i, i, 1);
    pb.addi(n, n, -1);
    pb.bne(n, isa::kRegZero, ck);
    emit_out_slot(pb, p, sum_r, tab, old, c, cte);
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
// crypto.modexp: square-and-multiply over `size` bases with a `bits`-bit
// exponent, all mod an odd 31-bit modulus (products stay below 2^62, so
// signed rem agrees with the unsigned host mirror). The natural form takes
// the classic per-bit conditional-multiply branch; the CTE form always
// multiplies and mask-selects, as constant-time RSA implementations do.
// ---------------------------------------------------------------------------

KernelSpec spec_modexp(const KernelArgs& args, u64 seed) {
  const usize size = args["size"], bits = args["bits"];
  KernelSpec s;
  s.size = size;
  Rng rng(seed);
  const u64 modulus = (rng.next_u64() >> 34) | (1ull << 30) | 1;
  const u64 exponent =
      (rng.next_u64() & ((1ull << bits) - 1)) | 1;  // at least one multiply
  s.input.push_back(static_cast<i64>(modulus));
  s.input.push_back(static_cast<i64>(exponent));
  std::vector<u64> bases(size);
  for (auto& v : bases) {
    v = rng.next_u64() % modulus;
    s.input.push_back(static_cast<i64>(v));
  }

  u64 sum = 0;
  for (usize i = 0; i < size; ++i) {
    u64 acc = 1;
    for (usize bi = bits; bi-- > 0;) {
      acc = (acc * acc) % modulus;
      if ((exponent >> bi) & 1) acc = (acc * bases[i]) % modulus;
    }
    sum += acc ^ static_cast<u64>(i);
  }
  s.expected = sum;

  auto body = [size, bits](ProgramBuilder& pb, const KernelParams& p,
                           bool cte) {
    const Reg mreg = k(0), e = k(1), bptr = k(2), nb = k(3), b = k(4),
              acc = k(5), bi = k(6), t = k(7), c = k(8), sum_r = k(9),
              i = k(10), m2 = k(11), mn = k(12), old = k(13), scr = k(14);
    pb.li(t, static_cast<i64>(p.input));
    pb.ld(mreg, t, 0);
    pb.ld(e, t, 8);
    pb.addi(bptr, t, 16);
    pb.li(nb, static_cast<i64>(size));
    pb.li(sum_r, 0);
    pb.li(i, 0);
    const Label base_top = pb.new_label();
    pb.bind(base_top);
    pb.ld(b, bptr, 0);
    pb.li(acc, 1);
    pb.li(bi, static_cast<i64>(bits));
    const Label bit_top = pb.new_label();
    pb.bind(bit_top);
    pb.mul(acc, acc, acc);  // always square
    pb.rem(acc, acc, mreg);
    pb.addi(t, bi, -1);
    pb.srl(c, e, t);
    pb.andi(c, c, 1);
    if (!cte) {
      const Label skip = pb.new_label();
      pb.beq(c, isa::kRegZero, skip);  // the exponent-bit branch under attack
      pb.mul(acc, acc, b);
      pb.rem(acc, acc, mreg);
      pb.bind(skip);
    } else {
      pb.mul(t, acc, b);  // always multiply, select by the bit mask
      pb.rem(t, t, mreg);
      pb.sub(m2, isa::kRegZero, c);
      pb.xori(mn, m2, -1);
      pb.and_(t, t, m2);
      pb.and_(acc, acc, mn);
      pb.or_(acc, acc, t);
    }
    pb.addi(bi, bi, -1);
    pb.bne(bi, isa::kRegZero, bit_top);
    pb.xor_(t, acc, i);
    pb.add(sum_r, sum_r, t);
    pb.addi(bptr, bptr, 8);
    pb.addi(i, i, 1);
    pb.addi(nb, nb, -1);
    pb.bne(nb, isa::kRegZero, base_top);
    emit_out_slot(pb, p, sum_r, m2, old, scr, cte);
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
// ds.hash_probe: open-addressing (linear-probing) hash-table lookups. The
// input image holds a `slots`-entry table filled to `fill` per mille plus
// `size` probe keys (a mix of present and absent). The natural form walks
// each probe chain until it hits the key or an empty slot — chain length
// and the visited lines are data-dependent. The CTE form always scans the
// worst-case `slots` window and mask-selects the first terminator.
// ---------------------------------------------------------------------------

constexpr u64 kHashMul = 0x9e3779b97f4a7c15ull;  // Fibonacci hashing constant

usize host_hash(u64 key, usize slots) {
  return static_cast<usize>(((key * kHashMul) >> 32) &
                            static_cast<u64>(slots - 1));
}

/// The probe contribution both forms and the host mirror agree on:
/// found after s extra steps at slot idx -> idx + (s<<8) + 1; terminated
/// at an empty slot -> (s<<8) + (key & 254).
u64 host_probe(const std::vector<u64>& tab, usize slots, u64 key) {
  usize idx = host_hash(key, slots);
  u64 s = 0;
  for (;;) {
    const u64 v = tab[idx];
    if (v == key) return static_cast<u64>(idx) + (s << 8) + 1;
    if (v == 0) return (s << 8) + (key & 254);
    idx = (idx + 1) & (slots - 1);
    ++s;
  }
}

KernelSpec spec_hash_probe(const KernelArgs& args, u64 seed) {
  const usize size = args["size"], slots = args["slots"], fill = args["fill"];
  KernelSpec s;
  s.size = size;
  Rng rng(seed);

  // Build the table host-side; keys are nonzero (0 marks an empty slot)
  // and at least one slot stays empty so every natural probe terminates.
  std::vector<u64> tab(slots, 0);
  const usize n_ins =
      std::min(slots * fill / 1000, slots - 1);
  std::vector<u64> inserted;
  inserted.reserve(n_ins);
  for (usize i = 0; i < n_ins; ++i) {
    const u64 key = (rng.next_u64() >> 16) | 1;
    usize idx = host_hash(key, slots);
    while (tab[idx] != 0) idx = (idx + 1) & (slots - 1);
    tab[idx] = key;
    inserted.push_back(key);
  }
  std::vector<u64> probes(size);
  for (auto& key : probes) {
    key = (!inserted.empty() && rng.next_bool())
              ? inserted[rng.next_below(inserted.size())]
              : ((rng.next_u64() >> 16) | 1);
  }

  s.input.reserve(slots + size);
  for (const u64 v : tab) s.input.push_back(static_cast<i64>(v));
  for (const u64 v : probes) s.input.push_back(static_cast<i64>(v));

  u64 sum = 0;
  for (const u64 key : probes) sum += host_probe(tab, slots, key);
  s.expected = sum;

  const i64 mask = static_cast<i64>(slots - 1);
  s.emit = [size, slots, mask](ProgramBuilder& pb, const KernelParams& p) {
    const Reg tabb = k(0), pptr = k(1), np = k(2), kreg = k(3), idx = k(4),
              st = k(5), v = k(6), t = k(7), sum_r = k(8), slot = k(9),
              old = k(10), scr = k(11);
    pb.li(tabb, static_cast<i64>(p.input));
    pb.li(pptr, static_cast<i64>(p.input) + 8 * static_cast<i64>(slots));
    pb.li(np, static_cast<i64>(size));
    pb.li(sum_r, 0);
    const Label probe_top = pb.new_label();
    pb.bind(probe_top);
    pb.ld(kreg, pptr, 0);
    pb.li64(t, static_cast<i64>(kHashMul));
    pb.mul(t, kreg, t);
    pb.srli(t, t, 32);
    pb.andi(idx, t, mask);
    pb.li(st, 0);
    const Label chain = pb.new_label();
    const Label found = pb.new_label();
    const Label miss = pb.new_label();
    const Label next = pb.new_label();
    pb.bind(chain);
    pb.slli(t, idx, 3);
    pb.add(t, tabb, t);
    pb.ld(v, t, 0);  // chain-walk load: address trace is data-dependent
    pb.beq(v, kreg, found);
    pb.beq(v, isa::kRegZero, miss);
    pb.addi(idx, idx, 1);
    pb.andi(idx, idx, mask);
    pb.addi(st, st, 1);
    pb.jmp(chain);
    pb.bind(found);
    pb.slli(t, st, 8);
    pb.add(t, t, idx);
    pb.addi(t, t, 1);
    pb.add(sum_r, sum_r, t);
    pb.jmp(next);
    pb.bind(miss);
    pb.slli(t, st, 8);
    pb.andi(v, kreg, 254);
    pb.add(t, t, v);
    pb.add(sum_r, sum_r, t);
    pb.bind(next);
    pb.addi(pptr, pptr, 8);
    pb.addi(np, np, -1);
    pb.bne(np, isa::kRegZero, probe_top);
    emit_out_slot(pb, p, sum_r, slot, old, scr, /*cte=*/false);
  };
  s.emit_cte = [size, slots, mask](ProgramBuilder& pb,
                                   const KernelParams& p) {
    const Reg tabb = k(0), pptr = k(1), np = k(2), kreg = k(3), idx0 = k(4),
              j = k(5), v = k(6), t = k(7), sum_r = k(8), cnt = k(9),
              db = k(10), res = k(11), eqb = k(12), empb = k(13),
              fire = k(14), val = k(15), t2 = k(16), idx = k(17);
    pb.li(tabb, static_cast<i64>(p.input));
    pb.li(pptr, static_cast<i64>(p.input) + 8 * static_cast<i64>(slots));
    pb.li(np, static_cast<i64>(size));
    pb.li(sum_r, 0);
    const Label probe_top = pb.new_label();
    pb.bind(probe_top);
    pb.ld(kreg, pptr, 0);
    pb.li64(t2, static_cast<i64>(kHashMul));
    pb.mul(t, kreg, t2);
    pb.srli(t, t, 32);
    pb.andi(idx0, t, mask);
    pb.li(db, 0);
    pb.li(res, 0);
    pb.li(j, 0);
    pb.li(cnt, static_cast<i64>(slots));
    const Label scan = pb.new_label();
    pb.bind(scan);
    pb.add(idx, idx0, j);
    pb.andi(idx, idx, mask);
    pb.slli(t, idx, 3);
    pb.add(t, tabb, t);
    pb.ld(v, t, 0);  // the full worst-case window is always touched
    pb.seq(eqb, v, kreg);
    pb.seq(empb, v, isa::kRegZero);
    pb.or_(t, eqb, empb);  // terminator at this slot
    pb.xori(t2, db, 1);
    pb.and_(fire, t, t2);  // first terminator not yet consumed
    pb.or_(db, db, t);
    pb.slli(t, j, 8);      // miss value: (j<<8) + (key & 254)
    pb.andi(t2, kreg, 254);
    pb.add(val, t, t2);
    pb.add(t2, t, idx);    // found value: (j<<8) + idx + 1
    pb.addi(t2, t2, 1);
    pb.sub(t, isa::kRegZero, eqb);
    pb.and_(t2, t2, t);
    pb.xori(t, t, -1);
    pb.and_(val, val, t);
    pb.or_(val, val, t2);
    pb.sub(t, isa::kRegZero, fire);
    pb.and_(val, val, t);
    pb.add(res, res, val);
    pb.addi(j, j, 1);
    pb.addi(cnt, cnt, -1);
    pb.bne(cnt, isa::kRegZero, scan);
    pb.add(sum_r, sum_r, res);
    pb.addi(pptr, pptr, 8);
    pb.addi(np, np, -1);
    pb.bne(np, isa::kRegZero, probe_top);
    emit_out_slot(pb, p, sum_r, idx0, db, res, /*cte=*/true);
  };
  return s;
}

KernelKey scenario_size(u64 fallback, const char* help) {
  return size_key(fallback, 1, 4096, help);
}

}  // namespace

const std::vector<HarnessedRow>& scenario_rows() {
  static const std::vector<HarnessedRow> rows = {
      {"crypto.aes",
       "S-box/T-table cipher round passes, the cache-channel victim; CTE "
       "scans the whole table",
       {scenario_size(8, "state words per round pass"),
        {"rounds", 2, 1, 16, "T-table round passes"}},
       spec_aes},
      {"crypto.modexp",
       "square-and-multiply modular exponentiation, the fetch/timing-channel "
       "victim",
       {scenario_size(16, "bases exponentiated"),
        {"bits", 16, 1, 63, "exponent bits per base"}},
       spec_modexp},
      {"ds.hash_probe",
       "open-addressing hash-table probing with data-dependent chain lengths",
       {scenario_size(16, "probe lookups"),
        {.name = "slots", .fallback = 64, .min = 8, .max = 4096,
         .help = "table slots (power of two)", .rule = KeyRule::kPowerOfTwo},
        {"fill", 750, 0, 900, "occupancy in per mille"}},
       spec_hash_probe},
  };
  return rows;
}

}  // namespace sempe::workloads
