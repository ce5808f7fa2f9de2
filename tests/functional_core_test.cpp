#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cpu/functional_core.h"
#include "isa/program_builder.h"

namespace sempe {
namespace {

using cpu::CoreConfig;
using cpu::ExecMode;
using cpu::FunctionalCore;
using isa::Opcode;
using isa::ProgramBuilder;

/// Build, run to halt in legacy mode, return final core for inspection.
struct Ran {
  isa::Program program;
  mem::MainMemory memory;
  std::unique_ptr<FunctionalCore> core;
};

std::unique_ptr<Ran> run_prog(ProgramBuilder& pb,
                              ExecMode mode = ExecMode::kLegacy) {
  auto r = std::make_unique<Ran>();
  r->program = pb.build();
  CoreConfig cfg;
  cfg.mode = mode;
  r->core = std::make_unique<FunctionalCore>(&r->program, &r->memory, cfg);
  r->core->run_to_halt();
  return r;
}

TEST(Alu, BasicArithmetic) {
  ProgramBuilder pb;
  pb.li(1, 20);
  pb.li(2, 7);
  pb.add(3, 1, 2);
  pb.sub(4, 1, 2);
  pb.mul(5, 1, 2);
  pb.div(6, 1, 2);
  pb.rem(7, 1, 2);
  pb.halt();
  auto r = run_prog(pb);
  EXPECT_EQ(r->core->state().get_int(3), 27);
  EXPECT_EQ(r->core->state().get_int(4), 13);
  EXPECT_EQ(r->core->state().get_int(5), 140);
  EXPECT_EQ(r->core->state().get_int(6), 2);
  EXPECT_EQ(r->core->state().get_int(7), 6);
}

TEST(Alu, DivisionByZeroIsDefined) {
  ProgramBuilder pb;
  pb.li(1, 42);
  pb.li(2, 0);
  pb.div(3, 1, 2);
  pb.rem(4, 1, 2);
  pb.halt();
  auto r = run_prog(pb);
  EXPECT_EQ(r->core->state().get_int(3), -1);  // RISC-V-style defined result
  EXPECT_EQ(r->core->state().get_int(4), 42);
}

TEST(Alu, DivisionOverflowIsDefined) {
  ProgramBuilder pb;
  pb.li64(1, INT64_MIN);
  pb.li(2, -1);
  pb.div(3, 1, 2);
  pb.rem(4, 1, 2);
  pb.halt();
  auto r = run_prog(pb);
  EXPECT_EQ(r->core->state().get_int(3), INT64_MIN);
  EXPECT_EQ(r->core->state().get_int(4), 0);
}

TEST(Alu, ShiftsAndLogic) {
  ProgramBuilder pb;
  pb.li(1, -8);
  pb.slli(2, 1, 2);   // -32
  pb.srai(3, 1, 1);   // -4
  pb.srli(4, 1, 60);  // high bits of two's complement
  pb.andi(5, 1, 0xf);
  pb.ori(6, 1, 1);
  pb.xori(7, 1, -1);  // ~(-8) = 7
  pb.halt();
  auto r = run_prog(pb);
  EXPECT_EQ(r->core->state().get_int(2), -32);
  EXPECT_EQ(r->core->state().get_int(3), -4);
  EXPECT_EQ(r->core->state().get_int(4), 15);
  EXPECT_EQ(r->core->state().get_int(5), 8);
  EXPECT_EQ(r->core->state().get_int(6), -7);
  EXPECT_EQ(r->core->state().get_int(7), 7);
}

TEST(Alu, Comparisons) {
  ProgramBuilder pb;
  pb.li(1, -1);
  pb.li(2, 1);
  pb.slt(3, 1, 2);   // signed: -1 < 1 -> 1
  pb.sltu(4, 1, 2);  // unsigned: huge < 1 -> 0
  pb.seq(5, 1, 1);
  pb.sne(6, 1, 2);
  pb.slti(7, 1, 0);
  pb.halt();
  auto r = run_prog(pb);
  EXPECT_EQ(r->core->state().get_int(3), 1);
  EXPECT_EQ(r->core->state().get_int(4), 0);
  EXPECT_EQ(r->core->state().get_int(5), 1);
  EXPECT_EQ(r->core->state().get_int(6), 1);
  EXPECT_EQ(r->core->state().get_int(7), 1);
}

TEST(Alu, RegisterZeroIsHardwired) {
  ProgramBuilder pb;
  pb.li(isa::kRegZero, 77);  // write discarded
  pb.add(1, isa::kRegZero, isa::kRegZero);
  pb.halt();
  auto r = run_prog(pb);
  EXPECT_EQ(r->core->state().get_int(1), 0);
}

TEST(Cmov, SelectsOnCondition) {
  ProgramBuilder pb;
  pb.li(1, 111);  // dest
  pb.li(2, 0);    // cond false
  pb.li(3, 222);  // source
  pb.cmov(1, 2, 3);
  pb.li(4, 333);
  pb.li(5, 1);  // cond true
  pb.cmov(4, 5, 3);
  pb.halt();
  auto r = run_prog(pb);
  EXPECT_EQ(r->core->state().get_int(1), 111);
  EXPECT_EQ(r->core->state().get_int(4), 222);
}

TEST(Fp, ArithmeticAndConversion) {
  ProgramBuilder pb;
  pb.li(1, 3);
  pb.li(2, 4);
  pb.i2f(isa::fp_reg(0), 1);
  pb.i2f(isa::fp_reg(1), 2);
  pb.fadd(isa::fp_reg(2), isa::fp_reg(0), isa::fp_reg(1));
  pb.fmul(isa::fp_reg(3), isa::fp_reg(2), isa::fp_reg(1));
  pb.fdiv(isa::fp_reg(4), isa::fp_reg(0), isa::fp_reg(1));
  pb.f2i(3, isa::fp_reg(3));
  pb.halt();
  auto r = run_prog(pb);
  EXPECT_DOUBLE_EQ(r->core->state().get_fp(isa::fp_reg(2)), 7.0);
  EXPECT_EQ(r->core->state().get_int(3), 28);
  EXPECT_DOUBLE_EQ(r->core->state().get_fp(isa::fp_reg(4)), 0.75);
}

TEST(Memory, LoadStoreSizes) {
  ProgramBuilder pb;
  const Addr buf = pb.alloc(64, 8);
  pb.li(1, static_cast<i64>(buf));
  pb.li64(2, static_cast<i64>(0x1122334455667788ull));
  pb.st(2, 1, 0);
  pb.ld(3, 1, 0);
  pb.lw(4, 1, 0);   // 0x55667788 sign-extended (positive)
  pb.lbu(5, 1, 7);  // high byte 0x11
  pb.li(6, -1);
  pb.sw(6, 1, 16);
  pb.lw(7, 1, 16);  // sign-extended -1
  pb.ld(8, 1, 16);  // only low 4 bytes written
  pb.sb(6, 1, 32);
  pb.lbu(9, 1, 32);
  pb.halt();
  auto r = run_prog(pb);
  EXPECT_EQ(r->core->state().get_int(3), 0x1122334455667788ll);
  EXPECT_EQ(r->core->state().get_int(4), 0x55667788ll);
  EXPECT_EQ(r->core->state().get_int(5), 0x11);
  EXPECT_EQ(r->core->state().get_int(7), -1);
  EXPECT_EQ(r->core->state().get_int(8), 0xffffffffll);
  EXPECT_EQ(r->core->state().get_int(9), 0xff);
}

TEST(Memory, DataSegmentsLoadedAtStartup) {
  ProgramBuilder pb;
  const Addr arr = pb.alloc_words({10, 20, 30});
  pb.li(1, static_cast<i64>(arr));
  pb.ld(2, 1, 8);
  pb.halt();
  auto r = run_prog(pb);
  EXPECT_EQ(r->core->state().get_int(2), 20);
}

TEST(Control, BranchesAndLoops) {
  // Sum 1..10 with a loop.
  ProgramBuilder pb;
  pb.li(1, 0);   // sum
  pb.li(2, 10);  // i
  auto top = pb.new_label();
  pb.bind(top);
  pb.add(1, 1, 2);
  pb.addi(2, 2, -1);
  pb.bne(2, isa::kRegZero, top);
  pb.halt();
  auto r = run_prog(pb);
  EXPECT_EQ(r->core->state().get_int(1), 55);
}

TEST(Control, JalAndJalr) {
  // call a "function" that doubles x4 (x1 is ra and must stay the link).
  ProgramBuilder pb;
  auto fn = pb.new_label();
  auto after = pb.new_label();
  pb.li(4, 21);
  pb.jal(isa::kRegRa, fn);
  pb.jmp(after);
  pb.bind(fn);
  pb.add(4, 4, 4);
  pb.ret();
  pb.bind(after);
  pb.halt();
  auto r = run_prog(pb);
  EXPECT_EQ(r->core->state().get_int(4), 42);
}

TEST(Control, AllBranchPredicates) {
  // For each predicate, compute taken/not-taken into separate registers.
  ProgramBuilder pb;
  auto emit = [&pb](Opcode op, isa::Reg out, i64 a, i64 b) {
    pb.li(10, a);
    pb.li(11, b);
    pb.li(out, 0);
    auto t = pb.new_label();
    isa::Instruction br{.op = op, .rs1 = 10, .rs2 = 11};
    // route through builder fixups via explicit helpers
    switch (op) {
      case Opcode::kBeq: pb.beq(10, 11, t); break;
      case Opcode::kBne: pb.bne(10, 11, t); break;
      case Opcode::kBlt: pb.blt(10, 11, t); break;
      case Opcode::kBge: pb.bge(10, 11, t); break;
      case Opcode::kBltu: pb.bltu(10, 11, t); break;
      case Opcode::kBgeu: pb.bgeu(10, 11, t); break;
      default: FAIL();
    }
    auto end = pb.new_label();
    pb.jmp(end);
    pb.bind(t);
    pb.li(out, 1);
    pb.bind(end);
    (void)br;
  };
  emit(Opcode::kBeq, 20, 5, 5);
  emit(Opcode::kBne, 21, 5, 5);
  emit(Opcode::kBlt, 22, -3, 2);
  emit(Opcode::kBge, 23, -3, 2);
  emit(Opcode::kBltu, 24, -3, 2);  // unsigned: huge vs 2 -> not less
  emit(Opcode::kBgeu, 25, -3, 2);
  pb.halt();
  auto r = run_prog(pb);
  EXPECT_EQ(r->core->state().get_int(20), 1);
  EXPECT_EQ(r->core->state().get_int(21), 0);
  EXPECT_EQ(r->core->state().get_int(22), 1);
  EXPECT_EQ(r->core->state().get_int(23), 0);
  EXPECT_EQ(r->core->state().get_int(24), 0);
  EXPECT_EQ(r->core->state().get_int(25), 1);
}

TEST(Core, HaltStopsExecution) {
  ProgramBuilder pb;
  pb.li(1, 1);
  pb.halt();
  auto r = run_prog(pb);
  EXPECT_TRUE(r->core->halted());
  EXPECT_EQ(r->core->instructions_executed(), 2u);
  EXPECT_THROW(r->core->step(), SimError);
}

/// `pb`'s program with its last instruction word replaced by `word`.
isa::Program with_last_word(ProgramBuilder& pb, u64 word) {
  const isa::Program p = pb.build();
  std::vector<u64> code = p.code();
  code.back() = word;
  return isa::Program(p.code_base(), code, p.data());
}

TEST(Core, UndecodableWordFaultsOnlyWhenFetched) {
  const u64 bad = 0xff;  // opcode byte past the last opcode
  std::string decode_error;
  try {
    isa::decode(bad);
  } catch (const SimError& e) {
    decode_error = e.what();
  }
  ASSERT_FALSE(decode_error.empty());

  // Placed after HALT, the word is never fetched: the run is clean.
  ProgramBuilder clean;
  clean.li(1, 5);
  clean.halt();
  clean.nop();
  const isa::Program after_halt = with_last_word(clean, bad);
  mem::MainMemory m1;
  FunctionalCore c1(&after_halt, &m1, {});
  EXPECT_EQ(c1.run_to_halt(), 2u);
  EXPECT_EQ(c1.state().get_int(1), 5);

  // Jumped to, it raises decode()'s SimError at the step that fetches it.
  ProgramBuilder jump;
  auto target = jump.new_label();
  jump.li(1, 5);
  jump.beq(1, 1, target);
  jump.halt();
  jump.bind(target);
  jump.nop();
  const isa::Program jumped = with_last_word(jump, bad);
  mem::MainMemory m2;
  FunctionalCore c2(&jumped, &m2, {});
  c2.step();  // li
  c2.step();  // beq, taken
  try {
    c2.step();
    ADD_FAILURE() << "fetching the undecodable word did not throw";
  } catch (const SimError& e) {
    EXPECT_EQ(std::string(e.what()), decode_error);
  }
  EXPECT_EQ(c2.instructions_executed(), 2u);
}

TEST(Core, RunawayGuard) {
  ProgramBuilder pb;
  auto top = pb.new_label();
  pb.bind(top);
  pb.jmp(top);  // infinite loop
  auto prog = pb.build();
  mem::MainMemory memory;
  CoreConfig cfg;
  cfg.max_instructions = 1000;
  FunctionalCore core(&prog, &memory, cfg);
  EXPECT_THROW(core.run_to_halt(), SimError);
}

TEST(Core, DynOpRecordsMemoryAndBranchInfo) {
  ProgramBuilder pb;
  const Addr buf = pb.alloc(8, 8);
  pb.li(1, static_cast<i64>(buf));
  pb.st(1, 1, 0);
  pb.ld(2, 1, 0);
  auto l = pb.new_label();
  pb.beq(1, 1, l);
  pb.bind(l);
  pb.halt();
  auto prog = pb.build();
  mem::MainMemory memory;
  FunctionalCore core(&prog, &memory, {});
  core.step();  // li
  auto st = core.step();
  EXPECT_TRUE(st.is_mem);
  EXPECT_TRUE(st.is_store);
  EXPECT_EQ(st.mem_addr, buf);
  auto ld = core.step();
  EXPECT_TRUE(ld.is_mem);
  EXPECT_FALSE(ld.is_store);
  auto br = core.step();
  EXPECT_TRUE(br.is_cond_branch);
  EXPECT_TRUE(br.branch_taken);
  EXPECT_EQ(br.next_pc, br.branch_target);
}

}  // namespace
}  // namespace sempe
