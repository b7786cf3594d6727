//===- tests/test_ir.cpp - IR construction, printing, parsing --------------===//

#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace vsc;

TEST(Reg, Basics) {
  EXPECT_TRUE(Reg::gpr(5).isGpr());
  EXPECT_TRUE(Reg::gpr(5).isPhysical());
  EXPECT_TRUE(Reg::gpr(40).isVirtual());
  EXPECT_TRUE(Reg::cr(0).isPhysical());
  EXPECT_TRUE(Reg::cr(9).isVirtual());
  EXPECT_TRUE(Reg::gpr(13).isCalleeSaved());
  EXPECT_TRUE(Reg::gpr(31).isCalleeSaved());
  EXPECT_FALSE(Reg::gpr(12).isCalleeSaved());
  EXPECT_FALSE(Reg::gpr(32).isCalleeSaved());
  EXPECT_EQ(Reg::gpr(7).str(), "r7");
  EXPECT_EQ(Reg::cr(2).str(), "cr2");
  EXPECT_EQ(Reg::ctr().str(), "ctr");
  EXPECT_EQ(regs::sp(), Reg::gpr(1));
  EXPECT_EQ(regs::toc(), Reg::gpr(2));
  EXPECT_EQ(regs::arg(0), Reg::gpr(3));
}

TEST(Instr, UsesAndDefs) {
  Instr I;
  I.Op = Opcode::A;
  I.Dst = Reg::gpr(40);
  I.Src1 = Reg::gpr(41);
  I.Src2 = Reg::gpr(42);
  std::vector<Reg> Uses, Defs;
  I.collectUses(Uses);
  I.collectDefs(Defs);
  ASSERT_EQ(Uses.size(), 2u);
  ASSERT_EQ(Defs.size(), 1u);
  EXPECT_EQ(Defs[0], Reg::gpr(40));
}

TEST(Instr, CallClobbers) {
  Instr I;
  I.Op = Opcode::CALL;
  I.Sym = "f";
  I.Imm = 2;
  std::vector<Reg> Uses, Defs;
  I.collectUses(Uses);
  I.collectDefs(Defs);
  // Uses r3, r4 (args), sp, toc.
  EXPECT_NE(std::find(Uses.begin(), Uses.end(), Reg::gpr(3)), Uses.end());
  EXPECT_NE(std::find(Uses.begin(), Uses.end(), Reg::gpr(4)), Uses.end());
  EXPECT_EQ(std::find(Uses.begin(), Uses.end(), Reg::gpr(5)), Uses.end());
  // Clobbers r0, r3..r12, cr0..7, ctr but not callee-saved r13+.
  EXPECT_NE(std::find(Defs.begin(), Defs.end(), Reg::gpr(12)), Defs.end());
  EXPECT_EQ(std::find(Defs.begin(), Defs.end(), Reg::gpr(13)), Defs.end());
  EXPECT_NE(std::find(Defs.begin(), Defs.end(), Reg::cr(7)), Defs.end());
}

TEST(Instr, SpeculationSafety) {
  Instr Add;
  Add.Op = Opcode::AI;
  Add.Dst = Reg::gpr(40);
  Add.Src1 = Reg::gpr(41);
  EXPECT_TRUE(Add.isSafeToSpeculate());

  Instr Div;
  Div.Op = Opcode::DIV;
  EXPECT_FALSE(Div.isSafeToSpeculate());

  Instr Load;
  Load.Op = Opcode::L;
  Load.Dst = Reg::gpr(40);
  Load.Src1 = Reg::gpr(41);
  EXPECT_FALSE(Load.isSafeToSpeculate()) << "loads need the safety proof";

  Instr Store;
  Store.Op = Opcode::ST;
  EXPECT_FALSE(Store.isSafeToSpeculate());
  EXPECT_TRUE(Store.hasSideEffects());
}

TEST(IRBuilder, BuildsAndVerifies) {
  Module M;
  Function *F = M.addFunction("f", 1);
  IRBuilder B(*F);
  B.startBlock("entry");
  Reg T = F->freshGpr();
  B.ai(T, regs::arg(0), 5);
  B.lr(regs::retval(), T);
  B.ret();
  EXPECT_EQ(verifyModule(M), "");
  EXPECT_EQ(F->instrCount(), 3u);
}

TEST(Verifier, CatchesBadBranchTarget) {
  Module M;
  Function *F = M.addFunction("f", 0);
  IRBuilder B(*F);
  B.startBlock("entry");
  B.b("nowhere");
  std::string E = verifyFunction(*F);
  EXPECT_NE(E.find("unresolved branch target"), std::string::npos) << E;
}

TEST(Verifier, CatchesFallOffEnd) {
  Module M;
  Function *F = M.addFunction("f", 0);
  IRBuilder B(*F);
  B.startBlock("entry");
  B.li(Reg::gpr(40), 1);
  std::string E = verifyFunction(*F);
  EXPECT_NE(E.find("falls off the end"), std::string::npos) << E;
}

TEST(Verifier, CatchesMidBlockBranch) {
  Module M;
  Function *F = M.addFunction("f", 0);
  IRBuilder B(*F);
  B.startBlock("entry");
  B.b("exit");
  B.li(Reg::gpr(40), 1); // dead instruction after a barrier
  B.startBlock("exit");
  B.ret();
  std::string E = verifyFunction(*F);
  EXPECT_NE(E.find("middle of a block"), std::string::npos) << E;
}

TEST(Verifier, CatchesCompareToGpr) {
  Module M;
  Function *F = M.addFunction("f", 0);
  IRBuilder B(*F);
  B.startBlock("entry");
  Instr I;
  I.Op = Opcode::C;
  I.Dst = Reg::gpr(40); // wrong class
  I.Src1 = Reg::gpr(41);
  I.Src2 = Reg::gpr(42);
  B.emit(std::move(I));
  B.ret();
  std::string E = verifyFunction(*F);
  EXPECT_NE(E.find("condition register"), std::string::npos) << E;
}

static std::string roundTrip(const std::string &Text) {
  std::string Err;
  auto M = parseModule(Text, &Err);
  EXPECT_TRUE(M) << Err;
  if (!M)
    return "";
  return printModule(*M);
}

TEST(Parser, RoundTripsRepresentativeProgram) {
  const char *Text = R"(global a : 16 = [1 2 3 4] volatile
global b : 8

func f(2) {
entry:
  LTOC r32 = .a
  L r33 = 12(r32) !a
  L r34 = 0(r32):2 !a !volatile
  LU r35 = 2(r33)
  AI r33 = r33, 1
  ST 12(r32) !a = r33
  C cr0 = r33, r4
  BT L1, cr0.eq
mid:
  CI cr8 = r33, 0
  BF L2, cr8.lt
L1:
  LI r3 = 0
  MTCTR r3
  BCT L1
L2:
  A r5 = r3, r4
  S r5 = r5, r4
  MUL r5 = r5, r4
  DIV r5 = r5, r4
  AND r5 = r5, r4
  OR r5 = r5, r4
  XOR r5 = r5, r4
  SL r5 = r5, r4
  SR r5 = r5, r4
  SRA r5 = r5, r4
  SI r5 = r5, 3
  MULI r5 = r5, 3
  ANDI r5 = r5, 3
  ORI r5 = r5, 3
  XORI r5 = r5, 3
  SLI r5 = r5, 3
  SRI r5 = r5, 3
  SRAI r5 = r5, 3
  NEG r5 = r5
  LA r5 = r5, 8
  LR r3 = r5
  CALL g, 1
  RET
}

func g(1) {
entry:
  L r32 = 0(r3) !safe
  RET
}
)";
  std::string Once = roundTrip(Text);
  ASSERT_FALSE(Once.empty());
  std::string Twice = roundTrip(Once);
  EXPECT_EQ(Once, Twice);

  // Verify the parsed module too.
  std::string Err;
  auto M = parseModule(Text, &Err);
  ASSERT_TRUE(M) << Err;
  EXPECT_EQ(verifyModule(*M), "");
}

TEST(Parser, ReportsErrors) {
  std::string Err;
  EXPECT_EQ(parseModule("func f(0) {\n  BOGUS r1 = r2\n}\n", &Err), nullptr);
  EXPECT_NE(Err.find("unknown mnemonic"), std::string::npos) << Err;

  EXPECT_EQ(parseModule("LI r1 = 0\n", &Err), nullptr);
  EXPECT_NE(Err.find("outside a function"), std::string::npos) << Err;

  EXPECT_EQ(parseModule("func f(0) {\n  LI r1 = 0\n", &Err), nullptr);
  EXPECT_NE(Err.find("unterminated"), std::string::npos) << Err;

  // A register number is decimal digits only, below Reg::IdLimit.
  for (const char *Bad :
       {"  LI r3000000000 = 6", "  LI r99999999999 = 6", "  LI r1073741824 = 6",
        "  LI r32x = 6", "  BT done, crfoo.eq"}) {
    std::string Text =
        std::string("func f(0) {\nentry:\n") + Bad + "\ndone:\n  RET\n}\n";
    EXPECT_EQ(parseModule(Text, &Err), nullptr) << Bad;
    EXPECT_NE(Err.find("line 3: "), std::string::npos) << Bad << ": " << Err;
  }
  EXPECT_NE(parseModule("func f(0) {\nentry:\n  LI r1073741823 = 6\n  RET\n}\n",
                        &Err),
            nullptr)
      << Err;
}

TEST(Parser, PreservesAnnotations) {
  std::string Err;
  auto M = parseModule(
      "func f(0) {\nentry:\n  L r32 = 4(r3) !tab !safe\n  RET\n}\n", &Err);
  ASSERT_TRUE(M) << Err;
  const Instr &I = M->findFunction("f")->entry()->instrs()[0];
  EXPECT_EQ(I.Sym, "tab");
  EXPECT_TRUE(I.SpecSafe);
  EXPECT_FALSE(I.IsVolatile);
}

TEST(Function, FreshRegsDontCollide) {
  std::string Err;
  auto M = parseModule("func f(0) {\nentry:\n  LI r50 = 1\n  CI cr9 = r50, 0\n  RET\n}\n",
                       &Err);
  ASSERT_TRUE(M) << Err;
  Function *F = M->findFunction("f");
  EXPECT_GE(F->freshGpr().id(), 51u);
  EXPECT_GE(F->freshCr().id(), 10u);
}

TEST(Function, BlockEditing) {
  Module M;
  Function *F = M.addFunction("f", 0);
  IRBuilder B(*F);
  B.startBlock("entry");
  B.b("exit");
  B.startBlock("mid");
  B.b("exit");
  B.startBlock("exit");
  B.ret();
  EXPECT_EQ(F->indexOf(F->findBlock("mid")), 1u);
  F->moveBlock(1, 2);
  EXPECT_EQ(F->indexOf(F->findBlock("mid")), 2u);
  BasicBlock *New = F->insertBlock(1, "fresh");
  EXPECT_EQ(F->indexOf(New), 1u);
  EXPECT_EQ(F->size(), 4u);
  std::string NewLabel = New->label(); // eraseBlock destroys *New
  F->eraseBlock(1);
  EXPECT_EQ(F->size(), 3u);
  EXPECT_EQ(F->findBlock(NewLabel), nullptr);
}
