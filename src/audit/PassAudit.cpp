//===- audit/PassAudit.cpp - Pass-boundary audit harness --------------------===//

#include "audit/PassAudit.h"

#include "audit/Checkers.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

#include <algorithm>

using namespace vsc;

std::unique_ptr<Function> vsc::cloneFunction(const Function &F) {
  auto C = std::make_unique<Function>(F.name(), F.numArgs());
  for (const auto &BB : F.blocks()) {
    BasicBlock *NB = C->addBlock(BB->label());
    NB->instrs() = BB->instrs(); // ids copied verbatim
  }
  return C;
}

std::unique_ptr<Module> vsc::cloneModule(const Module &M) {
  auto C = std::make_unique<Module>();
  for (const Global &G : M.globals()) {
    Global &NG = C->addGlobal(G.Name, G.Size);
    NG.Init = G.Init;
    NG.IsVolatile = G.IsVolatile;
  }
  for (const auto &F : M.functions()) {
    Function *NF = C->addFunction(F->name(), F->numArgs());
    for (const auto &BB : F->blocks()) {
      BasicBlock *NB = NF->addBlock(BB->label());
      NB->instrs() = BB->instrs();
      for (const Instr &I : NB->instrs()) {
        NF->reserveRegsFrom(I);
        NF->reserveIdFrom(I);
      }
    }
  }
  return C;
}

namespace {

std::vector<std::string> splitLines(const std::string &S) {
  std::vector<std::string> Lines;
  size_t Pos = 0;
  while (Pos <= S.size()) {
    size_t Nl = S.find('\n', Pos);
    if (Nl == std::string::npos) {
      if (Pos < S.size())
        Lines.push_back(S.substr(Pos));
      break;
    }
    Lines.push_back(S.substr(Pos, Nl - Pos));
    Pos = Nl + 1;
  }
  return Lines;
}

/// Minimal LCS-based line diff ("-" removed, "+" added, "  " common). Falls
/// back to dumping both texts when the DP table would be excessive.
std::string lineDiff(const std::string &BeforeText,
                     const std::string &AfterText) {
  std::vector<std::string> A = splitLines(BeforeText);
  std::vector<std::string> B = splitLines(AfterText);
  size_t N = A.size(), M = B.size();
  if (N * M > 250000)
    return "--- before ---\n" + BeforeText + "--- after ---\n" + AfterText;

  std::vector<std::vector<uint32_t>> Lcs(N + 1,
                                         std::vector<uint32_t>(M + 1, 0));
  for (size_t I = N; I-- > 0;)
    for (size_t J = M; J-- > 0;)
      Lcs[I][J] = A[I] == B[J]
                      ? Lcs[I + 1][J + 1] + 1
                      : std::max(Lcs[I + 1][J], Lcs[I][J + 1]);

  std::string Out;
  size_t I = 0, J = 0;
  while (I < N && J < M) {
    if (A[I] == B[J]) {
      Out += "  " + A[I] + "\n";
      ++I, ++J;
    } else if (Lcs[I + 1][J] >= Lcs[I][J + 1]) {
      Out += "- " + A[I] + "\n";
      ++I;
    } else {
      Out += "+ " + B[J] + "\n";
      ++J;
    }
  }
  for (; I < N; ++I)
    Out += "- " + A[I] + "\n";
  for (; J < M; ++J)
    Out += "+ " + B[J] + "\n";
  return Out;
}

} // namespace

AuditResult vsc::auditModule(const Module &M, const MachineModel &MM,
                             const Module *Before) {
  AuditResult R;
  std::string Err = verifyModule(M);
  if (!Err.empty())
    R.add("verifier", "<module>", "", Err);
  for (const auto &F : M.functions()) {
    const Function *BF =
        Before ? Before->findFunction(F->name()) : nullptr;
    auditUseBeforeDef(*F, R);
    auditScheduleHazards(*F, MM, R);
    auditCfgLoopIntegrity(BF, *F, R);
    if (BF)
      auditSpeculationSafety(*BF, *F, M, R);
  }
  return R;
}

void PassAudit::auditOne(const Function &F, const Module &M, AuditResult &R,
                         std::vector<const Function *> &Changed) {
  std::string Text = printFunction(F);
  auto TextIt = SnapText.find(F.name());
  if (TextIt != SnapText.end() && TextIt->second == Text)
    return; // untouched since the last clean checkpoint
  Changed.push_back(&F);

  std::string Err = verifyFunction(F);
  if (!Err.empty())
    R.add("verifier", F.name(), "", Err);
  auditUseBeforeDef(F, R);
  auditScheduleHazards(F, MM, R);
  auto SnapIt = Snap.find(F.name());
  const Function *BF = SnapIt == Snap.end() ? nullptr : SnapIt->second.get();
  auditCfgLoopIntegrity(BF, F, R);
  if (BF)
    auditSpeculationSafety(*BF, F, M, R);
}

void PassAudit::finalize(AuditResult &R, const std::string &Stage,
                         const std::vector<const Function *> &Changed) {
  if (R.ok()) {
    // Advance the snapshots; the next checkpoint diffs against this state.
    for (const Function *F : Changed) {
      SnapText[F->name()] = printFunction(*F);
      Snap[F->name()] = cloneFunction(*F);
    }
    return;
  }
  for (AuditFinding &F : R.Findings)
    F.Pass = Stage;
  R.Report = "PassAudit: " + std::to_string(R.Findings.size()) +
             " finding(s) after '" + Stage + "':\n" + R.str();
  // IR diff of each offending function (snapshot kept, so a debugger can
  // re-run the audit against the same baseline).
  std::vector<std::string> Reported;
  for (const AuditFinding &Finding : R.Findings) {
    if (Finding.Fn == "<module>" ||
        std::find(Reported.begin(), Reported.end(), Finding.Fn) !=
            Reported.end())
      continue;
    Reported.push_back(Finding.Fn);
    const Function *Now = nullptr;
    for (const Function *F : Changed)
      if (F->name() == Finding.Fn)
        Now = F;
    if (!Now)
      continue;
    auto TextIt = SnapText.find(Finding.Fn);
    R.Report += "\n--- IR diff of '" + Finding.Fn + "' (last clean state vs "
                "after '" + Stage + "') ---\n";
    if (TextIt == SnapText.end())
      R.Report += printFunction(*Now);
    else
      R.Report += lineDiff(TextIt->second, printFunction(*Now));
  }
}

void PassAudit::chargeAliasQueries(const std::string &Stage) {
  // Everything queried since the previous checkpoint finished belongs to
  // the stage that just ran; the re-snapshot at the end of each checkpoint
  // keeps the audit's own speculation-safety queries out of the ledger.
  AliasQueryCounters Delta = aliasQueryCounters() - AliasSnap;
  if (Delta.Queries == 0 && Delta.Builds == 0)
    return;
  std::string Name = Stage.substr(0, Stage.find('('));
  for (auto &E : QueryLog) {
    if (E.first != Name)
      continue;
    E.second += Delta;
    return;
  }
  QueryLog.emplace_back(Name, Delta);
}

AuditResult PassAudit::checkpoint(const Module &M, const std::string &Stage) {
  AuditResult R;
  if (!enabled())
    return R;
  chargeAliasQueries(Stage);
  std::vector<const Function *> Changed;
  for (const auto &F : M.functions())
    auditOne(*F, M, R, Changed);
  finalize(R, Stage, Changed);
  AliasSnap = aliasQueryCounters();
  return R;
}

AuditResult PassAudit::checkpointFunction(const Function &F, const Module &M,
                                          const std::string &Stage) {
  AuditResult R;
  if (!enabled())
    return R;
  chargeAliasQueries(Stage);
  std::vector<const Function *> Changed;
  auditOne(F, M, R, Changed);
  finalize(R, Stage, Changed);
  AliasSnap = aliasQueryCounters();
  return R;
}
