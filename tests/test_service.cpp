//===- tests/test_service.cpp - Compile-service behaviour ------------------===//
///
/// The compile service's contract: responses agree with the direct
/// pipeline/simulator/PDF-driver calls they cache, same-module batching
/// costs one cold compile, and the response bytes are identical no matter
/// the worker-thread count or the submission order. Plus the profile
/// round trip (save-profile through the service, reload, feed back into a
/// guided compile) and its stale-rejection path.
///
//===----------------------------------------------------------------------===//

#include "service/CompileService.h"

#include "frontend/Frontend.h"
#include "service/Protocol.h"
#include "ir/Printer.h"
#include "pdf/PdfExperiment.h"
#include "pdf/ProfileStore.h"
#include "workloads/Registry.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

using namespace vsc;

namespace {

std::string hex64(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// The module the service compiles for a registry kernel, built the same
/// way (frontend with safe loads assumed, then the pipeline at Threads=1).
std::unique_ptr<Module> directBuild(const Workload &W, OptLevel L) {
  FrontendOptions FeOpts;
  FeOpts.AssumeSafeLoads = true;
  CompileResult C = compileMiniC(W.Source, FeOpts);
  EXPECT_TRUE(C.ok()) << C.Error;
  PipelineOptions Opts;
  Opts.Machine = rs6000();
  Opts.Threads = 1;
  return optimizedClone(*C.M, L, Opts);
}

uint64_t staticInstrs(const Module &M) {
  uint64_t N = 0;
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      N += BB->instrs().size();
  return N;
}

ServiceRequest compileReq(const std::string &Kernel, OptLevel L,
                          const std::string &Name) {
  ServiceRequest R;
  R.Kind = ServiceRequest::Op::Compile;
  R.Kernel = Kernel;
  R.Level = L;
  R.Name = Name;
  return R;
}

} // namespace

TEST(CompileServiceTest, CompileMatchesDirectPipeline) {
  const Workload *W = workloads::findKernel("eqntott");
  ASSERT_TRUE(W);
  auto Direct = directBuild(*W, OptLevel::Vliw);
  std::string Printed = printModule(*Direct);

  CompileService Service;
  ServiceResponse Resp =
      Service.handle(compileReq("eqntott", OptLevel::Vliw, "c"));
  ASSERT_TRUE(Resp.Ok) << Resp.Text;
  EXPECT_EQ(Resp.Text,
            "op=compile target=eqntott level=vliw machine=rs6000 fp=" +
                hex64(cfgFingerprint(*Direct)) + " ir=" +
                hex64(fnv1aBytes(Printed.data(), Printed.size())) +
                " instrs=" + std::to_string(staticInstrs(*Direct)));
}

TEST(CompileServiceTest, SimulateMatchesDirectSimulator) {
  const Workload *W = workloads::findKernel("li");
  ASSERT_TRUE(W);
  auto Direct = directBuild(*W, OptLevel::Vliw);
  RunOptions Run;
  Run.Args = {W->TrainScale};
  RunResult R = simulate(*Direct, rs6000(), Run);

  CompileService Service;
  ServiceRequest Req;
  Req.Kind = ServiceRequest::Op::Simulate;
  Req.Kernel = "li";
  Req.Args = {W->TrainScale};
  ServiceResponse Resp = Service.handle(Req);
  ASSERT_TRUE(Resp.Ok) << Resp.Text;
  EXPECT_EQ(Resp.Text,
            "op=simulate target=li level=vliw machine=rs6000 exit=" +
                std::to_string(R.ExitCode) + " cycles=" +
                std::to_string(R.Cycles) + " instrs=" +
                std::to_string(R.DynInstrs) + " ostalls=" +
                std::to_string(R.OperandStallCycles) + " bstalls=" +
                std::to_string(R.BranchStallCycles) + " out=" +
                hex64(fnv1aBytes(R.Output.data(), R.Output.size())) +
                " mem=" + hex64(R.MemDigest));
}

TEST(CompileServiceTest, PdfMatchesExperimentDriver) {
  const Workload *W = workloads::findKernel("interp");
  ASSERT_TRUE(W);
  std::string Err;
  FrontendOptions FeOpts;
  FeOpts.AssumeSafeLoads = true;
  CompileResult C = compileMiniC(W->Source, FeOpts);
  ASSERT_TRUE(C.ok()) << C.Error;
  PdfExperimentOptions Opts;
  Opts.Machine = rs6000();
  Opts.Train = {workloadInput(W->TrainScale)};
  Opts.Test = {workloadInput(W->TrainScale)};
  Opts.Threads = 1;
  Opts.ProfileSource = PdfExperimentOptions::Source::Exact;
  PdfExperimentResult R = runPdfExperiment(*C.M, Opts);
  ASSERT_TRUE(R.ok()) << R.Error;

  CompileService Service;
  ServiceRequest Req;
  Req.Kind = ServiceRequest::Op::Pdf;
  Req.Kernel = "interp";
  Req.Train = {W->TrainScale};
  Req.Test = {W->TrainScale};
  ServiceResponse Resp = Service.handle(Req);
  ASSERT_TRUE(Resp.Ok) << Resp.Text;
  EXPECT_NE(Resp.Text.find(" base=" + std::to_string(R.BaselineCycles) +
                           " guided=" + std::to_string(R.GuidedCycles) +
                           " "),
            std::string::npos)
      << Resp.Text;
  EXPECT_NE(Resp.Text.find(std::string(" layout=") +
                           pdfLayoutName(R.PdfLayoutKept)),
            std::string::npos)
      << Resp.Text;
}

TEST(CompileServiceTest, SameModuleBatchCostsOneColdCompile) {
  CompileService::Config Cfg;
  Cfg.Threads = 1;
  CompileService Service(Cfg);
  std::vector<ServiceRequest> Batch;
  for (int I = 0; I != 4; ++I)
    Batch.push_back(
        compileReq("chase", OptLevel::Vliw, "c" + std::to_string(I)));
  std::vector<ServiceResponse> Out = Service.handleBatch(Batch);
  ASSERT_EQ(Out.size(), 4u);
  for (const ServiceResponse &R : Out) {
    EXPECT_TRUE(R.Ok) << R.Text;
    EXPECT_EQ(R.Text, Out.front().Text);
  }
  EXPECT_EQ(Service.groupsFormed(), 1u);
  EXPECT_EQ(Service.cache().stats(ArtifactClass::Frontend).Misses, 1u);
  EXPECT_EQ(Service.cache().stats(ArtifactClass::Frontend).Hits, 3u);
  EXPECT_EQ(Service.cache().stats(ArtifactClass::Optimized).Misses, 1u);
  EXPECT_EQ(Service.cache().stats(ArtifactClass::Optimized).Hits, 3u);
}

TEST(CompileServiceTest, ResponsesSurviveCacheClear) {
  CompileService Service;
  ServiceRequest Req = compileReq("hashagg", OptLevel::Classical, "c");
  ServiceResponse First = Service.handle(Req);
  ASSERT_TRUE(First.Ok) << First.Text;
  Service.cache().clear();
  ServiceResponse Second = Service.handle(Req);
  EXPECT_EQ(First.Text, Second.Text);
}

// Two programs with one CFG shape (the same block and edge labels) but
// different instructions. Keyed on the CFG fingerprint alone, the second
// program's simulate was answered from the first one's optimized module;
// the same held for the prepared training clone behind the pdf op. Each
// response from a shared service must match a fresh service's.
TEST(CompileServiceTest, SameCfgDifferentBodiesGetTheirOwnArtifacts) {
  std::vector<ServiceRequest> Reqs;
  for (const char *Update : {"x+3", "x*5"}) {
    std::string Src = std::string("int main(int n){int x=1;for(int i=0;"
                                  "i<n;i++){x=") +
                      Update + ";}print_int(x);return 0;}";
    ServiceRequest Sim;
    Sim.Kind = ServiceRequest::Op::Simulate;
    Sim.Source = Src;
    Sim.Args = {4};
    Sim.Name = std::string(Update) + ".sim";
    Reqs.push_back(Sim);
    ServiceRequest Pdf;
    Pdf.Kind = ServiceRequest::Op::Pdf;
    Pdf.Source = Src;
    Pdf.Train = {3};
    Pdf.Test = {4};
    Pdf.Name = std::string(Update) + ".pdf";
    Reqs.push_back(Pdf);
  }

  CompileService Shared;
  std::vector<std::string> Texts;
  for (const ServiceRequest &R : Reqs) {
    ServiceResponse Fresh = CompileService().handle(R);
    ASSERT_TRUE(Fresh.Ok) << R.Name << ": " << Fresh.Text;
    EXPECT_EQ(Shared.handle(R).Text, Fresh.Text) << R.Name;
    Texts.push_back(Fresh.Text);
  }
  // The two programs print different values, so their answers differ.
  EXPECT_NE(Texts[0], Texts[2]);
}

TEST(CompileServiceTest, ByteIdenticalAcrossThreadsAndOrder) {
  // A mixed stream over three kernels: compiles at two levels, a
  // simulate, and a PDF experiment (train-scale batteries keep it quick).
  std::vector<ServiceRequest> Stream;
  for (const char *Kernel : {"eqntott", "chase", "interp"}) {
    const Workload *W = workloads::findKernel(Kernel);
    ASSERT_TRUE(W);
    Stream.push_back(compileReq(Kernel, OptLevel::Classical,
                                std::string(Kernel) + ".o2"));
    Stream.push_back(
        compileReq(Kernel, OptLevel::Vliw, std::string(Kernel) + ".o3"));
    ServiceRequest S;
    S.Kind = ServiceRequest::Op::Simulate;
    S.Kernel = Kernel;
    S.Args = {W->TrainScale};
    S.Name = std::string(Kernel) + ".sim";
    Stream.push_back(S);
    ServiceRequest P;
    P.Kind = ServiceRequest::Op::Pdf;
    P.Kernel = Kernel;
    P.Train = {W->TrainScale};
    P.Test = {W->TrainScale};
    P.Name = std::string(Kernel) + ".pdf";
    Stream.push_back(P);
  }

  std::map<std::string, std::string> Reference;
  bool HaveReference = false;
  for (unsigned Threads : {1u, 4u}) {
    for (uint32_t Seed : {1u, 2u}) {
      std::vector<ServiceRequest> Shuffled = Stream;
      std::mt19937 Rng(Seed);
      std::shuffle(Shuffled.begin(), Shuffled.end(), Rng);

      CompileService::Config Cfg;
      Cfg.Threads = Threads;
      CompileService Service(Cfg);
      std::vector<ServiceResponse> Out = Service.handleBatch(Shuffled);

      std::map<std::string, std::string> ByName;
      for (const ServiceResponse &R : Out) {
        EXPECT_TRUE(R.Ok) << R.Name << ": " << R.Text;
        ByName[R.Name] = R.Text;
      }
      ASSERT_EQ(ByName.size(), Stream.size());
      if (!HaveReference) {
        Reference = ByName;
        HaveReference = true;
        continue;
      }
      EXPECT_EQ(ByName, Reference)
          << "threads=" << Threads << " seed=" << Seed;
    }
  }
}

TEST(CompileServiceTest, SaveProfileRoundTripFeedsGuidedCompile) {
  const Workload *W = workloads::findKernel("interp");
  ASSERT_TRUE(W);
  std::string Path =
      testing::TempDir() + "/vsc_service_interp.profile";

  CompileService Service;
  ServiceRequest Save;
  Save.Kind = ServiceRequest::Op::SaveProfile;
  Save.Kernel = "interp";
  Save.Train = {W->TrainScale};
  Save.ProfileOut = Path;
  ServiceResponse SaveResp = Service.handle(Save);
  ASSERT_TRUE(SaveResp.Ok) << SaveResp.Text;
  EXPECT_NE(SaveResp.Text.find("file=" + Path), std::string::npos);

  // The persisted profile must reload and validate against the source.
  DenseProfile P;
  ASSERT_EQ(DenseProfile::loadFile(Path, P), "");
  FrontendOptions FeOpts;
  FeOpts.AssumeSafeLoads = true;
  CompileResult C = compileMiniC(W->Source, FeOpts);
  ASSERT_TRUE(C.ok()) << C.Error;
  EXPECT_EQ(P.validateFor(*C.M), "");

  // Feeding it back turns the compile profile-guided (layout decision
  // appears) and stays deterministic across repeats.
  ServiceRequest Guided = compileReq("interp", OptLevel::Vliw, "g");
  Guided.ProfileIn = Path;
  Guided.Args = {W->TrainScale};
  ServiceResponse First = Service.handle(Guided);
  ASSERT_TRUE(First.Ok) << First.Text;
  EXPECT_NE(First.Text.find(" layout="), std::string::npos) << First.Text;
  ServiceResponse Second = Service.handle(Guided);
  EXPECT_EQ(First.Text, Second.Text);
  std::remove(Path.c_str());
}

TEST(CompileServiceTest, StaleProfileRejected) {
  const Workload *A = workloads::findKernel("eqntott");
  ASSERT_TRUE(A);
  std::string Path = testing::TempDir() + "/vsc_service_stale.profile";

  CompileService Service;
  ServiceRequest Save;
  Save.Kind = ServiceRequest::Op::SaveProfile;
  Save.Kernel = "eqntott";
  Save.Train = {A->TrainScale};
  Save.ProfileOut = Path;
  ASSERT_TRUE(Service.handle(Save).Ok);

  // Another kernel's module has a different CFG fingerprint: the profile
  // must be rejected, not silently applied.
  ServiceRequest Guided = compileReq("chase", OptLevel::Vliw, "g");
  Guided.ProfileIn = Path;
  ServiceResponse Resp = Service.handle(Guided);
  EXPECT_FALSE(Resp.Ok);
  EXPECT_NE(Resp.Text.find("stale profile"), std::string::npos) << Resp.Text;
  std::remove(Path.c_str());
}

TEST(CompileServiceTest, ErrorPaths) {
  CompileService Service;
  ServiceRequest R;
  R.Kernel = "no-such-kernel";
  ServiceResponse Resp = Service.handle(R);
  EXPECT_FALSE(Resp.Ok);
  EXPECT_NE(Resp.Text.find("unknown kernel"), std::string::npos);

  ServiceRequest M = compileReq("eqntott", OptLevel::Vliw, "m");
  M.MachineName = "no-such-machine";
  Resp = Service.handle(M);
  EXPECT_FALSE(Resp.Ok);
  EXPECT_NE(Resp.Text.find("unknown machine"), std::string::npos);

  ServiceRequest Empty;
  Empty.Kind = ServiceRequest::Op::Compile;
  Resp = Service.handle(Empty);
  EXPECT_FALSE(Resp.Ok);
  EXPECT_NE(Resp.Text.find("neither kernel"), std::string::npos);
}

// A source nested past the front end's depth limit is one error response;
// it must not take the service down with the rest of its batch.
TEST(CompileServiceTest, DeeplyNestedSourceIsAnErrorResponse) {
  ServiceRequest Deep;
  Deep.Kind = ServiceRequest::Op::Compile;
  Deep.Source = "int main(int n) { return " + std::string(200000, '(') +
                "1" + std::string(200000, ')') + "; }";
  Deep.Name = "deep";
  ServiceRequest Li = compileReq("li", OptLevel::Vliw, "li");

  CompileService Service;
  std::vector<ServiceResponse> Out = Service.handleBatch({Deep, Li});
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_FALSE(Out[0].Ok);
  EXPECT_NE(Out[0].Text.find("nesting deeper than"), std::string::npos)
      << Out[0].Text;
  EXPECT_TRUE(Out[1].Ok) << Out[1].Text;
  EXPECT_EQ(Out[1].Text, CompileService().handle(Li).Text);
}

// A store whose end wraps past 2^64 (p = -2, four bytes) is a trap in the
// response: Addr + Size wraps to 2, so a bounds check must not form it.
TEST(CompileServiceTest, WrappedStoreIsATrapResponse) {
  ServiceRequest Req;
  Req.Kind = ServiceRequest::Op::Simulate;
  Req.Source =
      "int main(int scale) { int *p = 0 - 2 - scale; *p = 7; return 0; }";
  Req.Name = "w";
  Req.Args = {0};
  ServiceResponse Resp = CompileService().handle(Req);
  ASSERT_TRUE(Resp.Ok) << Resp.Text;
  const std::string Trap =
      " trap=store to unmapped address 18446744073709551614";
  ASSERT_GE(Resp.Text.size(), Trap.size()) << Resp.Text;
  EXPECT_EQ(Resp.Text.substr(Resp.Text.size() - Trap.size()), Trap)
      << Resp.Text;
}

// The vscd parse loop, hoisted into the library so this contract is
// testable without a process: every request line in the stream becomes
// exactly one slot, blank/comment lines vanish, parse errors are captured
// in place, and — the regression this locks in — a final request with no
// trailing newline is parsed like any other line instead of being dropped
// at end-of-stream.
TEST(CompileServiceTest, ParseRequestStreamKeepsNewlinelessFinalRequest) {
  const std::string Body = "# header comment\n"
                           "compile kernel=eqntott level=O3 name=a\n"
                           "\n"
                           "bogus-op kernel=eqntott\n"
                           "simulate kernel=eqntott name=b";

  std::istringstream NoFinalNewline(Body);
  ParsedRequestStream S = parseRequestStream(NoFinalNewline);

  ASSERT_EQ(S.Requests.size(), 2u);
  EXPECT_EQ(S.Requests[0].Name, "a");
  EXPECT_EQ(S.Requests[1].Name, "b");
  EXPECT_EQ(S.Requests[1].Kind, ServiceRequest::Op::Simulate);
  ASSERT_EQ(S.ParseErrors.size(), 1u);
  EXPECT_FALSE(S.ParseErrors[0].Ok);
  EXPECT_NE(S.ParseErrors[0].Text.find("unknown op"), std::string::npos);
  // One slot per non-blank line, in stream order: request, error, request.
  ASSERT_EQ(S.Slot.size(), 3u);
  EXPECT_EQ(S.Slot[0], 0);
  EXPECT_EQ(S.Slot[1], -1);
  EXPECT_EQ(S.Slot[2], 1);

  // A trailing '\n' must not change what was parsed.
  std::istringstream WithFinalNewline(Body + "\n");
  ParsedRequestStream T = parseRequestStream(WithFinalNewline);
  ASSERT_EQ(T.Requests.size(), S.Requests.size());
  for (size_t I = 0; I != S.Requests.size(); ++I)
    EXPECT_EQ(T.Requests[I].Name, S.Requests[I].Name);
  EXPECT_EQ(T.Slot, S.Slot);

  // The anonymous-name rule counts physical lines, newline or not.
  std::istringstream Anon("compile kernel=eqntott\nsimulate kernel=eqntott");
  ParsedRequestStream A = parseRequestStream(Anon);
  ASSERT_EQ(A.Requests.size(), 2u);
  EXPECT_EQ(A.Requests[0].Name, "r1");
  EXPECT_EQ(A.Requests[1].Name, "r2");
}
