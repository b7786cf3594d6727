//===- perfbench/Trace.cpp - In-memory spans for the traced run -----------===//

#include "Trace.h"

#include <cstdio>

namespace perfbench {

double now() {
  static const Clock::time_point Origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - Origin).count();
}

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

int Tracer::begin(const char *Name) {
  if (!Enabled)
    return -1;
  Spans.push_back(Span{Name, now(), 0.0, Open, CurrentOp});
  Open = static_cast<int>(Spans.size()) - 1;
  return Open;
}

void Tracer::end(int Idx) {
  if (Idx < 0)
    return;
  Spans[Idx].End = now();
  Open = Spans[Idx].Parent;
}

std::map<std::string, double> Tracer::selfSeconds() const {
  // Children close before their parent and never overlap one another
  // (one thread), so the time they cover is the sum of their durations.
  std::vector<double> ChildTime(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildTime[S.Parent] += S.End - S.Start;
  std::map<std::string, double> Self;
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[Spans[I].Name] += Spans[I].End - Spans[I].Start - ChildTime[I];
  return Self;
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", F);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%u,\"id\":%zu,"
                 "\"parent\":%d}}",
                 I ? "," : "", S.Name, S.Start * 1e6, (S.End - S.Start) * 1e6,
                 S.Op, I, S.Parent);
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}

} // namespace perfbench
