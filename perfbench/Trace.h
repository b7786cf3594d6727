//===- perfbench/Trace.h - In-memory spans for the traced run ---*- C++ -*-===//
///
/// \file
/// Spans around the benchmark's calls into each layer's public entry
/// points. A span records its name, start, end, parent span and the id of
/// the operation it belongs to. Spans are kept in memory and written at
/// exit as Chrome trace-event JSON, so a later in-program --trace=FILE can
/// nest its pass spans under these. Recording is off unless the run is
/// traced; an untraced run pays one branch per span.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_PERFBENCH_TRACE_H
#define VSC_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since the process's time origin (the first call).
double now();

class Tracer {
public:
  struct Span {
    const char *Name;
    double Start;
    double End;
    int Parent; ///< index of the enclosing span, -1 for a root
    uint32_t Op;
  };

  /// The process's one tracer (the benchmark is single-threaded).
  static Tracer &get();

  void setEnabled(bool On) { Enabled = On; }

  /// The operation id new spans are tagged with (0 = set-up).
  void setOp(uint32_t Op) { CurrentOp = Op; }

  /// Opens a span; -1 when tracing is off.
  int begin(const char *Name);
  void end(int Idx);

  /// Duration minus the time the span's direct children cover, summed per
  /// span name.
  std::map<std::string, double> selfSeconds() const;

  /// Writes every span as Chrome trace-event JSON ("X" events, times in
  /// microseconds). \returns false when the file cannot be written.
  bool writeChromeJson(const std::string &Path) const;

private:
  bool Enabled = false;
  uint32_t CurrentOp = 0;
  int Open = -1;
  std::vector<Span> Spans;
};

/// RAII span: ScopedSpan S("vliw"); ... call ...
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name) : Idx(Tracer::get().begin(Name)) {}
  ~ScopedSpan() { Tracer::get().end(Idx); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  int Idx;
};

} // namespace perfbench

#endif // VSC_PERFBENCH_TRACE_H
