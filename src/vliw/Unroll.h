//===- vliw/Unroll.h - Loop unrolling -------------------------*- C++ -*-===//
///
/// \file
/// Loop unrolling for the scheduling pipeline ("The loops are unrolled
/// prior to scheduling and live range renaming is performed, to increase
/// scheduling opportunities"). The loop body — which may contain arbitrary
/// internal control flow and side exits — is cloned Factor-1 times; back
/// edges of copy k are retargeted to the header of copy k+1, the last
/// copy's back edges return to the original header, and exits keep their
/// original targets.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_VLIW_UNROLL_H
#define VSC_VLIW_UNROLL_H

#include "cfg/Loops.h"
#include "ir/Function.h"
#include "pm/Analysis.h"

namespace vsc {

/// Unrolls \p L by \p Factor (>= 2). \p L must come from a LoopInfo of the
/// current \p F; the function's CFG analyses are invalidated. BCT loops are
/// legal: each copy contains its own count-decrementing branch, so trip
/// semantics are preserved. \returns true on success (false for loops this
/// implementation refuses, e.g. Factor < 2).
bool unrollLoop(Function &F, const Loop &L, unsigned Factor);

/// Unrolls every innermost loop of \p F whose body has at most
/// \p MaxBodyInstrs instructions by \p Factor. \returns number unrolled.
unsigned unrollInnermostLoops(Function &F, FunctionAnalyses &FA,
                              unsigned Factor, size_t MaxBodyInstrs = 64);

} // namespace vsc

#endif // VSC_VLIW_UNROLL_H
