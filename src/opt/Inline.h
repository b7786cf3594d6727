//===- opt/Inline.h - Function inlining -----------------------*- C++ -*-===//
///
/// \file
/// Leaf-function inlining. The paper's techniques stop at call
/// boundaries — live-range renaming and pipeline scheduling refuse loops
/// containing calls, and the I/O-builtin exception aside, calls block
/// memory disambiguation. Inlining small leaf callees (the classify()/
/// popcount() pattern in the workloads) exposes those loops.
///
/// Mechanics: the callee's blocks are cloned at the call site with every
/// register — virtual AND physical except r1/r2/ctr — remapped to fresh
/// virtuals (physical registers have meaning only across the call
/// boundary being deleted; CTR is explicitly clobbered by calls, so
/// leaving it shared is sound). Parameter registers r3..rN are copied
/// into the remapped parameter names at the inlined entry; each RET
/// becomes a branch to the continuation, which copies the remapped r3
/// back into the real r3.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_OPT_INLINE_H
#define VSC_OPT_INLINE_H

#include "ir/Module.h"

namespace vsc {

struct InlineOptions {
  /// Callees above this size are never inlined.
  size_t MaxCalleeInstrs = 48;
};

/// Inlines eligible call sites: the callee must be a leaf (no calls to
/// anything but the I/O builtins), non-recursive by construction, small,
/// and not the caller itself; at most 400 instructions are inlined into
/// any one caller. \returns number of call sites inlined.
unsigned inlineLeafFunctions(Module &M, const InlineOptions &Opts = {});

} // namespace vsc

#endif // VSC_OPT_INLINE_H
