//===- opt/Classical.h - Classical scalar optimizations -------*- C++ -*-===//
///
/// \file
/// The classical optimizations the paper assumes have already run before
/// its VLIW techniques ("usually after classical optimizations have been
/// applied, but before register allocation"). These form the baseline
/// ("xlc -O") pipeline in the experiments:
///
///  * copy propagation (LR forwarding within extended blocks),
///  * local value numbering / common-subexpression elimination,
///  * dead code elimination (liveness based),
///  * classical loop-invariant code motion (non-speculative: the paper
///    contrasts its speculative load/store motion against this),
///  * branch simplification and straightening (cfg/CfgEdit.h).
///
/// Every pass returns true when it changed the function.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_OPT_CLASSICAL_H
#define VSC_OPT_CLASSICAL_H

#include "ir/Function.h"
#include "pm/Analysis.h"

namespace vsc {

/// Forwards sources of LR copies (and LI constants into copy chains) to
/// later uses within each block, so DCE can remove the copies.
bool copyPropagate(Function &F);

/// Local value numbering: eliminates recomputation of pure expressions
/// within a block, replacing repeats with LR from the first computation.
/// Loads participate until a may-aliasing store or call intervenes; with
/// \p AA the "may alias" test is per-load (a store provably disjoint from
/// a load no longer kills its value number) instead of a single epoch
/// counter shared by all loads.
bool localValueNumbering(Function &F, const AliasAnalysis *AA = nullptr);

/// Removes instructions whose results are dead and which have no side
/// effects. Iterates to a fixed point, reading liveness from \p FA and
/// invalidating it after each mutating sweep.
bool deadCodeElim(Function &F, FunctionAnalyses &FA);

/// Classical (non-speculative) loop-invariant code motion: hoists pure
/// ALU ops whose operands are loop-invariant and, conservatively, loads
/// whose block dominates every loop exit when no in-loop store may alias.
/// This deliberately refuses the conditional loads/stores the paper's
/// speculative load/store motion handles — that contrast is experiment E7.
bool classicalLicm(Function &F, FunctionAnalyses &FA, bool FlowAlias = true);

/// The full baseline pipeline; \returns true if anything changed. \p FA
/// is threaded through every sub-pass.
bool runClassicalPipeline(Function &F, FunctionAnalyses &FA,
                          bool FlowAlias = true);

} // namespace vsc

#endif // VSC_OPT_CLASSICAL_H
