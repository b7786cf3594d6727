//===- profile/Superblock.h - Trace/superblock formation ------*- C++ -*-===//
///
/// \file
/// Profile-driven superblock formation — the trace-scheduling-derivative
/// baseline the paper positions itself against ("our VLIW scheduling
/// techniques do not depend on branch probabilities to generate efficient
/// code, as opposed to trace scheduling and its derivatives [11,6]").
///
/// A trace is grown from a hot seed block along most-probable successors;
/// every on-trace block with off-trace predecessors is tail-duplicated so
/// the trace becomes a single-predecessor chain. Downstream, the ordinary
/// global scheduler then compacts the hot path without join-point
/// constraints — exactly how IMPACT-style superblock compilers set up
/// their schedulers. Off-trace paths pay the code growth.
///
/// bench_superblock compares this profile-dependent pipeline against the
/// paper's profile-independent one.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_PROFILE_SUPERBLOCK_H
#define VSC_PROFILE_SUPERBLOCK_H

#include "profile/ProfileData.h"

namespace vsc {

struct SuperblockOptions {
  /// Minimum execution count for a block to seed or extend a trace.
  uint64_t HotThreshold = 16;
  /// Total duplicated-instruction budget per function.
  size_t MaxGrowth = 256;
};

/// Forms superblocks in \p F using \p P. \returns number of blocks
/// tail-duplicated.
unsigned formSuperblocks(Function &F, const ProfileData &P,
                         const SuperblockOptions &Opts = {});

} // namespace vsc

#endif // VSC_PROFILE_SUPERBLOCK_H
