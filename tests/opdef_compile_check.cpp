// Compile-only check that rpc::OpDef refuses an inline op that moves bulk
// data.  ctest builds it twice (tests/CMakeLists.txt): as is it must
// compile; with LWFS_INLINE_BULK_OP defined it must not, and the diagnostic
// must name the rule.
#include "rpc/service.h"

namespace lwfs::rpc {

inline constexpr OpDef kWaitFreeOp{1, "wait_free", 0, BulkDir::kNone,
                                   Dispatch::kInline};
static_assert(kWaitFreeOp.dispatch == Dispatch::kInline);

#ifdef LWFS_INLINE_BULK_OP
inline constexpr OpDef kInlinePullOp{2, "inline_pull", 0, BulkDir::kPull,
                                     Dispatch::kInline};
#endif

}  // namespace lwfs::rpc
