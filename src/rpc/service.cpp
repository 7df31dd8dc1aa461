#include "rpc/service.h"

namespace lwfs::rpc {

std::string_view BulkDirName(BulkDir dir) {
  switch (dir) {
    case BulkDir::kNone: return "none";
    case BulkDir::kPull: return "pull";
    case BulkDir::kPush: return "push";
    case BulkDir::kReply: return "reply";
  }
  return "unknown";
}

}  // namespace lwfs::rpc
