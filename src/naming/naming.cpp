#include "naming/naming.h"

namespace lwfs::naming {

Result<std::vector<std::string>> SplitPath(std::string_view path) {
  if (path.empty() || path.front() != '/') {
    return InvalidArgument("path must be absolute");
  }
  std::vector<std::string> parts;
  std::size_t pos = 1;
  while (pos <= path.size()) {
    const std::size_t next = path.find('/', pos);
    const std::string_view part =
        path.substr(pos, next == std::string_view::npos ? std::string_view::npos
                                                        : next - pos);
    if (next == std::string_view::npos && part.empty()) break;  // trailing '/'
    if (part.empty() || part == "." || part == "..") {
      return InvalidArgument("invalid path component");
    }
    parts.emplace_back(part);
    if (next == std::string_view::npos) break;
    pos = next + 1;
  }
  return parts;
}

NamingService::NamingService(std::string participant_name, OpLog* oplog)
    : root_(std::make_unique<Node>()),
      participant_(std::move(participant_name)),
      oplog_(oplog) {}

void NamingService::SetOpLog(OpLog* oplog) {
  std::lock_guard<std::mutex> lock(mutex_);
  oplog_ = oplog;
}

NamingService::Node* NamingService::WalkLocked(
    const std::vector<std::string>& parts) const {
  Node* node = root_.get();
  for (const std::string& part : parts) {
    auto it = node->children.find(part);
    if (it == node->children.end()) return nullptr;
    node = it->second.get();
  }
  return node;
}

Status NamingService::Mkdir(std::string_view path, bool recursive) {
  auto parts = SplitPath(path);
  if (!parts.ok()) return parts.status();
  if (parts->empty()) return AlreadyExists("root exists");
  std::lock_guard<std::mutex> lock(mutex_);
  Node* node = root_.get();
  for (std::size_t i = 0; i < parts->size(); ++i) {
    const std::string& part = (*parts)[i];
    auto it = node->children.find(part);
    const bool last = i + 1 == parts->size();
    if (it == node->children.end()) {
      if (!last && !recursive) return NotFound("missing parent directory");
      auto child = std::make_unique<Node>();
      Node* raw = child.get();
      node->children.emplace(part, std::move(child));
      node = raw;
    } else {
      if (!it->second->is_directory) return AlreadyExists("path is a link");
      if (last) return AlreadyExists("directory exists");
      node = it->second.get();
    }
  }
  if (oplog_ != nullptr) {
    OpRecord rec;
    rec.kind = OpRecord::Kind::kMkdir;
    rec.a = std::string(path);
    rec.flag = recursive;
    oplog_->Append(std::move(rec));
  }
  return OkStatus();
}

Status NamingService::Link(std::string_view path,
                           const storage::ObjectRef& ref) {
  auto parts = SplitPath(path);
  if (!parts.ok()) return parts.status();
  if (parts->empty()) return InvalidArgument("cannot link root");
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> parent(parts->begin(), parts->end() - 1);
  Node* dir = WalkLocked(parent);
  if (dir == nullptr || !dir->is_directory) {
    return NotFound("parent directory missing");
  }
  const std::string& leaf = parts->back();
  if (dir->children.contains(leaf)) return AlreadyExists("name exists");
  auto node = std::make_unique<Node>();
  node->is_directory = false;
  node->ref = ref;
  dir->children.emplace(leaf, std::move(node));
  ++links_;
  if (oplog_ != nullptr) {
    OpRecord rec;
    rec.kind = OpRecord::Kind::kLink;
    rec.a = std::string(path);
    rec.ref = ref;
    oplog_->Append(std::move(rec));
  }
  return OkStatus();
}

Status NamingService::StageLink(txn::TxnId txid, std::string_view path,
                                const storage::ObjectRef& ref) {
  // Validate eagerly so obvious errors surface before commit time.
  auto parts = SplitPath(path);
  if (!parts.ok()) return parts.status();
  if (parts->empty()) return InvalidArgument("cannot link root");
  participant_.Join(txid);
  std::string owned_path(path);
  participant_.StageApply(
      txid, [this, owned_path, ref] { return Link(owned_path, ref); });
  return OkStatus();
}

Status NamingService::StageUnlink(txn::TxnId txid, std::string_view path) {
  // Validate eagerly so obvious errors surface before commit time; the name
  // stays visible (and unlinked-able by others) until the decision lands —
  // the coordinator's prepare vote is what fences concurrent writers.
  auto parts = SplitPath(path);
  if (!parts.ok()) return parts.status();
  if (parts->empty()) return InvalidArgument("cannot unlink root");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Node* node = WalkLocked(*parts);
    if (node == nullptr) return NotFound("no such name");
    if (node->is_directory) return InvalidArgument("is a directory");
  }
  participant_.Join(txid);
  std::string owned_path(path);
  participant_.StageApply(txid,
                          [this, owned_path] { return Unlink(owned_path); });
  return OkStatus();
}

Result<storage::ObjectRef> NamingService::Lookup(std::string_view path) const {
  auto parts = SplitPath(path);
  if (!parts.ok()) return parts.status();
  std::lock_guard<std::mutex> lock(mutex_);
  Node* node = WalkLocked(*parts);
  if (node == nullptr) return NotFound("no such name");
  if (node->is_directory || !node->ref) return InvalidArgument("not a link");
  return *node->ref;
}

Status NamingService::Unlink(std::string_view path) {
  auto parts = SplitPath(path);
  if (!parts.ok()) return parts.status();
  if (parts->empty()) return InvalidArgument("cannot unlink root");
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> parent(parts->begin(), parts->end() - 1);
  Node* dir = WalkLocked(parent);
  if (dir == nullptr) return NotFound("no such path");
  auto it = dir->children.find(parts->back());
  if (it == dir->children.end()) return NotFound("no such name");
  if (it->second->is_directory) return InvalidArgument("is a directory");
  dir->children.erase(it);
  if (oplog_ != nullptr) {
    OpRecord rec;
    rec.kind = OpRecord::Kind::kUnlink;
    rec.a = std::string(path);
    oplog_->Append(std::move(rec));
  }
  return OkStatus();
}

Status NamingService::Rmdir(std::string_view path) {
  auto parts = SplitPath(path);
  if (!parts.ok()) return parts.status();
  if (parts->empty()) return InvalidArgument("cannot remove root");
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> parent(parts->begin(), parts->end() - 1);
  Node* dir = WalkLocked(parent);
  if (dir == nullptr) return NotFound("no such path");
  auto it = dir->children.find(parts->back());
  if (it == dir->children.end()) return NotFound("no such directory");
  if (!it->second->is_directory) return InvalidArgument("not a directory");
  if (!it->second->children.empty()) {
    return FailedPrecondition("directory not empty");
  }
  dir->children.erase(it);
  if (oplog_ != nullptr) {
    OpRecord rec;
    rec.kind = OpRecord::Kind::kRmdir;
    rec.a = std::string(path);
    oplog_->Append(std::move(rec));
  }
  return OkStatus();
}

Status NamingService::Rename(std::string_view from, std::string_view to) {
  auto from_parts = SplitPath(from);
  if (!from_parts.ok()) return from_parts.status();
  auto to_parts = SplitPath(to);
  if (!to_parts.ok()) return to_parts.status();
  if (from_parts->empty() || to_parts->empty()) {
    return InvalidArgument("cannot rename root");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> from_parent(from_parts->begin(),
                                       from_parts->end() - 1);
  std::vector<std::string> to_parent(to_parts->begin(), to_parts->end() - 1);
  Node* src_dir = WalkLocked(from_parent);
  Node* dst_dir = WalkLocked(to_parent);
  if (src_dir == nullptr || dst_dir == nullptr) {
    return NotFound("missing parent directory");
  }
  auto src = src_dir->children.find(from_parts->back());
  if (src == src_dir->children.end()) return NotFound("no such name");
  if (dst_dir->children.contains(to_parts->back())) {
    return AlreadyExists("destination exists");
  }
  dst_dir->children.emplace(to_parts->back(), std::move(src->second));
  src_dir->children.erase(src);
  if (oplog_ != nullptr) {
    OpRecord rec;
    rec.kind = OpRecord::Kind::kRename;
    rec.a = std::string(from);
    rec.b = std::string(to);
    oplog_->Append(std::move(rec));
  }
  return OkStatus();
}

Result<std::vector<DirEntry>> NamingService::List(
    std::string_view dir_path) const {
  auto parts = SplitPath(dir_path);
  if (!parts.ok()) return parts.status();
  std::lock_guard<std::mutex> lock(mutex_);
  Node* node = WalkLocked(*parts);
  if (node == nullptr) return NotFound("no such path");
  if (!node->is_directory) return InvalidArgument("not a directory");
  std::vector<DirEntry> out;
  out.reserve(node->children.size());
  for (const auto& [name, child] : node->children) {
    out.push_back(DirEntry{name, child->is_directory, child->ref});
  }
  return out;
}

bool NamingService::Exists(std::string_view path) const {
  auto parts = SplitPath(path);
  if (!parts.ok()) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  return WalkLocked(*parts) != nullptr;
}

bool NamingService::IsDirectory(std::string_view path) const {
  auto parts = SplitPath(path);
  if (!parts.ok()) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  Node* node = WalkLocked(*parts);
  return node != nullptr && node->is_directory;
}

Status NamingService::Replay(const OpRecord& record) {
  switch (record.kind) {
    case OpRecord::Kind::kMkdir:
      return Mkdir(record.a, record.flag);
    case OpRecord::Kind::kLink:
      return Link(record.a, record.ref);
    case OpRecord::Kind::kUnlink:
      return Unlink(record.a);
    case OpRecord::Kind::kRmdir:
      return Rmdir(record.a);
    case OpRecord::Kind::kRename:
      return Rename(record.a, record.b);
    default:
      return InvalidArgument("not a namespace record");
  }
}

std::uint64_t NamingService::link_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return links_;
}

namespace {

constexpr std::uint32_t kSnapshotMagic = 0x4C4E414D;  // "LNAM"

}  // namespace

Buffer NamingService::Serialize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Encoder enc;
  codec::Put(enc, kSnapshotMagic);
  // Iterative pre-order walk; each frame emits one SnapshotNode.
  struct Frame {
    const Node* node;
    std::string name;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{root_.get(), ""});
  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    SnapshotNode{
        DirEntry{std::move(frame.name), frame.node->is_directory,
                 frame.node->ref},
        static_cast<std::uint32_t>(frame.node->children.size())}
        .Encode(enc);
    // Reverse order so children pop in forward order (cosmetic).
    for (auto it = frame.node->children.rbegin();
         it != frame.node->children.rend(); ++it) {
      stack.push_back(Frame{it->second.get(), it->first});
    }
  }
  return std::move(enc).Take();
}

Status NamingService::Restore(ByteSpan snapshot) {
  Decoder dec(snapshot);
  auto magic = codec::Decode<std::uint32_t>(dec);
  if (!magic.ok() || *magic != kSnapshotMagic) {
    return InvalidArgument("bad namespace snapshot");
  }

  // Rebuild into a staging tree first so a corrupt snapshot cannot destroy
  // the live namespace.
  struct Pending {
    Node* node;
    std::uint32_t children_left;
  };
  auto new_root = std::make_unique<Node>();
  std::uint64_t links = 0;
  std::vector<Pending> stack;

  auto root = SnapshotNode::Decode(dec);
  if (!root.ok() || root->entry.ref) {
    return InvalidArgument("corrupt snapshot root");
  }
  stack.push_back(Pending{new_root.get(), root->children});

  while (!stack.empty()) {
    if (stack.back().children_left == 0) {
      stack.pop_back();
      continue;
    }
    --stack.back().children_left;
    Node* parent = stack.back().node;

    auto node = SnapshotNode::Decode(dec);
    if (!node.ok() || node->entry.name.empty()) {
      return InvalidArgument("corrupt snapshot node");
    }
    auto child = std::make_unique<Node>();
    child->is_directory = node->entry.is_directory;
    child->ref = node->entry.ref;
    if (child->ref) ++links;
    Node* raw = child.get();
    if (parent->children.contains(node->entry.name)) {
      return InvalidArgument("duplicate name in snapshot");
    }
    parent->children.emplace(std::move(node->entry.name), std::move(child));
    stack.push_back(Pending{raw, node->children});
  }
  if (!dec.exhausted()) return InvalidArgument("trailing snapshot bytes");

  std::lock_guard<std::mutex> lock(mutex_);
  root_ = std::move(new_root);
  links_ = links;
  return OkStatus();
}

}  // namespace lwfs::naming
