// Naming service: paths -> object references.
//
// Naming is deliberately *not* part of the LWFS-core (Figure 3): it is one
// of the optional client services layered above it.  The checkpoint library
// uses it to bind a human-readable checkpoint path to the metadata object
// that describes a checkpoint's data objects, and the PFS-over-LWFS layer
// uses it as its namespace.
//
// Names can be created transactionally: a staged link only becomes visible
// when the surrounding two-phase transaction commits (Figure 8 line 9 runs
// inside a transaction).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "naming/op_log.h"
#include "storage/ids.h"
#include "txn/two_phase.h"
#include "util/bytes.h"
#include "util/codec.h"
#include "util/status.h"

namespace lwfs::naming {

/// Split "/a/b/c" into {"a","b","c"}.  Rejects empty components, "." and
/// "..", and paths not starting with '/'.
Result<std::vector<std::string>> SplitPath(std::string_view path);

struct DirEntry {
  std::string name;
  bool is_directory = false;
  std::optional<storage::ObjectRef> ref;  // set for links
  LWFS_CODEC(DirEntry, name, is_directory, ref)
};

/// One node of a NamingService snapshot, in pre-order: its entry (the root's
/// name is empty), then how many child nodes follow.
struct SnapshotNode {
  DirEntry entry;
  std::uint32_t children = 0;
  LWFS_CODEC(SnapshotNode, entry, children)
};

class NamingService {
 public:
  /// `participant_name` is this service's identity at the 2PC coordinator
  /// ("naming" for a single-shard deployment, "naming<i>" for shard i —
  /// recovery matches journal records to participants by name).  `oplog`,
  /// when set, receives a record for every committed mutation *before* the
  /// mutating call returns, so a warm standby replaying the log loses no
  /// acknowledged operation.
  explicit NamingService(std::string participant_name = "naming",
                         OpLog* oplog = nullptr);

  /// Create a directory (and parents with `recursive`).
  Status Mkdir(std::string_view path, bool recursive = false);

  /// Bind `path` to an object reference.  Parent directory must exist;
  /// the name must not.
  Status Link(std::string_view path, const storage::ObjectRef& ref);

  /// Stage a link inside transaction `txid`: invisible until commit, gone
  /// on abort.
  Status StageLink(txn::TxnId txid, std::string_view path,
                   const storage::ObjectRef& ref);

  /// Stage an unlink inside transaction `txid`: the name stays visible
  /// until commit.  The other half of an atomic cross-shard rename (the
  /// destination shard stages the link, the source shard stages the
  /// unlink, and the journalled 2PC decision flips both together).
  Status StageUnlink(txn::TxnId txid, std::string_view path);

  Result<storage::ObjectRef> Lookup(std::string_view path) const;

  Status Unlink(std::string_view path);

  /// Remove an empty directory.
  Status Rmdir(std::string_view path);

  Status Rename(std::string_view from, std::string_view to);

  Result<std::vector<DirEntry>> List(std::string_view dir_path) const;

  [[nodiscard]] bool Exists(std::string_view path) const;

  /// True iff `path` exists and is a directory (used by shard servers to
  /// reject directory renames that cannot be atomic under partitioning).
  [[nodiscard]] bool IsDirectory(std::string_view path) const;

  /// Standby replay: apply one op-log record through the normal mutators.
  /// Call only while no op log is attached (a standby attaches the log via
  /// SetOpLog *after* catching up, so replay never re-logs).
  Status Replay(const OpRecord& record);

  /// Attach (or detach) the committed-mutation log.  A shard primary is
  /// constructed with the log; its standby starts detached, replays, then
  /// attaches before taking traffic.
  void SetOpLog(OpLog* oplog);

  /// The two-phase-commit participant representing this service.
  [[nodiscard]] txn::Participant* participant() { return &participant_; }

  /// Crash simulation: drop staged (uncommitted) links and prepared-but-
  /// undecided transaction state, as a process restart would.  Committed
  /// links survive (they are what Serialize() snapshots).  The
  /// coordinator's journal replay re-delivers outstanding decisions; Abort
  /// of a forgotten transaction is a no-op by the participant contract.
  void ResetStagedState() { participant_.Reset(); }

  [[nodiscard]] std::uint64_t link_count() const;

  /// Serialize the whole namespace (for snapshots: the naming service is a
  /// client-extension service, so durability is the deployment's choice —
  /// e.g. ServiceRuntime persists snapshots next to a file-backed store).
  [[nodiscard]] Buffer Serialize() const;

  /// Replace the namespace with a serialized snapshot.  Staged
  /// (uncommitted) links are not part of snapshots.
  Status Restore(ByteSpan snapshot);

 private:
  struct Node {
    bool is_directory = true;
    std::optional<storage::ObjectRef> ref;
    std::map<std::string, std::unique_ptr<Node>> children;
  };

  /// Walk to the node at `parts`; nullptr if absent.  Lock held by caller.
  Node* WalkLocked(const std::vector<std::string>& parts) const;

  mutable std::mutex mutex_;
  std::unique_ptr<Node> root_;
  std::uint64_t links_ = 0;
  txn::StagedParticipant participant_;
  OpLog* oplog_ = nullptr;  // guarded by mutex_; appended under the lock
};

}  // namespace lwfs::naming
