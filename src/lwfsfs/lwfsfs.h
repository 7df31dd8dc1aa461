// LwfsFs: a parallel file system implemented *above* the LWFS-core.
//
// The paper's §6 names this as the next step: "we plan to implement two
// traditional parallel file systems: one that provides POSIX semantics and
// standard distribution policies, and another (like the PVFS) with relaxed
// synchronization semantics that make the client responsible for data
// consistency."  This module is both, switched by FsConsistency.
//
// Unlike the baseline in src/pfs (which has a centralized metadata server
// by design), LwfsFs has *no* metadata server: a file is an inode object
// plus stripe objects, all created by the client directly on the storage
// servers, and the path is a naming-service entry.  File creation therefore
// scales with the number of storage servers — the architectural win the
// paper measures in Figure 10 carried up to a full file-system interface.
//
//  * kPosix  — writes take exclusive byte-range locks, reads shared locks
//              (via the lock service); sizes are published to the inode on
//              Flush/Close and visible to all openers.
//  * kRelaxed — no locks; the application coordinates (checkpoint-style
//              non-overlapping access); size is derived from stripe sizes.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/client.h"
#include "pfs/layout.h"
#include "pfs/striped_io.h"
#include "security/types.h"
#include "util/codec.h"
#include "util/status.h"

namespace lwfs::fs {

enum class FsConsistency { kPosix, kRelaxed };

struct FsOptions {
  std::uint32_t stripe_size = 1 << 20;
  /// 0 = stripe over all storage servers.
  std::uint32_t default_stripe_count = 0;
  FsConsistency consistency = FsConsistency::kPosix;
};

inline constexpr std::uint32_t kInodeMagic = 0x4C46494E;  // "LFIN"

/// What a file's inode object holds: a magic, the file's stripe layout (the
/// pfs Layout record) and its size as of the last flush.
struct Inode {
  std::uint32_t magic = kInodeMagic;
  pfs::Layout layout;
  std::uint64_t size = 0;
  LWFS_CODEC(Inode, magic, layout, size)
};

/// An open file: the decoded inode plus cached layout.
struct FileHandle {
  std::string path;
  storage::ObjectRef inode;     // the inode object
  std::uint32_t stripe_size = 0;
  std::vector<pfs::StripeTarget> stripes;  // reuse the striping arithmetic
  std::uint64_t size = 0;       // as of open/last flush
};

/// A pending file list write or read on the shared striped engine (window
/// of pfs::kIoWindow object calls).  Under kPosix one byte-range lock over
/// the list's hull is acquired inside Await() before any chunk goes out
/// and released after the drain, so a caller pipelining several FileIo
/// handles never deadlocks against its own window.  Read extents end at
/// the file size, holes read as zero.  The FileHandle, borrowed write
/// slices and landing spans must stay valid until Await() returns (the
/// destructor drains as a backstop).
using FileIo = pfs::StripedIo;

/// One mounted LwfsFs instance.  Bind one per client thread (the underlying
/// Client is thread-compatible, not thread-safe for shared handles).
class LwfsFs {
 public:
  /// Mount a file system rooted at naming path `root` over the container
  /// `cap` authorizes.  Creates the root directory if absent.
  static Result<std::unique_ptr<LwfsFs>> Mount(core::Client* client,
                                               security::Capability cap,
                                               std::string root,
                                               FsOptions options = {});

  // ---- Namespace ----------------------------------------------------------
  Status Mkdir(const std::string& path);
  Result<std::vector<std::string>> Readdir(const std::string& path);
  Status Rename(const std::string& from, const std::string& to);
  [[nodiscard]] bool Exists(const std::string& path);

  // ---- File lifecycle -------------------------------------------------------
  /// Create a file striped over `stripe_count` servers (0 = option
  /// default).  All object creates go directly to the storage servers.
  Result<FileHandle> Create(const std::string& path,
                            std::uint32_t stripe_count = 0);
  /// Create with an application-chosen placement: stripe i lives on
  /// storage server `servers[i]` (repetitions allowed).  Data distribution
  /// is application policy, not core policy (§3.1.1) — this is the hook.
  Result<FileHandle> CreateWithPlacement(
      const std::string& path, std::span<const std::uint32_t> servers);
  Result<FileHandle> Open(const std::string& path);
  /// Unlink the name and remove the inode + stripe objects.
  Status Remove(const std::string& path);

  // ---- Data ------------------------------------------------------------------
  /// Striped list I/O: per-stripe object calls flow through a window of
  /// pfs::kIoWindow outstanding requests; core::Await is the synchronous
  /// form.  Under kPosix, issuance is deferred to FileIo::Await(), which
  /// takes the byte-range lock first.  A successful write grows
  /// `file.size` to the end of the list's hull.
  Result<FileIo> WriteAsync(FileHandle& file,
                            std::vector<core::WritePiece> pieces);
  Result<FileIo> ReadAsync(FileHandle& file,
                           std::vector<core::ReadExtent> extents);
  Status Truncate(FileHandle& file, std::uint64_t size);
  /// Publish the current size to the inode object (POSIX close/fsync
  /// semantics); refreshes `file.size`.
  Status Flush(FileHandle& file);

  /// Current file size: inode-published (POSIX) or derived from stripe
  /// object sizes (relaxed).
  Result<std::uint64_t> Size(const FileHandle& file);

  [[nodiscard]] const FsOptions& options() const { return options_; }
  [[nodiscard]] const std::string& root() const { return root_; }

  // ---- Consistency checking (fsck) ------------------------------------------
  struct FsckReport {
    std::uint64_t files = 0;              // reachable, intact files
    std::uint64_t directories = 0;        // directories walked
    std::uint64_t reachable_objects = 0;  // inodes + stripe objects
    /// Objects in the container no reachable file references — debris from
    /// crashes between object creation and name creation (exactly what the
    /// paper's transactional checkpoint avoids; non-transactional writers
    /// can still leak).
    std::vector<storage::ObjectRef> orphans;
    /// Paths whose inode is missing or corrupt.
    std::vector<std::string> broken_files;
  };

  /// Walk the namespace under the mount root, cross-check every file's
  /// inode and stripe objects, and sweep the container for orphans.  With
  /// `remove_orphans`, debris is deleted.  Only meaningful when the
  /// container is dedicated to this file system.
  Result<FsckReport> Fsck(bool remove_orphans = false);

 private:
  LwfsFs(core::Client* client, security::Capability cap, std::string root,
         FsOptions options)
      : client_(client),
        cap_(std::move(cap)),
        root_(std::move(root)),
        options_(options) {}

  [[nodiscard]] std::string Absolute(const std::string& path) const;
  Status WriteInode(const FileHandle& file);
  Result<FileHandle> DecodeInode(const std::string& path,
                                 const storage::ObjectRef& ref);
  /// Derived size: max over stripes of the byte the stripe's extent maps
  /// back to in file space.
  Result<std::uint64_t> DerivedSize(const FileHandle& file);
  [[nodiscard]] pfs::StripedFile Striped(const FileHandle& file) const;
  /// kPosix byte-range locking (shared for reads); reads clamp to the size
  /// seen under the lock and read holes as zero, writes grow `file.size`.
  [[nodiscard]] pfs::StripedPolicy Policy(FileHandle& file, bool is_read);

  core::Client* client_;
  security::Capability cap_;
  std::string root_;
  FsOptions options_;
};

}  // namespace lwfs::fs
