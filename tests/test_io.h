// Synchronous shorthands the tests use over each client stack's one async
// list call per direction (core::Client, pfs::PfsClient, fs::LwfsFs): one
// piece, awaited with core::Await.
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/client.h"
#include "util/bytes.h"
#include "util/shared_buffer.h"
#include "util/status.h"

namespace lwfs::testio {

/// One borrowed-span write at `offset` through a file system's WriteAsync.
template <typename Fs, typename File>
Status WriteAt(Fs& fs, File& file, std::uint64_t offset, ByteSpan data) {
  return core::Await(fs.WriteAsync(
                         file, {{offset, util::SharedSlice::External(data)}}))
      .status();
}

/// One span read at `offset` through a file system's ReadAsync; returns
/// the bytes read.
template <typename Fs, typename File>
Result<std::uint64_t> ReadAt(Fs& fs, File& file, std::uint64_t offset,
                             MutableByteSpan out) {
  auto done = core::Await(fs.ReadAsync(file, {{offset, out.size(), out}}));
  if (!done.ok()) return done.status();
  return done->bytes;
}

/// One slice read of up to `length` bytes at `offset` through a file
/// system's ReadAsync.
template <typename Fs, typename File>
Result<util::SharedSlice> ReadSliceAt(Fs& fs, File& file, std::uint64_t offset,
                                      std::uint64_t length) {
  auto done = core::Await(fs.ReadAsync(file, {{offset, length}}));
  if (!done.ok()) return done.status();
  return std::move(done->slices.front());
}

/// One slice read of an object.
inline Result<util::SharedSlice> ReadObjectSlice(
    core::Client& client, std::uint32_t server,
    const security::Capability& cap, storage::ObjectId oid,
    std::uint64_t offset, std::uint64_t length) {
  auto done = core::Await(
      client.ReadObjectAsync(server, cap, oid, {{offset, length}}));
  if (!done.ok()) return done.status();
  return std::move(done->slices.front());
}

/// The bytes an object holds in [offset, offset + length), short at EOF.
inline Result<Buffer> ReadObjectBytes(core::Client& client,
                                      std::uint32_t server,
                                      const security::Capability& cap,
                                      storage::ObjectId oid,
                                      std::uint64_t offset,
                                      std::uint64_t length) {
  auto slice = ReadObjectSlice(client, server, cap, oid, offset, length);
  if (!slice.ok()) return slice.status();
  return Buffer(slice->span().begin(), slice->span().end());
}

/// One slice write of an object.
inline Status WriteObjectSlice(core::Client& client, std::uint32_t server,
                               const security::Capability& cap,
                               storage::ObjectId oid, std::uint64_t offset,
                               const util::SharedSlice& data) {
  return core::Await(
             client.WriteObjectAsync(server, cap, oid, {{offset, data}}))
      .status();
}

/// A borrowed-span chain-replicated write.
inline Status WriteReplicated(core::Client& client,
                              const security::Capability& cap,
                              const core::ReplicaChain& chain,
                              std::uint64_t offset, ByteSpan data) {
  return client.WriteReplicatedSlice(cap, chain, offset,
                                     util::SharedSlice::External(data));
}

/// A hedged read-from-any into `out`; returns the bytes read.
inline Result<std::uint64_t> ReadReplicated(core::Client& client,
                                            const security::Capability& cap,
                                            const core::ReplicaChain& chain,
                                            std::uint64_t offset,
                                            MutableByteSpan out) {
  auto slice = client.ReadReplicatedSlice(cap, chain, offset, out.size());
  if (!slice.ok()) return slice.status();
  std::copy(slice->span().begin(), slice->span().end(), out.begin());
  return slice->size();
}

}  // namespace lwfs::testio
