#include "storage/object_store.h"

#include "util/crc32.h"

namespace lwfs::storage {

std::size_t PieceCount(std::uint64_t offset, std::uint64_t length) {
  if (length == 0) return 0;
  return static_cast<std::size_t>((offset + length - 1) / kExtentBytes -
                                  offset / kExtentBytes + 1);
}

std::vector<std::uint32_t> PieceCrcs(std::uint64_t offset, ByteSpan data) {
  std::vector<std::uint32_t> crcs;
  crcs.reserve(PieceCount(offset, data.size()));
  const std::uint64_t end = offset + data.size();
  for (std::uint64_t pos = offset; pos < end;) {
    const auto len = static_cast<std::size_t>(PieceLength(pos, end));
    crcs.push_back(Crc32(data.subspan(pos - offset, len)));
    pos += len;
  }
  return crcs;
}

std::uint32_t CombinePieceCrcs(std::uint64_t offset, std::uint64_t length,
                               std::span<const std::uint32_t> crcs) {
  std::uint32_t crc = 0;  // CRC32 of the empty prefix
  const std::uint64_t end = offset + length;
  std::size_t i = 0;
  for (std::uint64_t pos = offset; pos < end && i < crcs.size(); ++i) {
    const std::uint64_t len = PieceLength(pos, end);
    crc = Crc32Combine(crc, crcs[i], len);
    pos += len;
  }
  return crc;
}

namespace detail {

Status CheckPieceCrcs(std::uint64_t offset, std::uint64_t length,
                      std::span<const std::uint32_t> want) {
  if (length == 0 || want.size() == 1 ||
      want.size() == PieceCount(offset, length)) {
    return OkStatus();
  }
  return InvalidArgument("write checksums match neither its pieces nor 1");
}

Status MatchPieceCrcs(std::uint64_t offset, std::uint64_t length,
                      std::span<const std::uint32_t> have,
                      std::span<const std::uint32_t> want) {
  if (length == 0) return OkStatus();
  const bool match =
      want.size() == have.size()
          ? std::equal(have.begin(), have.end(), want.begin())
          : CombinePieceCrcs(offset, length, have) == want.front();
  if (!match) return DataLoss("write payload failed its checksum");
  return OkStatus();
}

}  // namespace detail

Result<StagedWrite> ObjectStore::Stage(ObjectId oid, std::uint64_t offset,
                                       const util::SharedSlice& data,
                                       std::span<const std::uint32_t> crcs) {
  LWFS_RETURN_IF_ERROR(detail::CheckPieceCrcs(offset, data.size(), crcs));
  // Verify first, then copy (in Publish): a standalone pass.
  LWFS_COUNT_CRC(util::CrcSide::kServer, data.size());
  LWFS_RETURN_IF_ERROR(detail::MatchPieceCrcs(
      offset, data.size(), PieceCrcs(offset, data.span()), crcs));
  return StagedWrite{oid, offset, data, {}};
}

Status ObjectStore::Publish(StagedWrite staged) {
  return WriteSlice(staged.oid, staged.offset, staged.data);
}

Status ObjectStore::WriteVerified(ObjectId oid, std::uint64_t offset,
                                  const util::SharedSlice& data,
                                  std::span<const std::uint32_t> crcs) {
  auto staged = Stage(oid, offset, data, crcs);
  if (!staged.ok()) return staged.status();
  return Publish(std::move(*staged));
}

}  // namespace lwfs::storage
