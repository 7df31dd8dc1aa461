// Datasets: an HDF5/netCDF-flavoured array layer directly on LwfsFs.
//
// §6: "commonly used high-level libraries can make better use of the
// underlying hardware ... if they bypass the intermediate layers and
// interact directly with the LWFS core components."  A Dataset is an
// n-dimensional row-major array with named string attributes; hyperslab
// reads/writes map to file extents on an LwfsFs file, which maps to striped
// objects, which map to storage servers — no POSIX layer in between.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "lwfsfs/lwfsfs.h"
#include "util/codec.h"
#include "util/status.h"

namespace lwfs::io {

struct DatasetSpec {
  std::vector<std::uint64_t> dims;  // row-major, slowest first
  std::uint32_t elem_size = 1;

  [[nodiscard]] std::uint64_t ElementCount() const {
    std::uint64_t n = 1;
    for (std::uint64_t d : dims) n *= d;
    return n;
  }
  [[nodiscard]] std::uint64_t ByteSize() const {
    return ElementCount() * elem_size;
  }
};

inline constexpr std::uint32_t kDatasetMagic = 0x4C444154;  // "LDAT"

/// What a dataset's header file holds: a magic, the element size, the
/// dimensions and the (key, value) attributes in key order.
struct DatasetHeader {
  std::uint32_t magic = kDatasetMagic;
  std::uint32_t elem_size = 1;
  std::vector<std::uint64_t> dims;
  std::vector<std::pair<std::string, std::string>> attributes;
  LWFS_CODEC(DatasetHeader, magic, elem_size, dims, attributes)
};

/// A contiguous run of a hyperslab in file space.
struct SlabRun {
  std::uint64_t file_offset = 0;  // bytes
  std::uint64_t length = 0;       // bytes
};

/// Decompose the hyperslab [start, start+count) of a dataset into
/// contiguous byte runs (row-major).  Pure; exhaustively tested.
Result<std::vector<SlabRun>> MapHyperslab(const DatasetSpec& spec,
                                          std::span<const std::uint64_t> start,
                                          std::span<const std::uint64_t> count);

class Dataset {
 public:
  /// Create a dataset file plus its header at `path`.
  static Result<Dataset> Create(
      fs::LwfsFs* fs, const std::string& path, DatasetSpec spec,
      std::map<std::string, std::string> attributes = {});

  /// Open an existing dataset.
  static Result<Dataset> Open(fs::LwfsFs* fs, const std::string& path);

  /// Write the hyperslab [start, start+count); `data` holds the slab
  /// row-major and must be exactly the slab's byte size.  Every contiguous
  /// run goes out in one striped list write, as an O(1) sub-slice of
  /// `data` (an owned slice is never staged and keeps the slab alive until
  /// every run retires).
  Status WriteSlab(std::span<const std::uint64_t> start,
                   std::span<const std::uint64_t> count,
                   const util::SharedSlice& data);

  /// Read the hyperslab into one freshly allocated slice of exactly the
  /// slab's size: every run lands in its part of it through one striped
  /// list read.  Holes and bytes past the end of the file read as zero.
  Result<util::SharedSlice> ReadSlab(std::span<const std::uint64_t> start,
                                     std::span<const std::uint64_t> count);

  [[nodiscard]] const DatasetSpec& spec() const { return spec_; }
  [[nodiscard]] const std::map<std::string, std::string>& attributes() const {
    return attributes_;
  }
  [[nodiscard]] const std::string& path() const { return path_; }
  /// The underlying file (for collective/sieved access layered above).
  [[nodiscard]] fs::FileHandle& file() { return file_; }

 private:
  Dataset(fs::LwfsFs* fs, std::string path) : fs_(fs), path_(std::move(path)) {}

  static std::string HeaderPath(const std::string& path) {
    return path + ".dshdr";
  }

  fs::LwfsFs* fs_;
  std::string path_;
  DatasetSpec spec_;
  std::map<std::string, std::string> attributes_;
  fs::FileHandle file_;
};

}  // namespace lwfs::io
