#include "libio/dataset.h"

#include <algorithm>

namespace lwfs::io {

Result<std::vector<SlabRun>> MapHyperslab(const DatasetSpec& spec,
                                          std::span<const std::uint64_t> start,
                                          std::span<const std::uint64_t> count) {
  const std::size_t ndims = spec.dims.size();
  if (ndims == 0) return InvalidArgument("dataset has no dimensions");
  if (start.size() != ndims || count.size() != ndims) {
    return InvalidArgument("start/count rank mismatch");
  }
  std::uint64_t slab_elems = 1;
  for (std::size_t d = 0; d < ndims; ++d) {
    if (count[d] == 0) return std::vector<SlabRun>{};
    if (start[d] + count[d] > spec.dims[d]) {
      return OutOfRange("hyperslab exceeds dataset extent");
    }
    slab_elems *= count[d];
  }

  // Row-major strides in elements.
  std::vector<std::uint64_t> stride(ndims, 1);
  for (std::size_t d = ndims - 1; d > 0; --d) {
    stride[d - 1] = stride[d] * spec.dims[d];
  }

  // The innermost contiguous run: merge trailing dimensions that the slab
  // covers completely.
  std::size_t run_dims = 1;  // trailing dims folded into one run
  std::uint64_t run_elems = count[ndims - 1];
  while (run_dims < ndims && count[ndims - run_dims] == spec.dims[ndims - run_dims]) {
    ++run_dims;
    if (run_dims <= ndims) {
      run_elems = 1;
      for (std::size_t d = ndims - run_dims; d < ndims; ++d) run_elems *= count[d];
    }
  }
  const std::size_t outer_dims = ndims - run_dims;

  std::vector<SlabRun> runs;
  runs.reserve(static_cast<std::size_t>(slab_elems / std::max<std::uint64_t>(run_elems, 1)));
  std::vector<std::uint64_t> idx(outer_dims, 0);
  for (;;) {
    std::uint64_t elem_offset = 0;
    for (std::size_t d = 0; d < outer_dims; ++d) {
      elem_offset += (start[d] + idx[d]) * stride[d];
    }
    for (std::size_t d = outer_dims; d < ndims; ++d) {
      elem_offset += start[d] * stride[d];
    }
    runs.push_back(SlabRun{elem_offset * spec.elem_size,
                           run_elems * spec.elem_size});
    // Odometer over the outer dimensions.
    std::size_t d = outer_dims;
    while (d > 0) {
      --d;
      if (++idx[d] < count[d]) break;
      idx[d] = 0;
      if (d == 0) return runs;
    }
    if (outer_dims == 0) return runs;
  }
}

Result<Dataset> Dataset::Create(fs::LwfsFs* fs, const std::string& path,
                                DatasetSpec spec,
                                std::map<std::string, std::string> attributes) {
  if (spec.dims.empty() || spec.elem_size == 0) {
    return InvalidArgument("bad dataset spec");
  }
  Dataset ds(fs, path);
  ds.spec_ = std::move(spec);
  ds.attributes_ = std::move(attributes);

  // Header file.
  const Buffer bytes = codec::Encode(DatasetHeader{
      kDatasetMagic, ds.spec_.elem_size, ds.spec_.dims,
      {ds.attributes_.begin(), ds.attributes_.end()}});
  auto header = fs->Create(HeaderPath(path));
  if (!header.ok()) return header.status();
  LWFS_RETURN_IF_ERROR(
      core::Await(fs->WriteAsync(
                      *header, {{0, util::SharedSlice::External(bytes)}}))
          .status());
  LWFS_RETURN_IF_ERROR(fs->Flush(*header));

  auto file = fs->Create(path);
  if (!file.ok()) return file.status();
  ds.file_ = std::move(*file);
  return ds;
}

Result<Dataset> Dataset::Open(fs::LwfsFs* fs, const std::string& path) {
  Dataset ds(fs, path);
  auto header = fs->Open(HeaderPath(path));
  if (!header.ok()) return header.status();
  auto size = fs->Size(*header);
  if (!size.ok()) return size.status();
  auto raw = core::Await(fs->ReadAsync(*header, {{0, *size}}));
  if (!raw.ok()) return raw.status();

  Decoder dec(raw->slices.front().span());
  auto h = DatasetHeader::Decode(dec);
  if (!h.ok()) return DataLoss("corrupt dataset header for " + path);
  if (h->magic != kDatasetMagic) {
    return DataLoss("bad dataset header for " + path);
  }
  ds.spec_.elem_size = h->elem_size;
  ds.spec_.dims = std::move(h->dims);
  ds.attributes_.insert(h->attributes.begin(), h->attributes.end());

  auto file = fs->Open(path);
  if (!file.ok()) return file.status();
  ds.file_ = std::move(*file);
  return ds;
}

Status Dataset::WriteSlab(std::span<const std::uint64_t> start,
                          std::span<const std::uint64_t> count,
                          const util::SharedSlice& data) {
  auto runs = MapHyperslab(spec_, start, count);
  if (!runs.ok()) return runs.status();
  std::uint64_t total = 0;
  for (const SlabRun& run : *runs) total += run.length;
  if (total != data.size()) {
    return InvalidArgument("data size does not match hyperslab");
  }
  std::vector<core::WritePiece> pieces;
  pieces.reserve(runs->size());
  std::uint64_t pos = 0;
  for (const SlabRun& run : *runs) {
    pieces.push_back({run.file_offset,
                      data.Slice(static_cast<std::size_t>(pos),
                                 static_cast<std::size_t>(run.length))});
    pos += run.length;
  }
  return core::Await(fs_->WriteAsync(file_, std::move(pieces))).status();
}

Result<util::SharedSlice> Dataset::ReadSlab(
    std::span<const std::uint64_t> start,
    std::span<const std::uint64_t> count) {
  auto runs = MapHyperslab(spec_, start, count);
  if (!runs.ok()) return runs.status();
  std::uint64_t total = 0;
  for (const SlabRun& run : *runs) total += run.length;
  Buffer out(static_cast<std::size_t>(total), std::uint8_t{0});
  std::vector<core::ReadExtent> extents;
  extents.reserve(runs->size());
  std::uint64_t pos = 0;
  for (const SlabRun& run : *runs) {
    extents.push_back({run.file_offset, run.length,
                       MutableByteSpan(out).subspan(
                           static_cast<std::size_t>(pos),
                           static_cast<std::size_t>(run.length))});
    pos += run.length;
  }
  auto done = core::Await(fs_->ReadAsync(file_, std::move(extents)));
  if (!done.ok()) return done.status();
  return util::SharedSlice::FromBuffer(std::move(out));
}

}  // namespace lwfs::io
