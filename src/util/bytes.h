// Byte buffers and a compact little-endian wire format.
//
// Every RPC payload in the system is encoded with Encoder/Decoder.  The
// format is fixed-width little-endian integers and length-prefixed byte
// strings; no varints, no alignment padding.  Decoding is bounds-checked and
// never reads past the underlying buffer.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace lwfs {

namespace util {
class SharedSlice;  // util/shared_buffer.h
}  // namespace util

/// The universal transfer buffer type.
using Buffer = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;
using MutableByteSpan = std::span<std::uint8_t>;

/// Appends fixed-width little-endian fields to a Buffer.
class Encoder {
 public:
  Encoder() = default;
  explicit Encoder(Buffer initial) : buf_(std::move(initial)) {}

  void PutU8(std::uint8_t v) { buf_.push_back(v); }
  void PutU16(std::uint16_t v) { PutLe(v); }
  void PutU32(std::uint32_t v) { PutLe(v); }
  void PutU64(std::uint64_t v) { PutLe(v); }
  void PutI64(std::int64_t v) { PutLe(static_cast<std::uint64_t>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutDouble(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }

  /// Pre-size for `n` more bytes.  The typed codecs call this before a
  /// bulk append so multi-MB payloads land in one allocation instead of
  /// reallocating through the doubling schedule.
  void Reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  /// Length-prefixed (u32) byte string.
  void PutBytes(ByteSpan data) {
    PutU32(static_cast<std::uint32_t>(data.size()));
    Reserve(data.size());
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  void PutString(std::string_view s) {
    PutBytes(ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()),
                      s.size()));
  }

  /// Length-prefixed slice append.  Encoding into a contiguous buffer
  /// necessarily copies; the zero-copy counterpart is Decoder::TakeSlice
  /// (and FrameBuilder for send-side scatter-gather).  Defined in
  /// util/shared_buffer.h.
  void PutSlice(const util::SharedSlice& s);

  /// Raw append with no length prefix (caller knows the framing).
  void PutRaw(ByteSpan data) {
    Reserve(data.size());
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  [[nodiscard]] const Buffer& buffer() const { return buf_; }
  [[nodiscard]] Buffer Take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void PutLe(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  Buffer buf_;
};

/// Bounds-checked reader over an immutable byte span.  All getters return a
/// Result so malformed wire data surfaces as kInvalidArgument, never UB.
class Decoder {
 public:
  explicit Decoder(ByteSpan data) : data_(data) {}
  explicit Decoder(const Buffer& b) : data_(b.data(), b.size()) {}
  /// Decode over a shared slice: TakeSlice() results alias the slice's
  /// bytes and keep its owner alive — zero-copy decode.  Defined in
  /// util/shared_buffer.h.
  explicit Decoder(const util::SharedSlice& s);

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return remaining() == 0; }
  /// True once a read has failed for want of bytes — what tells a torn
  /// tail (the input ends mid-record) from a malformed complete record.
  [[nodiscard]] bool truncated() const { return truncated_; }

  Result<std::uint8_t> GetU8() { return GetLe<std::uint8_t>(); }
  Result<std::uint16_t> GetU16() { return GetLe<std::uint16_t>(); }
  Result<std::uint32_t> GetU32() { return GetLe<std::uint32_t>(); }
  Result<std::uint64_t> GetU64() { return GetLe<std::uint64_t>(); }
  Result<std::int64_t> GetI64() {
    auto r = GetLe<std::uint64_t>();
    if (!r.ok()) return r.status();
    return static_cast<std::int64_t>(*r);
  }
  Result<bool> GetBool() {
    auto r = GetU8();
    if (!r.ok()) return r.status();
    return *r != 0;
  }
  Result<double> GetDouble() {
    auto r = GetU64();
    if (!r.ok()) return r.status();
    double v;
    std::uint64_t bits = *r;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Result<Buffer> GetBytes() {
    auto len = GetU32();
    if (!len.ok()) return len.status();
    if (remaining() < *len) return Truncated("truncated byte string");
    Buffer out(data_.begin() + pos_, data_.begin() + pos_ + *len);
    pos_ += *len;
    return out;
  }

  Result<std::string> GetString() {
    auto b = GetBytes();
    if (!b.ok()) return b.status();
    return std::string(b->begin(), b->end());
  }

  /// Length-prefixed slice.  When this Decoder was constructed from a
  /// SharedSlice the result is a zero-copy sub-slice sharing the frame's
  /// owner (safe to hold past the Decoder); otherwise it is one counted
  /// copy.  Defined in util/shared_buffer.h.
  Result<util::SharedSlice> TakeSlice();

  /// View of the rest of the buffer without consuming it.
  [[nodiscard]] ByteSpan Rest() const { return data_.subspan(pos_); }

  /// Consume `n` raw bytes.
  Result<ByteSpan> GetRaw(std::size_t n) {
    if (remaining() < n) return Truncated("truncated raw bytes");
    ByteSpan out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

 private:
  Status Truncated(std::string what) {
    truncated_ = true;
    return InvalidArgument(std::move(what));
  }

  template <typename T>
  Result<T> GetLe() {
    if (remaining() < sizeof(T)) return Truncated("truncated integer");
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  ByteSpan data_;
  std::size_t pos_ = 0;
  bool truncated_ = false;
  /// Keeps the decoded frame alive when constructed from a SharedSlice,
  /// and lets TakeSlice() hand out aliasing sub-slices.
  std::shared_ptr<const void> owner_;
};

/// Convenience: build a Buffer holding `n` bytes of a repeating fill pattern
/// derived from `seed` (used by tests and checkpoint payload generators).
inline Buffer PatternBuffer(std::size_t n, std::uint64_t seed) {
  Buffer b(n);
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + 1;
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b[i] = static_cast<std::uint8_t>(x);
  }
  return b;
}

}  // namespace lwfs
