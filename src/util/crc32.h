// CRC32-C (Castagnoli polynomial, reflected) for wire and journal
// integrity.
//
// Every RPC frame and journal record carries a CRC so that corruption —
// injected by the fault fabric or real in a deployment — surfaces as a
// clean kDataLoss/retransmit instead of a garbage decode.  On x86-64 the
// checksum uses the SSE4.2 crc32 instruction (runtime-detected) on three
// interleaved streams merged by table-driven shifts, which keeps the
// per-byte cost well under the memcpy the fabric already pays per
// transfer; elsewhere a slicing-by-8 table fallback computes the same
// polynomial.  Checksums never leave the process (frames and journals are
// written and read by this code), so the polynomial is an internal choice.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "util/bytes.h"

namespace lwfs {

namespace detail {

// Reflected CRC32-C polynomial (bit-reversed 0x1EDC6F41) — the same one
// the SSE4.2 crc32 instruction implements, so the table fallback and the
// hardware path agree bit-for-bit.
constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;

struct Crc32Tables {
  std::array<std::array<std::uint32_t, 256>, 8> t;

  Crc32Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kCrc32cPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (std::size_t slice = 1; slice < 8; ++slice) {
        t[slice][i] = (t[slice - 1][i] >> 8) ^ t[0][t[slice - 1][i] & 0xFFu];
      }
    }
  }
};

inline const Crc32Tables& Crc32T() {
  static const Crc32Tables tables;
  return tables;
}

inline std::uint32_t Crc32UpdateSw(std::uint32_t crc, const std::uint8_t* data,
                                   std::size_t size) {
  const auto& t = Crc32T().t;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const std::uint32_t lo = crc ^ (static_cast<std::uint32_t>(data[i]) |
                                    static_cast<std::uint32_t>(data[i + 1]) << 8 |
                                    static_cast<std::uint32_t>(data[i + 2]) << 16 |
                                    static_cast<std::uint32_t>(data[i + 3]) << 24);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][data[i + 4]] ^ t[2][data[i + 5]] ^
          t[1][data[i + 6]] ^ t[0][data[i + 7]];
  }
  for (; i < size; ++i) {
    crc = (crc >> 8) ^ t[0][(crc ^ data[i]) & 0xFFu];
  }
  return crc;
}

/// Multiply a 32x32 GF(2) matrix (rows = images of basis vectors) by a
/// column vector.
inline std::uint32_t Gf2MatrixTimes(const std::uint32_t* mat,
                                    std::uint32_t vec) {
  std::uint32_t sum = 0;
  while (vec != 0) {
    if (vec & 1u) sum ^= *mat;
    vec >>= 1;
    ++mat;
  }
  return sum;
}

inline void Gf2MatrixSquare(std::uint32_t* dst, const std::uint32_t* src) {
  for (int n = 0; n < 32; ++n) dst[n] = Gf2MatrixTimes(src, src[n]);
}

/// Operators that advance a CRC register past 2^k zero bytes, k = 0..63,
/// built once by repeated squaring of the one-zero-bit operator.
struct Crc32ZeroOps {
  std::uint32_t op[64][32];

  Crc32ZeroOps() {
    std::uint32_t odd[32];
    std::uint32_t even[32];
    odd[0] = kCrc32cPoly;  // operator for one zero bit
    std::uint32_t row = 1;
    for (int n = 1; n < 32; ++n) {
      odd[n] = row;
      row <<= 1;
    }
    Gf2MatrixSquare(even, odd);   // two zero bits
    Gf2MatrixSquare(odd, even);   // four zero bits
    Gf2MatrixSquare(op[0], odd);  // eight zero bits: one zero byte
    for (int k = 1; k < 64; ++k) Gf2MatrixSquare(op[k], op[k - 1]);
  }
};

inline const Crc32ZeroOps& Crc32Zero() {
  static const Crc32ZeroOps ops;
  return ops;
}

#if defined(__x86_64__) && defined(__GNUC__)
#define LWFS_CRC32_HW 1

/// The register advance past a fixed 2^k zero bytes, tabulated per input
/// byte: the operator is linear, so it is the xor of its images of the
/// register's four bytes — four lookups instead of a 32-row matrix walk.
struct Crc32Shift {
  std::uint32_t t[4][256];

  explicit Crc32Shift(int log2_bytes) {
    const std::uint32_t* op = Crc32Zero().op[log2_bytes];
    for (std::uint32_t k = 0; k < 4; ++k) {
      for (std::uint32_t b = 0; b < 256; ++b) {
        t[k][b] = Gf2MatrixTimes(op, b << (8 * k));
      }
    }
  }

  [[nodiscard]] std::uint32_t operator()(std::uint64_t crc) const {
    return t[0][crc & 0xFFu] ^ t[1][(crc >> 8) & 0xFFu] ^
           t[2][(crc >> 16) & 0xFFu] ^ t[3][(crc >> 24) & 0xFFu];
  }
};

// The 3-stream kernel's block sizes (powers of two, so their shifts are
// Crc32ZeroOps entries): long blocks carry bulk payloads, short blocks
// the sub-24 KiB remainder.
inline constexpr int kCrc32LongLog2 = 13;   // 8 KiB
inline constexpr int kCrc32ShortLog2 = 8;   // 256 B

/// Shifts past one and two blocks of each size.
struct Crc32StreamShifts {
  Crc32Shift long1{kCrc32LongLog2};
  Crc32Shift long2{kCrc32LongLog2 + 1};
  Crc32Shift short1{kCrc32ShortLog2};
  Crc32Shift short2{kCrc32ShortLog2 + 1};
};

inline const Crc32StreamShifts& Crc32Shifts() {
  static const Crc32StreamShifts shifts;
  return shifts;
}

/// Consume whole triples of adjacent `block`-byte runs A||B||C from `data`.
/// crc32 has a 3-cycle latency but issues once per cycle, so one dependent
/// chain leaves two thirds of the unit idle; here A continues the running
/// register while B and C start from zero, all three interleaved.  By
/// linearity, crc(A||B||C) = shift2(crc(A)) ^ shift1(crc0(B)) ^ crc0(C),
/// where shiftN advances a register past N blocks of zero bytes.
__attribute__((target("sse4.2"))) inline std::uint64_t Crc32ThreeStreams(
    std::uint64_t c, const std::uint8_t*& data, std::size_t& size,
    std::size_t block, const Crc32Shift& shift1, const Crc32Shift& shift2) {
  while (size >= 3 * block) {
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < block; i += 8) {
      std::uint64_t v0 = 0;
      std::uint64_t v1 = 0;
      std::uint64_t v2 = 0;
      std::memcpy(&v0, data + i, 8);
      std::memcpy(&v1, data + block + i, 8);
      std::memcpy(&v2, data + 2 * block + i, 8);
      c = __builtin_ia32_crc32di(c, v0);
      c1 = __builtin_ia32_crc32di(c1, v1);
      c2 = __builtin_ia32_crc32di(c2, v2);
    }
    c = shift2(c) ^ shift1(c1) ^ c2;
    data += 3 * block;
    size -= 3 * block;
  }
  return c;
}

__attribute__((target("sse4.2"))) inline std::uint32_t Crc32UpdateHw(
    std::uint32_t crc, const std::uint8_t* data, std::size_t size) {
  std::uint64_t c = crc;
  if (size >= 3 * (std::size_t{1} << kCrc32ShortLog2)) {
    const Crc32StreamShifts& s = Crc32Shifts();
    c = Crc32ThreeStreams(c, data, size, std::size_t{1} << kCrc32LongLog2,
                          s.long1, s.long2);
    c = Crc32ThreeStreams(c, data, size, std::size_t{1} << kCrc32ShortLog2,
                          s.short1, s.short2);
  }
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t v;
    std::memcpy(&v, data + i, 8);
    c = __builtin_ia32_crc32di(c, v);
  }
  std::uint32_t c32 = static_cast<std::uint32_t>(c);
  for (; i < size; ++i) {
    c32 = __builtin_ia32_crc32qi(c32, data[i]);
  }
  return c32;
}

inline bool Crc32HwAvailable() {
  static const bool ok = __builtin_cpu_supports("sse4.2");
  return ok;
}
#endif  // __x86_64__ && __GNUC__

}  // namespace detail

/// Incrementally extend `crc` (state form, no final inversion applied yet)
/// over `data`.  Start from Crc32Init(), finish with Crc32Final().
inline std::uint32_t Crc32Update(std::uint32_t crc, const std::uint8_t* data,
                                 std::size_t size) {
#ifdef LWFS_CRC32_HW
  if (detail::Crc32HwAvailable()) {
    return detail::Crc32UpdateHw(crc, data, size);
  }
#endif
  return detail::Crc32UpdateSw(crc, data, size);
}

inline constexpr std::uint32_t Crc32Init() { return 0xFFFFFFFFu; }
inline constexpr std::uint32_t Crc32Final(std::uint32_t crc) { return ~crc; }

/// One-shot CRC32 of a byte span.
inline std::uint32_t Crc32(ByteSpan data) {
  return Crc32Final(Crc32Update(Crc32Init(), data.data(), data.size()));
}

/// CRC32 of the concatenation A||B given only the CRCs of A and of B:
/// shift `crc_a` through `len_b` zero bytes with O(log len_b) GF(2) matrix
/// applications and xor in `crc_b` (the init/final-inversion constants
/// cancel, as in zlib's crc32_combine).  This is what lets a frame
/// checksum reuse a payload slice's producer-cached CRC instead of
/// re-streaming megabytes through the CRC unit.
inline std::uint32_t Crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
                                  std::uint64_t len_b) {
  const detail::Crc32ZeroOps& ops = detail::Crc32Zero();
  for (int k = 0; len_b != 0 && k < 64; ++k, len_b >>= 1) {
    if (len_b & 1u) crc_a = detail::Gf2MatrixTimes(ops.op[k], crc_a);
  }
  return crc_a ^ crc_b;
}

/// Copy `size` bytes from `src` to `dst` and extend `crc` (state form, as
/// Crc32Update) over them in the same pass: the copy runs in cache-sized
/// chunks and the checksum reads each chunk from `dst` while it is still
/// warm, so the bytes stream from memory once instead of twice.  This is
/// the one fused kernel behind the store's write and the read pool's copy
/// out; `dst` and `src` must not overlap.
inline std::uint32_t Crc32CopyUpdate(std::uint32_t crc, std::uint8_t* dst,
                                     const std::uint8_t* src,
                                     std::size_t size) {
  constexpr std::size_t kFuseChunk = 128u << 10;  // well inside L2
  for (std::size_t off = 0; off < size; off += kFuseChunk) {
    const std::size_t n = size - off < kFuseChunk ? size - off : kFuseChunk;
    std::memcpy(dst + off, src + off, n);
    crc = Crc32Update(crc, dst + off, n);
  }
  return crc;
}

/// Streaming accumulator for data that arrives in ordered chunks (the
/// server's sequential bulk pulls/pushes).
class Crc32Accumulator {
 public:
  void Update(ByteSpan data) {
    crc_ = Crc32Update(crc_, data.data(), data.size());
    bytes_ += data.size();
  }
  [[nodiscard]] std::uint32_t value() const { return Crc32Final(crc_); }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  void Reset() {
    crc_ = Crc32Init();
    bytes_ = 0;
  }

 private:
  std::uint32_t crc_ = Crc32Init();
  std::uint64_t bytes_ = 0;
};

}  // namespace lwfs
