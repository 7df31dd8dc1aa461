// One declarative codec for every wire message and stored record.
//
// A record lists its fields once, in wire order:
//
//   struct ObjWriteReq {
//     security::Capability cap;
//     std::uint64_t oid = 0;
//     std::uint64_t offset = 0;
//     LWFS_CODEC(ObjWriteReq, cap, oid, offset)
//   };
//
// and gets `void Encode(Encoder&) const`, `static Result<T> Decode(Decoder&)`
// (so it is an rpc::WireMessage) and a compile-time MinSize<T>() from that
// one list.  Field order is the format: append-only, never reorder.  The
// struct stays an aggregate, so brace initialization is unchanged.
//
// Leaf encodings are Encoder/Decoder's (util/bytes.h): fixed-width
// little-endian integers, u8 bools, IEEE-754 doubles, u32-length-prefixed
// strings and byte buffers.  On top of them:
//   - strong ids (storage::ContainerId, ObjectId): their `.value` as a u64;
//   - enums: the underlying integer, range-checked against the enum's
//     `CodecEnumBounds(E)` (declared next to the enum, found by ADL);
//   - std::optional<T>: a bool flag, then T when set;
//   - std::pair<A, B>: A, then B;
//   - nested records: their fields, inline;
//   - std::vector<T>: a u32 count, then the elements.  A count larger than
//     remaining() / MinSize<T>() cannot parse, so it is rejected before
//     anything is reserved: untrusted input never drives an allocation.
//
// Every decode failure is kInvalidArgument.  Checks that are not field
// layout — magic numbers, checksums, and the kDataLoss a storage caller
// returns for a corrupt record — stay with the caller.  No virtual
// dispatch, no std::function: everything here is resolved at compile time.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/bytes.h"
#include "util/status.h"

namespace lwfs::codec {

/// A type declared with LWFS_CODEC.
template <typename T>
concept Record = requires(T& t, const T& c) {
  t.CodecFields();
  c.CodecFields();
};

/// A strong-typedef id: a struct wrapping one u64 `value`.
template <typename T>
concept StrongId = std::is_class_v<T> && !Record<T> && requires(T t) {
  { t.value } -> std::same_as<std::uint64_t&>;
};

namespace detail {
template <typename T> inline constexpr bool kIsVector = false;
template <typename T> inline constexpr bool kIsVector<std::vector<T>> = true;
template <typename T> inline constexpr bool kIsOptional = false;
template <typename T>
inline constexpr bool kIsOptional<std::optional<T>> = true;
template <typename T> inline constexpr bool kIsPair = false;
template <typename A, typename B>
inline constexpr bool kIsPair<std::pair<A, B>> = true;
template <typename T> inline constexpr bool kUnsupported = false;
template <typename Fields> struct FieldsMinSize;
}  // namespace detail

/// Fewest bytes any encoding of T occupies (a vector, string or byte
/// buffer counts its length prefix only).
template <typename T>
constexpr std::size_t MinSize() {
  if constexpr (Record<T>) {
    return detail::FieldsMinSize<
        decltype(std::declval<const T&>().CodecFields())>::value;
  } else if constexpr (std::is_enum_v<T>) {
    return sizeof(std::underlying_type_t<T>);
  } else if constexpr (std::is_arithmetic_v<T>) {
    return sizeof(T);
  } else if constexpr (StrongId<T>) {
    return sizeof(std::uint64_t);
  } else if constexpr (detail::kIsOptional<T>) {
    return 1;
  } else if constexpr (detail::kIsPair<T>) {
    return MinSize<typename T::first_type>() +
           MinSize<typename T::second_type>();
  } else {
    // std::string, Buffer and std::vector<T>: the u32 length prefix.
    static_assert(std::is_same_v<T, std::string> || detail::kIsVector<T>,
                  "no codec for this field type");
    return sizeof(std::uint32_t);
  }
}

namespace detail {
template <typename... F>
struct FieldsMinSize<std::tuple<F...>> {
  static constexpr std::size_t value =
      (std::size_t{0} + ... + MinSize<std::remove_cvref_t<F>>());
};
}  // namespace detail

/// Append the encoding of `v`, any codec type.
template <typename T>
void Put(Encoder& enc, const T& v) {
  if constexpr (Record<T>) {
    std::apply([&enc](const auto&... f) { (Put(enc, f), ...); },
               v.CodecFields());
  } else if constexpr (std::is_same_v<T, bool>) {
    enc.PutBool(v);
  } else if constexpr (std::is_same_v<T, double>) {
    enc.PutDouble(v);
  } else if constexpr (std::is_enum_v<T>) {
    Put(enc, static_cast<std::underlying_type_t<T>>(v));
  } else if constexpr (std::is_integral_v<T>) {
    if constexpr (sizeof(T) == 1) enc.PutU8(static_cast<std::uint8_t>(v));
    if constexpr (sizeof(T) == 2) enc.PutU16(static_cast<std::uint16_t>(v));
    if constexpr (sizeof(T) == 4) enc.PutU32(static_cast<std::uint32_t>(v));
    if constexpr (sizeof(T) == 8) enc.PutU64(static_cast<std::uint64_t>(v));
  } else if constexpr (std::is_same_v<T, std::string>) {
    enc.PutString(v);
  } else if constexpr (std::is_same_v<T, Buffer>) {
    enc.PutBytes(ByteSpan(v));
  } else if constexpr (StrongId<T>) {
    enc.PutU64(v.value);
  } else if constexpr (detail::kIsOptional<T>) {
    enc.PutBool(v.has_value());
    if (v) Put(enc, *v);
  } else if constexpr (detail::kIsPair<T>) {
    Put(enc, v.first);
    Put(enc, v.second);
  } else if constexpr (detail::kIsVector<T>) {
    enc.PutU32(static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) Put(enc, e);
  } else {
    static_assert(detail::kUnsupported<T>, "no codec for this field type");
  }
}

namespace detail {

/// Reads one value into `out`.  Returns nullptr, or why the bytes do not
/// parse; the caller builds the one Status, so a field costs no Status.
template <typename T>
const char* Read(Decoder& dec, T& out) {
  if constexpr (Record<T>) {
    const char* err = nullptr;
    std::apply(
        [&dec, &err](auto&... f) {
          static_cast<void>((((err = Read(dec, f)) == nullptr) && ...));
        },
        out.CodecFields());
    return err;
  } else if constexpr (std::is_enum_v<T>) {
    std::underlying_type_t<T> raw{};
    if (const char* err = Read(dec, raw)) return err;
    const auto [lo, hi] = CodecEnumBounds(T{});
    if (raw < static_cast<decltype(raw)>(lo) ||
        raw > static_cast<decltype(raw)>(hi)) {
      return "enum value out of range";
    }
    out = static_cast<T>(raw);
    return nullptr;
  } else if constexpr (std::is_arithmetic_v<T>) {
    auto r = [&dec] {
      if constexpr (std::is_same_v<T, double>) return dec.GetDouble();
      else if constexpr (std::is_same_v<T, bool>) return dec.GetBool();
      else if constexpr (sizeof(T) == 1) return dec.GetU8();
      else if constexpr (sizeof(T) == 2) return dec.GetU16();
      else if constexpr (sizeof(T) == 4) return dec.GetU32();
      else return dec.GetU64();
    }();
    if (!r.ok()) return "truncated field";
    out = static_cast<T>(*r);
    return nullptr;
  } else if constexpr (std::is_same_v<T, std::string>) {
    auto len = dec.GetU32();
    if (!len.ok()) return "truncated string length";
    auto bytes = dec.GetRaw(*len);
    if (!bytes.ok()) return "truncated string";
    out.assign(reinterpret_cast<const char*>(bytes->data()), bytes->size());
    return nullptr;
  } else if constexpr (std::is_same_v<T, Buffer>) {
    auto bytes = dec.GetBytes();
    if (!bytes.ok()) return "truncated byte string";
    out = std::move(*bytes);
    return nullptr;
  } else if constexpr (StrongId<T>) {
    return Read(dec, out.value);
  } else if constexpr (kIsOptional<T>) {
    bool present = false;
    if (const char* err = Read(dec, present)) return err;
    if (!present) {
      out.reset();
      return nullptr;
    }
    return Read(dec, out.emplace());
  } else if constexpr (kIsPair<T>) {
    if (const char* err = Read(dec, out.first)) return err;
    return Read(dec, out.second);
  } else if constexpr (kIsVector<T>) {
    using E = typename T::value_type;
    auto count = dec.GetU32();
    if (!count.ok()) return "truncated element count";
    if (*count > dec.remaining() / MinSize<E>()) {
      return "element count exceeds payload";
    }
    out.clear();
    out.reserve(*count);
    for (std::uint32_t i = 0; i < *count; ++i) {
      if (const char* err = Read(dec, out.emplace_back())) return err;
    }
    return nullptr;
  } else {
    static_assert(kUnsupported<T>, "no codec for this field type");
  }
}

}  // namespace detail

/// Encode one value of any codec type (a record, or a leaf such as a bare
/// u32 magic or a vector).
template <typename T>
Buffer Encode(const T& v) {
  Encoder enc;
  Put(enc, v);
  return std::move(enc).Take();
}

/// Decode one value of any codec type from `dec`.
template <typename T>
Result<T> Decode(Decoder& dec) {
  T out{};
  if (const char* err = detail::Read(dec, out)) return InvalidArgument(err);
  return out;
}

}  // namespace lwfs::codec

/// Declares a record's fields, in wire order, and derives its Encode and
/// Decode from them.  Put it last in the struct body.
#define LWFS_CODEC(Type, ...)                                  \
  auto CodecFields() { return std::tie(__VA_ARGS__); }        \
  auto CodecFields() const { return std::tie(__VA_ARGS__); }  \
  void Encode(::lwfs::Encoder& enc) const {                   \
    ::lwfs::codec::Put(enc, *this);                            \
  }                                                            \
  static ::lwfs::Result<Type> Decode(::lwfs::Decoder& dec) {   \
    return ::lwfs::codec::Decode<Type>(dec);                   \
  }
