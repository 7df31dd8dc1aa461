#include "security/types.h"

namespace lwfs::security {

std::string OpMaskToString(std::uint32_t ops) {
  std::string s;
  s += (ops & kOpRead) ? 'R' : '-';
  s += (ops & kOpWrite) ? 'W' : '-';
  s += (ops & kOpCreate) ? 'C' : '-';
  s += (ops & kOpRemove) ? 'D' : '-';
  s += (ops & kOpManage) ? 'M' : '-';
  return s;
}

namespace {

/// A record's encoding minus its trailing tag: what the tag signs.
template <typename T>
Buffer EncodingWithoutTag(const T& record) {
  Buffer bytes = codec::Encode(record);
  bytes.resize(bytes.size() - codec::MinSize<Tag128>());
  return bytes;
}

}  // namespace

Buffer Credential::SignedBytes() const { return EncodingWithoutTag(*this); }

Buffer Capability::SignedBytes() const { return EncodingWithoutTag(*this); }

}  // namespace lwfs::security
