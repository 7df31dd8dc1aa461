#!/usr/bin/env bash
# Codec hygiene: every wire message and stored record in src/ is decoded
# through the one declarative codec (util/codec.h, LWFS_CODEC), which lists
# a record's fields once and derives the bound on every untrusted count.  A
# field-by-field Decoder read anywhere else is a hand-written codec: it
# re-derives the layout and can drop a count bound (an lwfsfs inode decoder
# once reserved whatever stripe count the object held).
#
# The allow-list below is framing over frame parts, not records, and is
# allowed to read fields by hand.  Add to it only for the same reason, with
# a comment.
#
# CI runs this on every push; run it locally before sending a change that
# adds a message or a stored record.
set -u
cd "$(dirname "$0")/.."

pattern='\bGet(U8|U16|U32|U64|I64|Bool|Double|String|Bytes)\('

allow=(
  # RPC request and reply frame headers (opcode, request id, bulk lengths
  # and checksums around the typed body).
  '^src/rpc/rpc\.cpp:'
  # Collective bundle headers: (vrank, length) pairs over a bundle's parts.
  '^src/comm/collectives\.cpp:'
  # The journal's per-record CRC trailer, checked against the record bytes.
  '^src/txn/journal\.cpp:[0-9]+: +auto crc = dec\.GetU32\(\);'
)

hits=$(grep -rnE "$pattern" src/ --include='*.h' --include='*.cpp' \
       | grep -vE '^src/util/' || true)
for a in "${allow[@]}"; do
  hits=$(printf '%s\n' "$hits" | grep -vE "$a" || true)
done

if [ -n "$hits" ]; then
  echo "codec-hygiene violation: hand-written Decoder field reads in src/." >&2
  echo "List the fields once with LWFS_CODEC (util/codec.h) and decode" >&2
  echo "through it, or add framing to the commented allow-list here:" >&2
  echo "$hits" >&2
  exit 1
fi
echo "codec hygiene OK: no hand-written Decoder field reads in src/ outside util/ and the allow-list"
