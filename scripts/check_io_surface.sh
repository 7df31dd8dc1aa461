#!/usr/bin/env bash
# I/O-surface hygiene: every client stack (core::Client, pfs::PfsClient,
# fs::LwfsFs, io::Dataset) has one async list call per direction, and a
# noncontiguous access is one such call — its pieces are windowed by the
# one engine that issues them (core::Batch for objects, pfs::StripedIo for
# striped files).  A second slice-read handle type, or a caller keeping its
# own deque of in-flight I/O handles, brings back the parallel paths and
# hand-rolled windows this surface replaced.
#
# The allow-list below names the windows that stay, each with its reason.
# Add to it only for the same kind of reason, with a comment.
#
# CI runs this on every push; run it locally before sending a change that
# issues client I/O.
set -u
cd "$(dirname "$0")/.."

handle='PendingIo|PendingReplicatedWrite|StripedIo|PfsIo|FileIo|IoTicket|Op|Issued|RepWrite'
pattern="PendingSliceIo|std::deque<.*\\b($handle)\\b"

allow=(
  # The striped engine's chunk window (kIoWindow): the one window every
  # pfs and lwfsfs list call goes through.
  '^src/pfs/striped_io\.cpp:[0-9]+:  std::deque<Issued> inflight;'
  # core::Batch: the windowed object-call primitive itself.
  '^src/core/client\.h:[0-9]+:  std::deque<Op> inflight_;'
  # WritePipeline: a resumable state machine retires its chunk and chain
  # writes one poll at a time, so it cannot block in one list call.
  '^src/checkpoint/write_pipeline\.h:[0-9]+:  std::deque<core::PendingIo> writes_;'
  '^src/checkpoint/write_pipeline\.h:[0-9]+:  std::deque<RepWrite> rep_writes_;'
  # The storage server's per-request chunk pipeline (server side).
  '^src/core/storage_server\.cpp:[0-9]+:  std::deque<std::shared_ptr<IoTicket>> pipeline;'
  # The per-rank pfs checkpoints: one striped I/O per rank file or rank
  # extent, each with its own lock in kPosixLocking mode — the Figure 9
  # baseline's cost.
  '^src/checkpoint/checkpoint\.cpp:[0-9]+:  std::deque<pfs::PfsIo> writes;'
  '^src/checkpoint/checkpoint\.cpp:[0-9]+:  std::deque<std::pair<std::uint32_t, pfs::PfsIo>> reads;'
  # libio's DirectRead baseline: one call per fragment is what the
  # sieving ablation measures.
  '^src/libio/sieve\.cpp:[0-9]+:  std::deque<fs::FileIo> inflight;'
)

hits=$(grep -rnE "$pattern" src/ --include='*.h' --include='*.cpp' || true)
for a in "${allow[@]}"; do
  hits=$(printf '%s\n' "$hits" | grep -vE "$a" || true)
done

if [ -n "$hits" ]; then
  echo "io-surface violation: a second slice-read handle or a hand-rolled" >&2
  echo "window of I/O handles in src/.  Issue the pieces as one list call" >&2
  echo "(core::Client::ReadObjectAsync/WriteObjectAsync, a core::Batch, or" >&2
  echo "a file system's ReadAsync/WriteAsync), or add a window that must" >&2
  echo "stay to the commented allow-list here:" >&2
  echo "$hits" >&2
  exit 1
fi
echo "io surface OK: no PendingSliceIo and no I/O-handle windows in src/ outside the allow-list"
