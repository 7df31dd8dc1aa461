#include "txn/journal.h"

#include <map>

#include "util/crc32.h"

namespace lwfs::txn {
namespace {

/// Append retry budget: each attempt rewrites the same byte range, so
/// retrying is safe and only a sustained fault burst exhausts it.
constexpr int kAppendAttempts = 4;

}  // namespace

Result<Journal> Journal::Create(storage::ObjectStore* store,
                                storage::ContainerId cid) {
  auto oid = store->Create(cid);
  if (!oid.ok()) return oid.status();
  return Journal(store, *oid);
}

Status Journal::Append(const JournalRecord& record) {
  Encoder enc;
  record.Encode(enc);
  // Per-record CRC32 trailer over the encoded fields: media corruption
  // surfaces as kDataLoss at recovery instead of a silently wrong decision
  // replay.
  enc.PutU32(Crc32(ByteSpan(enc.buffer())));
  auto attr = store_->GetAttr(oid_);
  if (!attr.ok()) return attr.status();
  // Write at a pinned offset and retry in place.  Over a remote store a
  // corrupted bulk pull can land bad bytes (and grow the object) before the
  // server's end-to-end checksum rejects the write with kDataLoss; appending
  // the retry at the *new* size would strand that corrupt record mid-journal
  // and poison every future ReadAll.  Rewriting the same offset replaces it
  // with the intact copy, and is idempotent if an ambiguous timeout actually
  // applied the first attempt.
  const std::uint64_t at = attr->size;
  Status s = OkStatus();
  for (int attempt = 0; attempt < kAppendAttempts; ++attempt) {
    s = store_->Write(oid_, at, ByteSpan(enc.buffer()));
    if (s.ok()) return s;
    if (s.code() != ErrorCode::kDataLoss && s.code() != ErrorCode::kTimeout &&
        s.code() != ErrorCode::kUnavailable) {
      return s;  // not a transport-shaped failure: retrying cannot help
    }
  }
  return s;
}

Result<std::vector<JournalRecord>> Journal::ReadAll() const {
  auto attr = store_->GetAttr(oid_);
  if (!attr.ok()) return attr.status();
  auto raw = store_->Read(oid_, 0, attr->size);
  if (!raw.ok()) return raw.status();
  Decoder dec(*raw);
  std::vector<JournalRecord> records;
  while (!dec.exhausted()) {
    const std::size_t record_start = raw->size() - dec.remaining();
    auto record = JournalRecord::Decode(dec);
    if (!record.ok()) {
      // Input that ends mid-record is a torn tail from a crash mid-append:
      // ignore it.  A complete record that still fails (its type is out of
      // range) is corruption.
      if (dec.truncated()) break;
      return DataLoss("corrupt journal record type");
    }
    const std::size_t record_end = raw->size() - dec.remaining();
    auto crc = dec.GetU32();  // the CRC trailer is framing, not a field
    if (!crc.ok()) {
      break;  // crash between record and its checksum: torn tail
    }
    if (Crc32(ByteSpan(raw->data() + record_start,
                       record_end - record_start)) != *crc) {
      // A complete record whose checksum doesn't match is media corruption,
      // not a torn append — refuse to trust anything decoded from it.
      return DataLoss("journal record failed checksum");
    }
    records.push_back(std::move(*record));
  }
  return records;
}

Result<TxnOutcome> Journal::Outcome(TxnId txid) const {
  auto records = ReadAll();
  if (!records.ok()) return records.status();
  TxnOutcome outcome = TxnOutcome::kUnknown;
  for (const JournalRecord& r : *records) {
    if (r.txid != txid) continue;
    switch (r.type) {
      case RecordType::kBegin:
        if (outcome == TxnOutcome::kUnknown) outcome = TxnOutcome::kInDoubt;
        break;
      case RecordType::kPrepared:
        break;  // informational
      case RecordType::kCommit:
        outcome = TxnOutcome::kCommitted;
        break;
      case RecordType::kAbort:
        outcome = TxnOutcome::kAborted;
        break;
      case RecordType::kEnd:
        outcome = TxnOutcome::kFinished;
        break;
    }
  }
  return outcome;
}

Result<std::vector<TxnId>> Journal::Unfinished() const {
  auto records = ReadAll();
  if (!records.ok()) return records.status();
  std::map<TxnId, TxnOutcome> state;
  for (const JournalRecord& r : *records) {
    switch (r.type) {
      case RecordType::kBegin:
        state.emplace(r.txid, TxnOutcome::kInDoubt);
        break;
      case RecordType::kPrepared:
        break;
      case RecordType::kCommit:
        state[r.txid] = TxnOutcome::kCommitted;
        break;
      case RecordType::kAbort:
        state[r.txid] = TxnOutcome::kAborted;
        break;
      case RecordType::kEnd:
        state[r.txid] = TxnOutcome::kFinished;
        break;
    }
  }
  std::vector<TxnId> out;
  for (const auto& [txid, outcome] : state) {
    if (outcome != TxnOutcome::kFinished) out.push_back(txid);
  }
  return out;
}

}  // namespace lwfs::txn
