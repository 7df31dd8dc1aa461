// Transaction journal (§3.4).
//
// "Durability exists because a journal exists as a persistent object on the
// storage system."  A Journal appends fixed-format records to an object in
// any ObjectStore backend; recovery replays the records to decide each
// transaction's outcome.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "storage/object_store.h"
#include "util/bytes.h"
#include "util/codec.h"
#include "util/status.h"

namespace lwfs::txn {

using TxnId = std::uint64_t;

enum class RecordType : std::uint32_t {
  kBegin = 1,     // transaction started; payload = participant names
  kPrepared = 2,  // all participants voted yes
  kCommit = 3,    // decision: commit
  kAbort = 4,     // decision: abort
  kEnd = 5,       // all participants acknowledged the decision
};

/// Valid RecordType values, for the codec's range check.
constexpr std::pair<RecordType, RecordType> CodecEnumBounds(RecordType) {
  return {RecordType::kBegin, RecordType::kEnd};
}

/// One journal entry.  On the medium each record is followed by a CRC32 of
/// its encoding.
struct JournalRecord {
  RecordType type;
  TxnId txid;
  Buffer payload;
  LWFS_CODEC(JournalRecord, type, txid, payload)
};

/// The payload of a kBegin record: the participants' names, which recovery
/// needs to drive an in-doubt transaction to its decision.
struct BeginPayload {
  std::vector<std::string> participants;
  LWFS_CODEC(BeginPayload, participants)
};

/// A transaction's fate as derivable from the journal.
enum class TxnOutcome {
  kUnknown,    // no BEGIN record
  kInDoubt,    // BEGIN but no decision: recovery must abort (presumed abort)
  kCommitted,  // COMMIT decision logged
  kAborted,    // ABORT decision logged
  kFinished,   // decision logged and END acknowledged
};

/// Appends/reads records on a journal object.  One writer at a time (the
/// coordinator owns its journal); readers may scan concurrently with the
/// store's own locking.
class Journal {
 public:
  Journal(storage::ObjectStore* store, storage::ObjectId oid)
      : store_(store), oid_(oid) {}

  /// Create a fresh journal object in `cid` and open it.
  static Result<Journal> Create(storage::ObjectStore* store,
                                storage::ContainerId cid);

  Status Append(const JournalRecord& record);

  /// All records in append order.  Tolerates a torn final record (crash
  /// mid-append): the tail is ignored.
  Result<std::vector<JournalRecord>> ReadAll() const;

  /// Outcome of `txid` per the journal contents.
  Result<TxnOutcome> Outcome(TxnId txid) const;

  /// Transactions that have a decision pending (BEGIN or COMMIT/ABORT
  /// without END) — the recovery worklist.
  Result<std::vector<TxnId>> Unfinished() const;

  [[nodiscard]] storage::ObjectId oid() const { return oid_; }

 private:
  storage::ObjectStore* store_;
  storage::ObjectId oid_;
};

}  // namespace lwfs::txn
