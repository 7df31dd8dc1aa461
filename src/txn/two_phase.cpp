#include "txn/two_phase.h"

#include <algorithm>
#include <atomic>

#include "util/logging.h"

namespace lwfs::txn {

// ---------------------------------------------------------------------------
// StagedParticipant
// ---------------------------------------------------------------------------

void StagedParticipant::Join(TxnId txid) {
  std::lock_guard<std::mutex> lock(mutex_);
  txns_.try_emplace(txid);
}

void StagedParticipant::StageApply(TxnId txid, std::function<Status()> apply) {
  std::lock_guard<std::mutex> lock(mutex_);
  txns_[txid].applies.push_back(std::move(apply));
}

void StagedParticipant::AddUndo(TxnId txid, std::function<void()> undo) {
  std::lock_guard<std::mutex> lock(mutex_);
  txns_[txid].undos.push_back(std::move(undo));
}

void StagedParticipant::FailNextPrepare(TxnId txid) {
  std::lock_guard<std::mutex> lock(mutex_);
  txns_[txid].fail_prepare = true;
}

Result<bool> StagedParticipant::Prepare(TxnId txid) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = txns_.find(txid);
  if (it == txns_.end()) {
    // Never saw an operation for this transaction: nothing to commit, so a
    // yes-vote is always safe.
    return true;
  }
  if (it->second.fail_prepare) {
    it->second.fail_prepare = false;
    return false;
  }
  it->second.prepared = true;
  return true;
}

Status StagedParticipant::Commit(TxnId txid) {
  std::vector<std::function<Status()>> applies;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = txns_.find(txid);
    if (it == txns_.end()) return OkStatus();  // idempotent
    applies = std::move(it->second.applies);
    txns_.erase(it);
  }
  for (auto& apply : applies) {
    Status s = apply();
    if (!s.ok()) {
      // A prepared participant promised commit would succeed; a failure
      // here is a broken promise and surfaces loudly.
      LWFS_ERROR << name_ << ": commit apply failed: " << s.ToString();
      return s;
    }
  }
  return OkStatus();
}

Status StagedParticipant::Abort(TxnId txid) {
  std::vector<std::function<void()>> undos;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = txns_.find(txid);
    if (it == txns_.end()) return OkStatus();  // idempotent
    undos = std::move(it->second.undos);
    txns_.erase(it);
  }
  // Compensate in reverse order of application.
  for (auto it = undos.rbegin(); it != undos.rend(); ++it) (*it)();
  return OkStatus();
}

void StagedParticipant::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  txns_.clear();
}

std::size_t StagedParticipant::open_txns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return txns_.size();
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

namespace {
std::uint64_t NextTxnBase() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

Result<TxnId> Coordinator::Begin(std::vector<Participant*> participants) {
  TxnId txid;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    txid = (NextTxnBase() << 16) | (next_txid_++ & 0xFFFF);
    active_[txid] = participants;
  }
  BeginPayload begin;
  begin.participants.reserve(participants.size());
  for (Participant* p : participants) begin.participants.push_back(p->name());
  LWFS_RETURN_IF_ERROR(journal_->Append(
      JournalRecord{RecordType::kBegin, txid, codec::Encode(begin)}));
  return txid;
}

Status Coordinator::Commit(TxnId txid) {
  std::vector<Participant*> participants;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = active_.find(txid);
    if (it == active_.end()) return NotFound("no such active transaction");
    participants = it->second;
  }

  // Phase 1: collect votes.
  bool all_yes = true;
  for (Participant* p : participants) {
    auto vote = p->Prepare(txid);
    if (!vote.ok() || !*vote) {
      all_yes = false;
      break;
    }
  }

  if (!all_yes) {
    LWFS_RETURN_IF_ERROR(Decide(txid, /*commit=*/false, participants));
    return Aborted("participant voted no");
  }

  LWFS_RETURN_IF_ERROR(
      journal_->Append(JournalRecord{RecordType::kPrepared, txid, {}}));

  if (crash_point_ == CrashPoint::kAfterPrepare) {
    // Simulated coordinator death: no decision was journaled; recovery will
    // presume abort.
    return Unavailable("coordinator crashed after prepare");
  }

  LWFS_RETURN_IF_ERROR(
      journal_->Append(JournalRecord{RecordType::kCommit, txid, {}}));

  if (crash_point_ == CrashPoint::kAfterCommitRecord) {
    // Decision is durable but undelivered; recovery must re-commit.
    return Unavailable("coordinator crashed after commit record");
  }

  for (Participant* p : participants) {
    LWFS_RETURN_IF_ERROR(p->Commit(txid));
  }
  LWFS_RETURN_IF_ERROR(
      journal_->Append(JournalRecord{RecordType::kEnd, txid, {}}));
  std::lock_guard<std::mutex> lock(mutex_);
  active_.erase(txid);
  return OkStatus();
}

Status Coordinator::Abort(TxnId txid) {
  std::vector<Participant*> participants;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = active_.find(txid);
    if (it == active_.end()) return NotFound("no such active transaction");
    participants = it->second;
  }
  return Decide(txid, /*commit=*/false, participants);
}

Status Coordinator::Decide(TxnId txid, bool commit,
                           const std::vector<Participant*>& participants) {
  LWFS_RETURN_IF_ERROR(journal_->Append(JournalRecord{
      commit ? RecordType::kCommit : RecordType::kAbort, txid, {}}));
  for (Participant* p : participants) {
    Status s = commit ? p->Commit(txid) : p->Abort(txid);
    if (!s.ok()) return s;
  }
  LWFS_RETURN_IF_ERROR(
      journal_->Append(JournalRecord{RecordType::kEnd, txid, {}}));
  std::lock_guard<std::mutex> lock(mutex_);
  active_.erase(txid);
  return OkStatus();
}

Status Coordinator::Recover(
    Journal* journal, const std::map<std::string, Participant*>& registry) {
  auto records = journal->ReadAll();
  if (!records.ok()) return records.status();

  // Reconstruct per-transaction state and participant lists.
  struct State {
    TxnOutcome outcome = TxnOutcome::kUnknown;
    std::vector<std::string> participants;
  };
  std::map<TxnId, State> txns;
  for (const JournalRecord& r : *records) {
    State& st = txns[r.txid];
    switch (r.type) {
      case RecordType::kBegin: {
        st.outcome = TxnOutcome::kInDoubt;
        Decoder dec(r.payload);
        auto begin = BeginPayload::Decode(dec);
        if (begin.ok()) st.participants = std::move(begin->participants);
        break;
      }
      case RecordType::kPrepared:
        break;
      case RecordType::kCommit:
        st.outcome = TxnOutcome::kCommitted;
        break;
      case RecordType::kAbort:
        st.outcome = TxnOutcome::kAborted;
        break;
      case RecordType::kEnd:
        st.outcome = TxnOutcome::kFinished;
        break;
    }
  }

  for (const auto& [txid, st] : txns) {
    if (st.outcome == TxnOutcome::kFinished) continue;
    // Presumed abort: only a journaled COMMIT decision commits.
    const bool commit = st.outcome == TxnOutcome::kCommitted;
    for (const std::string& name : st.participants) {
      auto it = registry.find(name);
      if (it == registry.end()) {
        return Unavailable("participant missing during recovery: " + name);
      }
      Status s = commit ? it->second->Commit(txid) : it->second->Abort(txid);
      if (!s.ok()) return s;
    }
    if (!commit && st.outcome != TxnOutcome::kAborted) {
      LWFS_RETURN_IF_ERROR(
          journal->Append(JournalRecord{RecordType::kAbort, txid, {}}));
    }
    LWFS_RETURN_IF_ERROR(
        journal->Append(JournalRecord{RecordType::kEnd, txid, {}}));
  }
  return OkStatus();
}

}  // namespace lwfs::txn
