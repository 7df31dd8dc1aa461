// Tests for the transaction substrate: range locks, journal, and
// two-phase commit with failure injection (§3.4).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "storage/object_store.h"
#include "txn/journal.h"
#include "util/bytes.h"
#include "txn/lock_table.h"
#include "txn/two_phase.h"
#include "util/clock.h"

namespace lwfs::txn {
namespace {

// ---- LockTable ----------------------------------------------------------------

TEST(LockTableTest, SharedLocksCoexist) {
  LockTable table;
  LockKey key{1, 10};
  auto a = table.TryAcquire(key, {0, 100}, LockMode::kShared, 1);
  auto b = table.TryAcquire(key, {0, 100}, LockMode::kShared, 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(table.held_count(), 2u);
}

TEST(LockTableTest, ExclusiveConflictsWithShared) {
  LockTable table;
  LockKey key{1, 10};
  ASSERT_TRUE(table.TryAcquire(key, {0, 100}, LockMode::kShared, 1).ok());
  auto b = table.TryAcquire(key, {50, 150}, LockMode::kExclusive, 2);
  EXPECT_EQ(b.status().code(), ErrorCode::kResourceExhausted);
}

TEST(LockTableTest, DisjointRangesDoNotConflict) {
  LockTable table;
  LockKey key{1, 10};
  ASSERT_TRUE(table.TryAcquire(key, {0, 100}, LockMode::kExclusive, 1).ok());
  EXPECT_TRUE(table.TryAcquire(key, {100, 200}, LockMode::kExclusive, 2).ok());
}

TEST(LockTableTest, DifferentResourcesAreIndependent) {
  LockTable table;
  ASSERT_TRUE(
      table.TryAcquire({1, 10}, {0, 100}, LockMode::kExclusive, 1).ok());
  EXPECT_TRUE(
      table.TryAcquire({1, 11}, {0, 100}, LockMode::kExclusive, 2).ok());
  EXPECT_TRUE(
      table.TryAcquire({2, 10}, {0, 100}, LockMode::kExclusive, 3).ok());
}

TEST(LockTableTest, SameOwnerIsReentrant) {
  LockTable table;
  LockKey key{1, 10};
  ASSERT_TRUE(table.TryAcquire(key, {0, 100}, LockMode::kExclusive, 1).ok());
  EXPECT_TRUE(table.TryAcquire(key, {0, 100}, LockMode::kExclusive, 1).ok());
}

TEST(LockTableTest, ReleaseWakesConflictingRequest) {
  LockTable table;
  LockKey key{1, 10};
  auto a = table.TryAcquire(key, {0, 100}, LockMode::kExclusive, 1);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(table.TryAcquire(key, {0, 100}, LockMode::kExclusive, 2).ok());
  ASSERT_TRUE(table.Release(*a).ok());
  EXPECT_TRUE(table.TryAcquire(key, {0, 100}, LockMode::kExclusive, 2).ok());
}

TEST(LockTableTest, ReleaseUnknownLockFails) {
  LockTable table;
  EXPECT_EQ(table.Release(12345).code(), ErrorCode::kNotFound);
}

TEST(LockTableTest, BlockingAcquireWaitsForRelease) {
  LockTable table;
  LockKey key{1, 10};
  auto held = table.TryAcquire(key, {0, 100}, LockMode::kExclusive, 1);
  ASSERT_TRUE(held.ok());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    LockId id = table.AcquireBlocking(key, {0, 100}, LockMode::kExclusive, 2);
    acquired.store(true);
    ASSERT_TRUE(table.Release(id).ok());
  });
  util::RealClockInstance()->SleepFor(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  ASSERT_TRUE(table.Release(*held).ok());
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST(LockTableTest, FairnessBlocksLateArrivals) {
  LockTable table;
  LockKey key{1, 10};
  auto held = table.TryAcquire(key, {0, 100}, LockMode::kExclusive, 1);
  ASSERT_TRUE(held.ok());
  std::thread waiter([&] {
    LockId id = table.AcquireBlocking(key, {0, 100}, LockMode::kExclusive, 2);
    ASSERT_TRUE(table.Release(id).ok());
  });
  // Give the waiter time to enqueue, then a third owner tries a disjoint?
  // No — same range: TryAcquire must refuse while owner 2 is queued, even
  // after release makes the range technically free.
  util::RealClockInstance()->SleepFor(std::chrono::milliseconds(20));
  EXPECT_EQ(table.waiting_count(), 1u);
  EXPECT_FALSE(table.TryAcquire(key, {200, 300}, LockMode::kExclusive, 3).ok());
  ASSERT_TRUE(table.Release(*held).ok());
  waiter.join();
}

TEST(LockTableTest, ReleaseAllForOwner) {
  LockTable table;
  ASSERT_TRUE(table.TryAcquire({1, 1}, {0, 10}, LockMode::kExclusive, 7).ok());
  ASSERT_TRUE(table.TryAcquire({1, 2}, {0, 10}, LockMode::kExclusive, 7).ok());
  ASSERT_TRUE(table.TryAcquire({1, 3}, {0, 10}, LockMode::kExclusive, 8).ok());
  table.ReleaseAllForOwner(7);
  EXPECT_EQ(table.held_count(), 1u);
}

TEST(LockTableTest, ManyThreadsNeverDoubleGrant) {
  LockTable table;
  LockKey key{1, 1};
  std::atomic<int> inside{0};
  std::atomic<bool> violation{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        LockId id = table.AcquireBlocking(key, {0, 10}, LockMode::kExclusive,
                                          static_cast<LockOwner>(t + 1));
        if (inside.fetch_add(1) != 0) violation.store(true);
        std::this_thread::yield();
        inside.fetch_sub(1);
        ASSERT_TRUE(table.Release(id).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(table.held_count(), 0u);
}

// ---- Journal -------------------------------------------------------------------

class JournalTest : public ::testing::Test {
 protected:
  storage::MemObjectStore store_;
};

TEST_F(JournalTest, AppendAndReadBack) {
  auto journal = Journal::Create(&store_, storage::ContainerId{1});
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(journal->Append({RecordType::kBegin, 7, Buffer{1, 2}}).ok());
  ASSERT_TRUE(journal->Append({RecordType::kCommit, 7, {}}).ok());
  auto records = journal->ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].type, RecordType::kBegin);
  EXPECT_EQ((*records)[0].txid, 7u);
  EXPECT_EQ((*records)[0].payload, (Buffer{1, 2}));
  EXPECT_EQ((*records)[1].type, RecordType::kCommit);
}

TEST_F(JournalTest, OutcomeProgression) {
  auto journal = Journal::Create(&store_, storage::ContainerId{1});
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(*journal->Outcome(9), TxnOutcome::kUnknown);
  ASSERT_TRUE(journal->Append({RecordType::kBegin, 9, {}}).ok());
  EXPECT_EQ(*journal->Outcome(9), TxnOutcome::kInDoubt);
  ASSERT_TRUE(journal->Append({RecordType::kPrepared, 9, {}}).ok());
  EXPECT_EQ(*journal->Outcome(9), TxnOutcome::kInDoubt);
  ASSERT_TRUE(journal->Append({RecordType::kCommit, 9, {}}).ok());
  EXPECT_EQ(*journal->Outcome(9), TxnOutcome::kCommitted);
  ASSERT_TRUE(journal->Append({RecordType::kEnd, 9, {}}).ok());
  EXPECT_EQ(*journal->Outcome(9), TxnOutcome::kFinished);
}

TEST_F(JournalTest, ToleratesTornTail) {
  auto journal = Journal::Create(&store_, storage::ContainerId{1});
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(journal->Append({RecordType::kBegin, 1, {}}).ok());
  // Simulate a crash mid-append: write a partial record at the end.
  auto attr = store_.GetAttr(journal->oid());
  ASSERT_TRUE(attr.ok());
  Buffer partial = {3, 0, 0};  // half of a record type field
  ASSERT_TRUE(store_.Write(journal->oid(), attr->size, ByteSpan(partial)).ok());
  auto records = journal->ReadAll();
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);
}

TEST_F(JournalTest, DetectsCorruptRecord) {
  auto journal = Journal::Create(&store_, storage::ContainerId{1});
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(journal->Append({RecordType::kBegin, 1, Buffer{7, 7, 7}}).ok());
  ASSERT_TRUE(journal->Append({RecordType::kCommit, 1, {}}).ok());
  // Flip a byte inside the first record's txid field.  The type-range check
  // cannot catch this — only the per-record checksum can.
  Buffer flip = {0xFF};
  ASSERT_TRUE(store_.Write(journal->oid(), 5, ByteSpan(flip)).ok());
  auto records = journal->ReadAll();
  EXPECT_EQ(records.status().code(), ErrorCode::kDataLoss);
}

TEST_F(JournalTest, DetectsOutOfRangeRecordType) {
  auto journal = Journal::Create(&store_, storage::ContainerId{1});
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(journal->Append({RecordType::kBegin, 1, {}}).ok());
  ASSERT_TRUE(journal->Append({RecordType::kCommit, 1, {}}).ok());
  // A type byte flipped out of range on a complete record is corruption,
  // not a torn tail: the rest of the journal must not be silently dropped.
  Buffer flip = {0xFF};
  ASSERT_TRUE(store_.Write(journal->oid(), 0, ByteSpan(flip)).ok());
  auto records = journal->ReadAll();
  EXPECT_EQ(records.status().code(), ErrorCode::kDataLoss);
}

TEST_F(JournalTest, ToleratesTruncatedChecksum) {
  auto journal = Journal::Create(&store_, storage::ContainerId{1});
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(journal->Append({RecordType::kBegin, 1, {}}).ok());
  // A crash can tear a record anywhere, including inside the trailing
  // checksum.  Hand-encode a full record body but cut the crc short.
  Encoder enc;
  enc.PutU32(static_cast<std::uint32_t>(RecordType::kCommit));
  enc.PutU64(1);
  enc.PutBytes({});
  enc.PutU16(0xBEEF);  // two bytes where four bytes of crc should be
  auto attr = store_.GetAttr(journal->oid());
  ASSERT_TRUE(attr.ok());
  ASSERT_TRUE(
      store_.Write(journal->oid(), attr->size, ByteSpan(enc.buffer())).ok());
  auto records = journal->ReadAll();
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);  // torn tail dropped, prefix intact
}

TEST_F(JournalTest, UnfinishedListsPendingTxns) {
  auto journal = Journal::Create(&store_, storage::ContainerId{1});
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(journal->Append({RecordType::kBegin, 1, {}}).ok());
  ASSERT_TRUE(journal->Append({RecordType::kBegin, 2, {}}).ok());
  ASSERT_TRUE(journal->Append({RecordType::kCommit, 2, {}}).ok());
  ASSERT_TRUE(journal->Append({RecordType::kBegin, 3, {}}).ok());
  ASSERT_TRUE(journal->Append({RecordType::kCommit, 3, {}}).ok());
  ASSERT_TRUE(journal->Append({RecordType::kEnd, 3, {}}).ok());
  auto pending = journal->Unfinished();
  ASSERT_TRUE(pending.ok());
  EXPECT_EQ(*pending, (std::vector<TxnId>{1, 2}));
}

// ---- Two-phase commit -------------------------------------------------------------

class TwoPhaseTest : public ::testing::Test {
 protected:
  TwoPhaseTest() {
    auto journal = Journal::Create(&store_, storage::ContainerId{1});
    journal_ = std::make_unique<Journal>(*journal);
  }

  storage::MemObjectStore store_;
  std::unique_ptr<Journal> journal_;
};

TEST_F(TwoPhaseTest, CommitRunsApplies) {
  StagedParticipant a("a"), b("b");
  Coordinator coord(journal_.get());
  auto txid = coord.Begin({&a, &b});
  ASSERT_TRUE(txid.ok());
  int applied = 0;
  a.StageApply(*txid, [&] {
    ++applied;
    return OkStatus();
  });
  b.StageApply(*txid, [&] {
    ++applied;
    return OkStatus();
  });
  ASSERT_TRUE(coord.Commit(*txid).ok());
  EXPECT_EQ(applied, 2);
  EXPECT_EQ(*journal_->Outcome(*txid), TxnOutcome::kFinished);
  EXPECT_EQ(a.open_txns(), 0u);
}

TEST_F(TwoPhaseTest, AbortRunsUndosInReverse) {
  StagedParticipant a("a");
  Coordinator coord(journal_.get());
  auto txid = coord.Begin({&a});
  ASSERT_TRUE(txid.ok());
  std::vector<int> undone;
  a.AddUndo(*txid, [&] { undone.push_back(1); });
  a.AddUndo(*txid, [&] { undone.push_back(2); });
  int applied = 0;
  a.StageApply(*txid, [&] {
    ++applied;
    return OkStatus();
  });
  ASSERT_TRUE(coord.Abort(*txid).ok());
  EXPECT_EQ(applied, 0);
  EXPECT_EQ(undone, (std::vector<int>{2, 1}));  // reverse order
  EXPECT_EQ(*journal_->Outcome(*txid), TxnOutcome::kFinished);
}

TEST_F(TwoPhaseTest, NoVoteAborts) {
  StagedParticipant a("a"), b("b");
  Coordinator coord(journal_.get());
  auto txid = coord.Begin({&a, &b});
  ASSERT_TRUE(txid.ok());
  bool b_undone = false;
  b.AddUndo(*txid, [&] { b_undone = true; });
  a.Join(*txid);
  a.FailNextPrepare(*txid);
  Status s = coord.Commit(*txid);
  EXPECT_EQ(s.code(), ErrorCode::kAborted);
  EXPECT_TRUE(b_undone);
}

TEST_F(TwoPhaseTest, ParticipantOpsAreIdempotent) {
  StagedParticipant a("a");
  EXPECT_TRUE(a.Commit(999).ok());
  EXPECT_TRUE(a.Abort(999).ok());
  EXPECT_TRUE(*a.Prepare(999));
}

TEST_F(TwoPhaseTest, CrashAfterPrepareRecoversToAbort) {
  StagedParticipant a("a");
  Coordinator coord(journal_.get());
  auto txid = coord.Begin({&a});
  ASSERT_TRUE(txid.ok());
  bool undone = false;
  int applied = 0;
  a.AddUndo(*txid, [&] { undone = true; });
  a.StageApply(*txid, [&] {
    ++applied;
    return OkStatus();
  });
  coord.SetCrashPoint(CrashPoint::kAfterPrepare);
  EXPECT_EQ(coord.Commit(*txid).code(), ErrorCode::kUnavailable);
  EXPECT_EQ(applied, 0);

  // Recovery: no COMMIT decision in the journal => presumed abort.
  std::map<std::string, Participant*> registry = {{"a", &a}};
  ASSERT_TRUE(Coordinator::Recover(journal_.get(), registry).ok());
  EXPECT_TRUE(undone);
  EXPECT_EQ(applied, 0);
  EXPECT_EQ(*journal_->Outcome(*txid), TxnOutcome::kFinished);
}

TEST_F(TwoPhaseTest, CrashAfterCommitRecordRecoversToCommit) {
  StagedParticipant a("a");
  Coordinator coord(journal_.get());
  auto txid = coord.Begin({&a});
  ASSERT_TRUE(txid.ok());
  int applied = 0;
  a.StageApply(*txid, [&] {
    ++applied;
    return OkStatus();
  });
  coord.SetCrashPoint(CrashPoint::kAfterCommitRecord);
  EXPECT_EQ(coord.Commit(*txid).code(), ErrorCode::kUnavailable);
  EXPECT_EQ(applied, 0);  // decision durable but never delivered

  std::map<std::string, Participant*> registry = {{"a", &a}};
  ASSERT_TRUE(Coordinator::Recover(journal_.get(), registry).ok());
  EXPECT_EQ(applied, 1);  // recovery delivered the commit
  EXPECT_EQ(*journal_->Outcome(*txid), TxnOutcome::kFinished);
}

TEST_F(TwoPhaseTest, RecoverySkipsFinishedTransactions) {
  StagedParticipant a("a");
  Coordinator coord(journal_.get());
  auto txid = coord.Begin({&a});
  ASSERT_TRUE(txid.ok());
  int applied = 0;
  a.StageApply(*txid, [&] {
    ++applied;
    return OkStatus();
  });
  ASSERT_TRUE(coord.Commit(*txid).ok());
  std::map<std::string, Participant*> registry = {{"a", &a}};
  ASSERT_TRUE(Coordinator::Recover(journal_.get(), registry).ok());
  EXPECT_EQ(applied, 1);  // not applied twice
}

TEST_F(TwoPhaseTest, RecoveryFailsOnMissingParticipant) {
  StagedParticipant a("a");
  Coordinator coord(journal_.get());
  auto txid = coord.Begin({&a});
  ASSERT_TRUE(txid.ok());
  coord.SetCrashPoint(CrashPoint::kAfterPrepare);
  (void)coord.Commit(*txid);
  std::map<std::string, Participant*> registry;  // empty!
  EXPECT_EQ(Coordinator::Recover(journal_.get(), registry).code(),
            ErrorCode::kUnavailable);
}

TEST_F(TwoPhaseTest, DistinctTxnIds) {
  StagedParticipant a("a");
  Coordinator coord(journal_.get());
  auto t1 = coord.Begin({&a});
  auto t2 = coord.Begin({&a});
  ASSERT_TRUE(t1.ok() && t2.ok());
  EXPECT_NE(*t1, *t2);
}

TEST_F(TwoPhaseTest, CommitUnknownTxnFails) {
  Coordinator coord(journal_.get());
  EXPECT_EQ(coord.Commit(424242).code(), ErrorCode::kNotFound);
  EXPECT_EQ(coord.Abort(424242).code(), ErrorCode::kNotFound);
}

// ---- Crash-point × recovery matrix ----------------------------------------
//
// One harness drives every CrashPoint through the same commit-then-recover
// sequence and asserts the transaction converges to exactly one durable
// outcome: committed work applied once, aborted work undone once, never both.

struct CrashMatrixCase {
  const char* name;
  CrashPoint crash;
  bool commit_fails;   // does Commit() report the simulated crash?
  int applied_after;   // staged applies delivered after recovery
  bool undone_after;   // undo log ran after recovery
};

class TwoPhaseCrashMatrixTest
    : public TwoPhaseTest,
      public ::testing::WithParamInterface<CrashMatrixCase> {};

TEST_P(TwoPhaseCrashMatrixTest, RecoveryConvergesToSingleOutcome) {
  const CrashMatrixCase& c = GetParam();
  SCOPED_TRACE(c.name);
  StagedParticipant a("a"), b("b");
  Coordinator coord(journal_.get());
  auto txid = coord.Begin({&a, &b});
  ASSERT_TRUE(txid.ok());
  int applied = 0;
  bool undone = false;
  for (StagedParticipant* p : {&a, &b}) {
    p->AddUndo(*txid, [&] { undone = true; });
    p->StageApply(*txid, [&] {
      ++applied;
      return OkStatus();
    });
  }

  coord.SetCrashPoint(c.crash);
  Status commit = coord.Commit(*txid);
  if (c.commit_fails) {
    EXPECT_EQ(commit.code(), ErrorCode::kUnavailable);
    EXPECT_EQ(applied, 0);  // crash struck before any delivery
  } else {
    ASSERT_TRUE(commit.ok());
  }

  // Recovery must be safe to run whether or not a crash happened.
  std::map<std::string, Participant*> registry = {{"a", &a}, {"b", &b}};
  ASSERT_TRUE(Coordinator::Recover(journal_.get(), registry).ok());

  EXPECT_EQ(applied, c.applied_after);
  EXPECT_EQ(undone, c.undone_after);
  EXPECT_FALSE(c.applied_after > 0 && c.undone_after);  // never both
  EXPECT_EQ(*journal_->Outcome(*txid), TxnOutcome::kFinished);
  EXPECT_EQ(a.open_txns(), 0u);
  EXPECT_EQ(b.open_txns(), 0u);

  // Recovery is idempotent: a second pass changes nothing.
  ASSERT_TRUE(Coordinator::Recover(journal_.get(), registry).ok());
  EXPECT_EQ(applied, c.applied_after);
  EXPECT_EQ(undone, c.undone_after);
}

INSTANTIATE_TEST_SUITE_P(
    AllCrashPoints, TwoPhaseCrashMatrixTest,
    ::testing::Values(
        CrashMatrixCase{"NoCrash", CrashPoint::kNone, false, 2, false},
        CrashMatrixCase{"AfterPrepare", CrashPoint::kAfterPrepare, true, 0,
                        true},
        CrashMatrixCase{"AfterCommitRecord", CrashPoint::kAfterCommitRecord,
                        true, 2, false}),
    [](const ::testing::TestParamInfo<CrashMatrixCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace lwfs::txn
