// Tests for the shared-everything lock table and the three deadlock
// policies: grant compatibility, FIFO fairness, wake-ups, wait-die ordering
// rules, and forced-deadlock detection for the graph-based schemes.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "hal/native_platform.h"
#include "hal/sim_platform.h"
#include "lock/lock_table.h"
#include "lock/space_map.h"

namespace orthrus::lock {
namespace {

using txn::LockMode;

lock::LockTable::Config SmallConfig() {
  LockTable::Config c;
  c.num_buckets = 256;
  c.max_lock_heads = 4096;
  c.max_workers = 8;
  return c;
}

// Single-threaded grant-path tests (no platform needed: everything is
// immediate when uncontended).
class LockTableBasic : public ::testing::Test {
 protected:
  LockTableBasic() : table_(SmallConfig()) {
    for (int i = 0; i < 4; ++i) {
      ctx_[i] = table_.RegisterWorker(i, &stats_[i]);
      ctx_[i]->txn_timestamp = 100 + i;  // worker 0 oldest
    }
  }
  LockTable table_;
  WorkerStats stats_[4];
  WorkerLockCtx* ctx_[4];
};

TEST_F(LockTableBasic, ExclusiveGrantsImmediately) {
  EXPECT_EQ(table_.Acquire(ctx_[0], 1, 42, LockMode::kExclusive, nullptr),
            LockTable::AcquireResult::kGranted);
  EXPECT_EQ(table_.HeldCount(ctx_[0]), 1u);
  table_.ReleaseAll(ctx_[0]);
  EXPECT_EQ(table_.HeldCount(ctx_[0]), 0u);
}

TEST_F(LockTableBasic, SharedLocksCoexist) {
  EXPECT_EQ(table_.Acquire(ctx_[0], 1, 42, LockMode::kShared, nullptr),
            LockTable::AcquireResult::kGranted);
  EXPECT_EQ(table_.Acquire(ctx_[1], 1, 42, LockMode::kShared, nullptr),
            LockTable::AcquireResult::kGranted);
  EXPECT_EQ(table_.Acquire(ctx_[2], 1, 42, LockMode::kShared, nullptr),
            LockTable::AcquireResult::kGranted);
  table_.ReleaseAll(ctx_[0]);
  table_.ReleaseAll(ctx_[1]);
  table_.ReleaseAll(ctx_[2]);
}

TEST_F(LockTableBasic, WriterBlocksBehindReader) {
  EXPECT_EQ(table_.Acquire(ctx_[0], 1, 42, LockMode::kShared, nullptr),
            LockTable::AcquireResult::kGranted);
  EXPECT_EQ(table_.Acquire(ctx_[1], 1, 42, LockMode::kExclusive, nullptr),
            LockTable::AcquireResult::kWaiting);
  EXPECT_EQ(stats_[1].lock_waits, 1u);
}

TEST_F(LockTableBasic, ReaderBlocksBehindWaitingWriterFifo) {
  // S held; X waits; a later S must NOT bypass the X (FIFO, no starvation).
  ASSERT_EQ(table_.Acquire(ctx_[0], 1, 7, LockMode::kShared, nullptr),
            LockTable::AcquireResult::kGranted);
  ASSERT_EQ(table_.Acquire(ctx_[1], 1, 7, LockMode::kExclusive, nullptr),
            LockTable::AcquireResult::kWaiting);
  EXPECT_EQ(table_.Acquire(ctx_[2], 1, 7, LockMode::kShared, nullptr),
            LockTable::AcquireResult::kWaiting);
}

TEST_F(LockTableBasic, DistinctKeysIndependent) {
  EXPECT_EQ(table_.Acquire(ctx_[0], 1, 1, LockMode::kExclusive, nullptr),
            LockTable::AcquireResult::kGranted);
  EXPECT_EQ(table_.Acquire(ctx_[1], 1, 2, LockMode::kExclusive, nullptr),
            LockTable::AcquireResult::kGranted);
  EXPECT_EQ(table_.Acquire(ctx_[2], 2, 1, LockMode::kExclusive, nullptr),
            LockTable::AcquireResult::kGranted);  // same key, other table
}

TEST_F(LockTableBasic, LockHeadsAreReused) {
  for (int round = 0; round < 10; ++round) {
    ASSERT_EQ(table_.Acquire(ctx_[0], 1, 5, LockMode::kExclusive, nullptr),
              LockTable::AcquireResult::kGranted);
    table_.ReleaseAll(ctx_[0]);
  }
  EXPECT_EQ(table_.lock_heads_in_use(), 1u);
}

// --- Lock-head reuse: a miss re-keys the first drained head on its chain,
// so a chain holds its bucket's peak number of keys locked at once. One
// bucket puts every key on the same chain.

LockTable::Config OneBucketConfig() {
  LockTable::Config c = SmallConfig();
  c.num_buckets = 1;
  return c;
}

TEST(LockTableHeadReuse, KeysLockedOneAtATimeShareOneHead) {
  LockTable table(OneBucketConfig());
  WorkerStats stats;
  WorkerLockCtx* ctx = table.RegisterWorker(0, &stats);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    ASSERT_EQ(table.Acquire(ctx, 1, key, LockMode::kExclusive, nullptr),
              LockTable::AcquireResult::kGranted);
    table.ReleaseAll(ctx);
  }
  EXPECT_EQ(table.lock_heads_in_use(), 1u);
}

TEST(LockTableHeadReuse, KeysHeldTogetherGetDistinctHeads) {
  LockTable table(OneBucketConfig());
  WorkerStats stats[2];
  WorkerLockCtx* c0 = table.RegisterWorker(0, &stats[0]);
  WorkerLockCtx* c1 = table.RegisterWorker(1, &stats[1]);
  ASSERT_EQ(table.Acquire(c0, 1, 1, LockMode::kExclusive, nullptr),
            LockTable::AcquireResult::kGranted);
  ASSERT_EQ(table.Acquire(c1, 1, 2, LockMode::kExclusive, nullptr),
            LockTable::AcquireResult::kGranted);
  const LockHead* h0 = c0->acquired[0]->head;
  const LockHead* h1 = c1->acquired[0]->head;
  EXPECT_NE(h0, h1);
  EXPECT_EQ(h0->key, 1u);
  EXPECT_EQ(h1->key, 2u);
  EXPECT_EQ(table.lock_heads_in_use(), 2u);
  table.ReleaseAll(c0);
  table.ReleaseAll(c1);
  // Two new keys held together re-key both drained heads.
  ASSERT_EQ(table.Acquire(c0, 1, 3, LockMode::kExclusive, nullptr),
            LockTable::AcquireResult::kGranted);
  ASSERT_EQ(table.Acquire(c0, 1, 4, LockMode::kExclusive, nullptr),
            LockTable::AcquireResult::kGranted);
  EXPECT_NE(c0->acquired[0]->head, c0->acquired[1]->head);
  EXPECT_EQ(table.lock_heads_in_use(), 2u);
  table.ReleaseAll(c0);
}

TEST(LockTableHeadReuse, HeadWithQueuedWaiterKeepsItsKey) {
  LockTable table(OneBucketConfig());
  WorkerStats stats[3];
  WorkerLockCtx* ctx[3];
  for (int i = 0; i < 3; ++i) ctx[i] = table.RegisterWorker(i, &stats[i]);
  ASSERT_EQ(table.Acquire(ctx[0], 1, 5, LockMode::kExclusive, nullptr),
            LockTable::AcquireResult::kGranted);
  ASSERT_EQ(table.Acquire(ctx[1], 1, 5, LockMode::kExclusive, nullptr),
            LockTable::AcquireResult::kWaiting);
  Request* waiter = ctx[1]->waiting_request;
  const LockHead* head = waiter->head;
  // Churn the chain while key 5 is held and waited on: the churn re-keys
  // its own drained head, never key 5's.
  for (std::uint64_t key = 100; key < 200; ++key) {
    ASSERT_EQ(table.Acquire(ctx[2], 1, key, LockMode::kExclusive, nullptr),
              LockTable::AcquireResult::kGranted);
    table.ReleaseAll(ctx[2]);
  }
  EXPECT_EQ(head->table, 1u);
  EXPECT_EQ(head->key, 5u);
  EXPECT_EQ(table.lock_heads_in_use(), 2u);
  // The holder leaves; the waiter is granted on the same head.
  table.ReleaseAll(ctx[0]);
  EXPECT_EQ(waiter->granted.RawLoad(), 1u);
  EXPECT_TRUE(table.Wait(ctx[1], nullptr));
  EXPECT_EQ(waiter->head, head);
  EXPECT_EQ(head->key, 5u);
  table.ReleaseAll(ctx[1]);
  EXPECT_EQ(table.lock_heads_in_use(), 2u);
}

TEST(LockTableHeadReuse, WaitDieStreamOverRekeyedHeads) {
  // A table warmed to four drained heads on its single chain, then a mixed
  // stream (shared runs, X conflicts, wait-die deaths) whose four keys all
  // land on re-keyed heads. Ages: worker 1 < 3 < 0 < 2 (oldest first); a
  // requester waits only when it is older than every conflicting request
  // ahead of it.
  using R = LockTable::AcquireResult;
  struct Item {
    int worker;
    std::uint32_t table;
    std::uint64_t key;
    LockMode mode;
    R want;
  };
  const Item stream[] = {
      {0, 1, 7, LockMode::kShared, R::kGranted},
      {1, 1, 7, LockMode::kShared, R::kGranted},
      {2, 1, 7, LockMode::kExclusive, R::kDie},  // youngest vs two readers
      {3, 1, 7, LockMode::kShared, R::kGranted},
      {0, 1, 8, LockMode::kExclusive, R::kGranted},
      {1, 1, 8, LockMode::kExclusive, R::kWaiting},  // older than holder 0
      {3, 1, 8, LockMode::kShared, R::kDie},         // younger than waiter 1
      {2, 2, 8, LockMode::kShared, R::kGranted},     // other table, same key
      {3, 1, 9, LockMode::kExclusive, R::kGranted},
      {0, 1, 9, LockMode::kShared, R::kDie},  // younger than holder 3
  };
  constexpr std::uint64_t kAge[4] = {102, 100, 103, 101};
  WaitDiePolicy policy;

  LockTable table(OneBucketConfig());
  WorkerStats stats[4];
  WorkerLockCtx* ctx[4];
  for (int i = 0; i < 4; ++i) ctx[i] = table.RegisterWorker(i, &stats[i]);
  for (std::uint64_t key = 1000; key < 1004; ++key) {
    ASSERT_EQ(table.Acquire(ctx[0], 1, key, LockMode::kExclusive, nullptr),
              R::kGranted);
  }
  table.ReleaseAll(ctx[0]);
  ASSERT_EQ(table.lock_heads_in_use(), 4u);
  for (int i = 0; i < 4; ++i) ctx[i]->txn_timestamp = kAge[i];

  for (std::size_t i = 0; i < sizeof(stream) / sizeof(stream[0]); ++i) {
    const Item& it = stream[i];
    EXPECT_EQ(table.Acquire(ctx[it.worker], it.table, it.key, it.mode,
                            &policy),
              it.want)
        << "request " << i;
  }
  EXPECT_EQ(table.lock_heads_in_use(), 4u);
  // Granted and queued requests are held; dead ones left no trace.
  const std::size_t want_held[4] = {2, 2, 1, 2};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(table.HeldCount(ctx[i]), want_held[i]) << "worker " << i;
  }
  for (int i = 0; i < 4; ++i) table.ReleaseAll(ctx[i]);
  EXPECT_EQ(table.lock_heads_in_use(), 4u);
}

// --- wait-die decision rules (single-threaded: we inspect the immediate
// result of Acquire).

TEST_F(LockTableBasic, WaitDieOlderWaitsOnYounger) {
  WaitDiePolicy policy;
  ctx_[1]->txn_timestamp = 200;  // younger holder
  ASSERT_EQ(table_.Acquire(ctx_[1], 1, 9, LockMode::kExclusive, &policy),
            LockTable::AcquireResult::kGranted);
  ctx_[0]->txn_timestamp = 100;  // older requester
  EXPECT_EQ(table_.Acquire(ctx_[0], 1, 9, LockMode::kExclusive, &policy),
            LockTable::AcquireResult::kWaiting);
}

TEST_F(LockTableBasic, WaitDieYoungerDies) {
  WaitDiePolicy policy;
  ctx_[0]->txn_timestamp = 100;  // older holder
  ASSERT_EQ(table_.Acquire(ctx_[0], 1, 9, LockMode::kExclusive, &policy),
            LockTable::AcquireResult::kGranted);
  ctx_[1]->txn_timestamp = 200;  // younger requester
  EXPECT_EQ(table_.Acquire(ctx_[1], 1, 9, LockMode::kExclusive, &policy),
            LockTable::AcquireResult::kDie);
  EXPECT_EQ(table_.HeldCount(ctx_[1]), 0u);
}

TEST_F(LockTableBasic, WaitDieDieReleasesQueueSlot) {
  WaitDiePolicy policy;
  ctx_[0]->txn_timestamp = 100;
  ASSERT_EQ(table_.Acquire(ctx_[0], 1, 9, LockMode::kExclusive, &policy),
            LockTable::AcquireResult::kGranted);
  ctx_[1]->txn_timestamp = 200;
  ASSERT_EQ(table_.Acquire(ctx_[1], 1, 9, LockMode::kExclusive, &policy),
            LockTable::AcquireResult::kDie);
  // The dead request must not block future grants.
  table_.ReleaseAll(ctx_[0]);
  EXPECT_EQ(table_.Acquire(ctx_[2], 1, 9, LockMode::kExclusive, &policy),
            LockTable::AcquireResult::kGranted);
}

// --- Multi-core scenarios on the simulator (deterministic).

TEST(LockTableSim, ReleaseWakesWaiterFifo) {
  LockTable table(SmallConfig());
  WorkerStats stats[2];
  hal::SimPlatform sim(2);
  WorkerLockCtx* c0 = table.RegisterWorker(0, &stats[0]);
  WorkerLockCtx* c1 = table.RegisterWorker(1, &stats[1]);
  std::vector<int> order;
  sim.Spawn(0, [&] {
    ASSERT_EQ(table.Acquire(c0, 1, 5, LockMode::kExclusive, nullptr),
              LockTable::AcquireResult::kGranted);
    hal::ConsumeCycles(20000);  // hold while core 1 queues up
    order.push_back(0);
    table.ReleaseAll(c0);
  });
  sim.Spawn(1, [&] {
    hal::ConsumeCycles(1000);  // ensure core 0 already holds
    auto r = table.Acquire(c1, 1, 5, LockMode::kExclusive, nullptr);
    if (r == LockTable::AcquireResult::kWaiting) {
      ASSERT_TRUE(table.Wait(c1, nullptr));
    }
    order.push_back(1);
    table.ReleaseAll(c1);
  });
  sim.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_GT(stats[1].Get(TimeCategory::kWaiting), 0u);
}

// Forces a true deadlock (0 holds A wants B; 1 holds B wants A) and checks
// each detection policy resolves it: at least one worker aborts and both
// finish.
template <typename Policy>
void RunForcedDeadlock(Policy* policy) {
  LockTable table(SmallConfig());
  WorkerStats stats[2];
  hal::SimPlatform sim(2);
  WorkerLockCtx* ctx[2] = {table.RegisterWorker(0, &stats[0]),
                           table.RegisterWorker(1, &stats[1])};
  ctx[0]->txn_timestamp = 1;
  ctx[1]->txn_timestamp = 2;
  int aborts = 0;
  auto worker = [&](int me, std::uint64_t first, std::uint64_t second) {
    ASSERT_EQ(table.Acquire(ctx[me], 1, first, LockMode::kExclusive, policy),
              LockTable::AcquireResult::kGranted);
    hal::ConsumeCycles(5000);  // let both sides take their first lock
    auto r = table.Acquire(ctx[me], 1, second, LockMode::kExclusive, policy);
    if (r == LockTable::AcquireResult::kWaiting) {
      if (!table.Wait(ctx[me], policy)) aborts++;
    } else if (r == LockTable::AcquireResult::kDie) {
      aborts++;
    }
    table.ReleaseAll(ctx[me]);
  };
  sim.Spawn(0, [&] { worker(0, 100, 200); });
  sim.Spawn(1, [&] { worker(1, 200, 100); });
  sim.Run();  // termination itself proves the deadlock was broken
  EXPECT_GE(aborts, 1);
}

TEST(LockTableSim, DreadlocksDetectsForcedDeadlock) {
  DreadlocksPolicy policy;
  RunForcedDeadlock(&policy);
}

TEST(LockTableSim, WaitForGraphDetectsForcedDeadlock) {
  WaitForGraphPolicy policy(8);
  RunForcedDeadlock(&policy);
}

TEST(LockTableSim, WaitDieAvoidsForcedDeadlock) {
  WaitDiePolicy policy;
  RunForcedDeadlock(&policy);
}

TEST(LockTableSim, SharedReadersProceedConcurrently) {
  LockTable table(SmallConfig());
  WorkerStats stats[4];
  hal::SimPlatform sim(4);
  WorkerLockCtx* ctx[4];
  for (int i = 0; i < 4; ++i) ctx[i] = table.RegisterWorker(i, &stats[i]);
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    sim.Spawn(i, [&, i] {
      for (int round = 0; round < 50; ++round) {
        auto r = table.Acquire(ctx[i], 1, 7, LockMode::kShared, nullptr);
        if (r == LockTable::AcquireResult::kWaiting) {
          ASSERT_TRUE(table.Wait(ctx[i], nullptr));
        }
        hal::ConsumeCycles(50);
        table.ReleaseAll(ctx[i]);
      }
      completed++;
    });
  }
  sim.Run();
  EXPECT_EQ(completed, 4);
  // Readers never conflict: no one should have waited.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(stats[i].lock_waits, 0u);
}

TEST(LockTableNative, MutualExclusionUnderRealThreads) {
  LockTable table(SmallConfig());
  WorkerStats stats[4];
  hal::NativePlatform platform(4);
  WorkerLockCtx* ctx[4];
  for (int i = 0; i < 4; ++i) ctx[i] = table.RegisterWorker(i, &stats[i]);
  std::uint64_t counter = 0;  // protected by lock (1, 99)
  constexpr int kIters = 2000;
  for (int i = 0; i < 4; ++i) {
    platform.Spawn(i, [&, i] {
      for (int round = 0; round < kIters; ++round) {
        auto r = table.Acquire(ctx[i], 1, 99, LockMode::kExclusive, nullptr);
        if (r == LockTable::AcquireResult::kWaiting) {
          ASSERT_TRUE(table.Wait(ctx[i], nullptr));
        }
        counter++;
        table.ReleaseAll(ctx[i]);
      }
    });
  }
  platform.Run();
  EXPECT_EQ(counter, 4ull * kIters);
}

TEST(LockTableNative, DrainedHeadReuseUnderRealThreads) {
  // Four buckets, a thousand keys: every transaction X-locks one of four
  // hot keys and then a cold key, so heads are re-keyed all the time while
  // other threads queue on their neighbours in the same chains.
  LockTable::Config config = SmallConfig();
  config.num_buckets = 4;
  LockTable table(config);
  WorkerStats stats[4];
  hal::NativePlatform platform(4);
  WorkerLockCtx* ctx[4];
  for (int i = 0; i < 4; ++i) ctx[i] = table.RegisterWorker(i, &stats[i]);
  constexpr std::uint64_t kHot = 4;
  constexpr std::uint64_t kKeys = 1000;
  constexpr int kIters = 2000;
  std::vector<std::uint64_t> counters(kKeys, 0);  // counters[k]: lock (1, k)
  for (int i = 0; i < 4; ++i) {
    platform.Spawn(i, [&, i] {
      for (int round = 0; round < kIters; ++round) {
        const std::uint64_t hot = static_cast<std::uint64_t>(round) % kHot;
        const std::uint64_t cold =
            kHot + (static_cast<std::uint64_t>(round) * 7919 +
                    static_cast<std::uint64_t>(i) * 104729) %
                       (kKeys - kHot);
        for (std::uint64_t key : {hot, cold}) {  // ascending: no deadlock
          auto r = table.Acquire(ctx[i], 1, key, LockMode::kExclusive,
                                 nullptr);
          if (r == LockTable::AcquireResult::kWaiting) {
            ASSERT_TRUE(table.Wait(ctx[i], nullptr));
          }
          counters[key]++;
        }
        table.ReleaseAll(ctx[i]);
      }
    });
  }
  platform.Run();
  std::uint64_t total = 0;
  for (std::uint64_t c : counters) total += c;
  EXPECT_EQ(total, 4ull * kIters * 2);
  for (std::uint64_t k = 0; k < kHot; ++k) {
    EXPECT_EQ(counters[k], 4ull * kIters / kHot);
  }
  // Each thread has requests queued on at most two keys at a time, so no
  // chain ever needs more than eight heads.
  EXPECT_LE(table.lock_heads_in_use(), 4u * 8u);
}

TEST(LockTableNative, WaitDieStressEventuallyAllCommit) {
  // High-conflict loop with wait-die: every worker must finish its quota
  // despite aborts (no livelock thanks to age retention).
  LockTable table(SmallConfig());
  WorkerStats stats[4];
  hal::NativePlatform platform(4);
  WaitDiePolicy policy;
  WorkerLockCtx* ctx[4];
  for (int i = 0; i < 4; ++i) ctx[i] = table.RegisterWorker(i, &stats[i]);
  std::uint64_t commits[4] = {0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    platform.Spawn(i, [&, i] {
      std::uint64_t ts = i + 1;
      while (commits[i] < 300) {
        ctx[i]->txn_timestamp = ts;
        bool ok = true;
        for (std::uint64_t key : {7ull, 8ull}) {
          auto r = table.Acquire(ctx[i], 1, key, LockMode::kExclusive,
                                 &policy);
          if (r == LockTable::AcquireResult::kDie) {
            ok = false;
            break;
          }
          if (r == LockTable::AcquireResult::kWaiting &&
              !table.Wait(ctx[i], &policy)) {
            ok = false;
            break;
          }
        }
        table.ReleaseAll(ctx[i]);
        if (ok) {
          commits[i]++;
          ts += 4;  // fresh, still unique timestamp for the next txn
        }
        // Aborted txns retry with the same timestamp: eventual progress.
      }
    });
  }
  platform.Run();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(commits[i], 300u);
}

}  // namespace
}  // namespace orthrus::lock

namespace orthrus::lock {
namespace {

// --- Additional edge cases -------------------------------------------

LockTable::Config EdgeConfig() {
  LockTable::Config c;
  c.num_buckets = 256;
  c.max_lock_heads = 4096;
  c.max_workers = 8;
  return c;
}

TEST(LockTableEdge, SingleWorkerReacquiresFreely) {
  LockTable table(EdgeConfig());
  WorkerStats stats;
  hal::SimPlatform sim(1);
  WorkerLockCtx* ctx = table.RegisterWorker(0, &stats);
  sim.Spawn(0, [&] {
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(table.Acquire(ctx, 1, i % 7, LockMode::kExclusive, nullptr),
                LockTable::AcquireResult::kGranted);
      table.ReleaseAll(ctx);
    }
  });
  sim.Run();
  EXPECT_EQ(stats.lock_waits, 0u);
}

TEST(LockTableEdge, DreadlocksDigestResetBetweenTransactions) {
  // After a wait ends, the published digest must collapse back to the
  // worker's own bit — stale closure bits would seed false positives in
  // later transactions.
  LockTable table(EdgeConfig());
  WorkerStats stats[2];
  hal::SimPlatform sim(2);
  WorkerLockCtx* c0 = table.RegisterWorker(0, &stats[0]);
  WorkerLockCtx* c1 = table.RegisterWorker(1, &stats[1]);
  DreadlocksPolicy policy;
  sim.Spawn(0, [&] {
    ASSERT_EQ(table.Acquire(c0, 1, 5, LockMode::kExclusive, &policy),
              LockTable::AcquireResult::kGranted);
    hal::ConsumeCycles(20000);
    table.ReleaseAll(c0);
  });
  sim.Spawn(1, [&] {
    hal::ConsumeCycles(1000);
    auto r = table.Acquire(c1, 1, 5, LockMode::kExclusive, &policy);
    ASSERT_EQ(r, LockTable::AcquireResult::kWaiting);
    ASSERT_TRUE(table.Wait(c1, &policy));
    table.ReleaseAll(c1);
  });
  sim.Run();
  // Worker 1 waited on worker 0; afterwards its digest is just {1}.
  EXPECT_EQ(c1->digest_lo.RawLoad(), 1ull << 1);
  EXPECT_EQ(c1->digest_hi.RawLoad(), 0u);
}

TEST(LockTableEdge, WaitForGraphEdgeClearedAfterGrant) {
  LockTable table(EdgeConfig());
  WorkerStats stats[2];
  hal::SimPlatform sim(2);
  WorkerLockCtx* c0 = table.RegisterWorker(0, &stats[0]);
  WorkerLockCtx* c1 = table.RegisterWorker(1, &stats[1]);
  WaitForGraphPolicy policy(2);
  sim.Spawn(0, [&] {
    ASSERT_EQ(table.Acquire(c0, 1, 9, LockMode::kExclusive, &policy),
              LockTable::AcquireResult::kGranted);
    hal::ConsumeCycles(20000);
    table.ReleaseAll(c0);
  });
  sim.Spawn(1, [&] {
    hal::ConsumeCycles(1000);
    auto r = table.Acquire(c1, 1, 9, LockMode::kExclusive, &policy);
    ASSERT_EQ(r, LockTable::AcquireResult::kWaiting);
    ASSERT_TRUE(table.Wait(c1, &policy));
    table.ReleaseAll(c1);
  });
  sim.Run();
  EXPECT_EQ(c1->waits_for.RawLoad(), 0u);
}

TEST(LockTableEdge, QueueCountersBalanceAfterChurn) {
  // Grant/abort/release churn must leave every queue empty: re-acquiring
  // exclusively must succeed instantly for every key touched.
  LockTable table(EdgeConfig());
  WorkerStats stats[3];
  hal::SimPlatform sim(3);
  WorkerLockCtx* ctx[3];
  for (int i = 0; i < 3; ++i) ctx[i] = table.RegisterWorker(i, &stats[i]);
  WaitDiePolicy policy;
  for (int i = 0; i < 3; ++i) {
    sim.Spawn(i, [&, i] {
      std::uint64_t ts = i + 1;
      for (int round = 0; round < 200; ++round) {
        ctx[i]->txn_timestamp = ts;
        bool ok = true;
        for (std::uint64_t key : {3ull, 4ull, 5ull}) {
          auto r = table.Acquire(ctx[i], 1, key, LockMode::kExclusive,
                                 &policy);
          if (r == LockTable::AcquireResult::kDie ||
              (r == LockTable::AcquireResult::kWaiting &&
               !table.Wait(ctx[i], &policy))) {
            ok = false;
            break;
          }
        }
        table.ReleaseAll(ctx[i]);
        if (ok) ts += 3;
      }
    });
  }
  sim.Run();
  // All queues drained: fresh exclusive acquisitions are instant.
  WorkerStats post;
  WorkerLockCtx* probe = table.RegisterWorker(3, &post);
  hal::SimPlatform sim2(1);
  sim2.Spawn(0, [&] {
    for (std::uint64_t key : {3ull, 4ull, 5ull}) {
      EXPECT_EQ(table.Acquire(probe, 1, key, LockMode::kExclusive, nullptr),
                LockTable::AcquireResult::kGranted);
    }
    table.ReleaseAll(probe);
  });
  sim2.Run();
  EXPECT_EQ(post.lock_waits, 0u);
}

// ------------------------------------------------- lock-space ownership

TEST(HashRing, OwnersAreDeterministicAndInRange) {
  HashRing a(8), b(8);
  for (int active = 1; active <= 8; ++active) {
    for (int p = 0; p < 64; ++p) {
      const int owner = a.OwnerOf(p, active);
      EXPECT_GE(owner, 0);
      EXPECT_LT(owner, active);
      EXPECT_EQ(owner, b.OwnerOf(p, active));  // pure arithmetic: no state
    }
  }
}

TEST(HashRing, ResizingMovesOnlyTheAffectedSlotsPartitions) {
  // The consistent-hash property the handoff cost depends on: stepping the
  // active count from k to k-1 moves only partitions owned by slot k-1;
  // every other partition keeps its owner. (Growing is the same statement
  // read backwards.)
  HashRing ring(8);
  const int kParts = 256;
  for (int k = 8; k >= 2; --k) {
    int moved_from_other_slots = 0;
    int retired_owned = 0;
    for (int p = 0; p < kParts; ++p) {
      const int before = ring.OwnerOf(p, k);
      const int after = ring.OwnerOf(p, k - 1);
      if (before == k - 1) {
        retired_owned++;
        EXPECT_LT(after, k - 1);  // must move somewhere active
      } else if (before != after) {
        moved_from_other_slots++;
      }
    }
    EXPECT_EQ(moved_from_other_slots, 0) << "k=" << k;
    EXPECT_GT(retired_owned, 0) << "k=" << k;  // slots do own partitions
  }
}

TEST(HashRing, OwnersForMatchesOwnerOf) {
  HashRing ring(4);
  const std::vector<std::uint32_t> owners = ring.OwnersFor(32, 3);
  ASSERT_EQ(owners.size(), 32u);
  for (int p = 0; p < 32; ++p) {
    EXPECT_EQ(static_cast<int>(owners[p]), ring.OwnerOf(p, 3));
  }
}

struct ProbeShard {
  int id = 0;
  std::uint64_t writes = 0;
};

TEST(SpaceMap, PublishBumpsVersionAndRetables) {
  HashRing ring(4);
  SpaceMap<ProbeShard> map;
  map.Reset(8, ring.OwnersFor(8, 4), /*routers=*/2, [](int p) {
    auto s = std::make_unique<ProbeShard>();
    s->id = p;
    return s;
  });
  EXPECT_EQ(map.partitions(), 8);
  EXPECT_EQ(map.VersionRaw(), 1u);
  for (int p = 0; p < 8; ++p) {
    EXPECT_EQ(map.shard(p)->id, p);
    EXPECT_EQ(map.ShardOwnerRaw(p),
              static_cast<std::uint64_t>(ring.OwnerOf(p, 4)));
  }
  const std::uint64_t v2 = map.Publish(ring.OwnersFor(8, 2));
  EXPECT_EQ(v2, 2u);
  for (int p = 0; p < 8; ++p) {
    EXPECT_EQ(map.RouteOf(p),
              static_cast<std::uint64_t>(ring.OwnerOf(p, 2)));
    // Publication moves the routing hints only; shard ownership moves when
    // the owner relinquishes.
    EXPECT_EQ(map.ShardOwnerRaw(p),
              static_cast<std::uint64_t>(ring.OwnerOf(p, 4)));
  }
}

TEST(SpaceMap, RouterRefreshObservesEpochsAndBarriers) {
  HashRing ring(4);
  SpaceMap<ProbeShard> map;
  map.Reset(8, ring.OwnersFor(8, 4), /*routers=*/2,
            [](int) { return std::make_unique<ProbeShard>(); });
  LockSpaceRouter<ProbeShard> r0(&map, 0);
  LockSpaceRouter<ProbeShard> r1(&map, 1);
  // Unrefreshed routers count as past every barrier (they cache nothing).
  EXPECT_TRUE(map.AllObservedAtLeast(1));
  EXPECT_TRUE(r0.Refresh());   // first refresh adopts version 1
  EXPECT_FALSE(r0.Refresh());  // unchanged epoch: no copy, no publication
  for (int p = 0; p < 8; ++p) {
    EXPECT_EQ(r0.OwnerOf(p), ring.OwnerOf(p, 4));
  }
  map.Publish(ring.OwnersFor(8, 1));
  EXPECT_TRUE(r1.Refresh());                // jumps straight to version 2
  EXPECT_FALSE(map.AllObservedAtLeast(2));  // r0 still caches version 1
  EXPECT_TRUE(r0.Refresh());
  EXPECT_TRUE(map.AllObservedAtLeast(2));
  for (int p = 0; p < 8; ++p) {
    EXPECT_EQ(r0.OwnerOf(p), 0);  // one active slot owns everything
  }
  // A deactivated router leaves every barrier satisfied until it resumes.
  map.Publish(ring.OwnersFor(8, 3));
  r0.Deactivate();
  EXPECT_TRUE(r1.Refresh());
  EXPECT_TRUE(map.AllObservedAtLeast(3));
  EXPECT_TRUE(r0.Refresh());  // resume: forced refresh rebuilds the view
}

TEST(SpaceMap, RelinquishTransfersShardAuthority) {
  HashRing ring(2);
  SpaceMap<ProbeShard> map;
  std::vector<std::uint32_t> owners(4, 0);  // slot 0 owns everything
  map.Reset(4, owners, /*routers=*/1,
            [](int) { return std::make_unique<ProbeShard>(); });
  map.shard(2)->writes = 7;  // state written by the current owner
  map.Relinquish(2, 1);
  EXPECT_EQ(map.ShardOwnerRaw(2), 1u);
  EXPECT_EQ(map.shard(2)->writes, 7u);  // the pointer moved, not the state
  EXPECT_EQ(map.ShardOwnerRaw(0), 0u);  // untouched shards keep their owner
}

}  // namespace
}  // namespace orthrus::lock
