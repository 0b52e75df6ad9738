#include "engine/mvcc/mvcc_engine.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "runtime/locking_strategy.h"
#include "storage/epoch_clock.h"
#include "wal/wal.h"

namespace orthrus::engine {
namespace {

using txn::Access;
using txn::LockMode;

constexpr int kMaxAccesses = 40;  // matches the ORTHRUS TCB bound

// A worker's epoch heartbeat slot, and the lock wait that keeps it live.
// Every spin of a lock wait publishes both heartbeats (a waiter has no
// install or snapshot read in flight) and offers a tick when no WAL logger
// ticks: the holder it waits on may be spinning on the reader floor in
// Table::InstallVersion, which needs every other worker's heartbeats to
// advance (storage/epoch_clock.h). FIFO otherwise — ordered acquisition
// makes the wait finite, so it never reports a deadlock.
class EpochHeartbeat final : public lock::DeadlockPolicy {
 public:
  EpochHeartbeat(storage::EpochClock* clock, int slot, bool wal_ticks)
      : clock_(clock), slot_(slot), wal_ticks_(wal_ticks) {}

  void Beat() {
    clock_->PublishIdle(slot_, &cache_);
    if (!wal_ticks_) clock_->MaybeTick(hal::Now());
  }

  bool WaitForGrant(lock::WorkerLockCtx* /*me*/, lock::Request* req,
                    lock::LockTable* /*table*/) override {
    while (req->granted.load() == 0) {
      Beat();
      hal::CpuRelax();
    }
    return true;
  }
  const char* name() const override { return "epoch-heartbeat-wait"; }

  int slot() const { return slot_; }
  storage::EpochClock::PublishCache* cache() { return &cache_; }

 private:
  storage::EpochClock* clock_;
  int slot_;
  bool wal_ticks_;
  storage::EpochClock::PublishCache cache_;
};

// Writers run the deadlock-free engine's path — sort by (table, key),
// acquire everything from the shared lock table in that order, execute —
// and additionally install the committed post-images into the version
// pairs before releasing. Classified read-only transactions skip all of
// that: one read-epoch load, then a lock-free versioned copy per row. The
// transaction boundary, every lock wait (EpochHeartbeat) and every driver
// WAL wait (Idle) publish the worker's epoch heartbeats — that is what
// keeps the read epoch and the reader floor advancing (and the floor spin
// in Table::InstallVersion finite) no matter which worker is stuck behind
// which.
class MvccStrategy final : public runtime::LockingStrategy {
 public:
  MvccStrategy(lock::LockTable* lock_table, lock::WorkerLockCtx* ctx,
               EpochHeartbeat* hb, storage::Database* db, WorkerStats* stats)
      : LockingStrategy(lock_table, ctx, hb, stats),
        db_(db),
        clock_(db->epoch_clock()),
        hb_(hb) {
    std::uint32_t max_stride = 8;
    table_snapshot_ok_.resize(db->num_tables());
    for (std::size_t i = 0; i < db->num_tables(); ++i) {
      const storage::Table* t = db->GetTable(static_cast<std::uint32_t>(i));
      max_stride = std::max(max_stride, t->row_stride());
      // Appended rows (TPC-C inserts) materialize outside the version
      // protocol, so tables with append regions fall back to locking.
      table_snapshot_ok_[i] =
          t->versions_enabled() && !t->has_append_region();
    }
    scratch_stride_ = max_stride;
    scratch_.resize(static_cast<std::size_t>(kMaxAccesses) * max_stride);
  }

  void Idle() override { hb_->Beat(); }

  runtime::TxnOutcome TryExecute(txn::Txn* t) override {
    ORTHRUS_CHECK(t->accesses.size() <= kMaxAccesses);
    // Transaction boundary: no install or snapshot read in flight, so both
    // heartbeats may advance; tick the clock if no WAL logger does.
    hb_->Beat();
    if (t->read_only && SnapshotEligible(t)) return SnapshotExecute(t);

    std::sort(t->accesses.begin(), t->accesses.end(), txn::AccessKeyOrder());
    hal::Cycles t0 = hal::Now();
    for (const Access& a : t->accesses) AcquireOrdered(a);
    stats()->Add(TimeCategory::kLocking, hal::Now() - t0);

    t0 = hal::Now();
    for (Access& a : t->accesses) ResolveRow(db_, &a);
    txn::ExecContext ec{db_, stats(), /*charge_cycles=*/true};
    const bool ok = t->logic->Run(t, ec);
    stats()->Add(TimeCategory::kExecution, hal::Now() - t0);

    // Durability: capture redo images while every lock is still held.
    if (ok && wal_ != nullptr) wal_->Capture(t, db_);
    // Version install: also under the X locks — the post-images just
    // written by the logic become the newest committed versions.
    if (ok) InstallVersions(t);
    ReleaseAllLocks();
    return ok ? runtime::TxnOutcome::kCommitted
              : runtime::TxnOutcome::kMismatch;
  }

 private:
  bool SnapshotEligible(const txn::Txn* t) const {
    if (t->logic->NeedsReconnaissance()) return false;
    for (const Access& a : t->accesses) {
      if (!table_snapshot_ok_[a.table]) return false;
    }
    return true;
  }

  runtime::TxnOutcome SnapshotExecute(txn::Txn* t) {
    hal::Cycles t0 = hal::Now();
    std::uint64_t r = clock_->ReadEpoch();
    for (;;) {
      bool fresh = true;
      for (std::size_t i = 0; i < t->accesses.size(); ++i) {
        Access& a = t->accesses[i];
        ResolveRow(db_, &a);
        storage::Table* tbl = db_->GetTable(a.table);
        std::uint8_t* dst = scratch_.data() + i * scratch_stride_;
        if (!tbl->SnapshotRead(tbl->SlotOfRow(a.row), r, dst)) {
          fresh = false;
          break;
        }
        a.row = dst;
      }
      if (fresh) break;
      // A row advanced twice past `r`: abandon this attempt, publish the
      // reader heartbeat (licensing the floor to move past the abandoned
      // reads), and restart the whole read set at a fresher epoch — a
      // per-row refresh would observe mixed epochs.
      hb_->Beat();
      // A stale row means writers have moved past `r`; fold the read epoch
      // forward now rather than waiting out the tick interval.
      clock_->FoldMins();
      hal::CpuRelax();
      r = clock_->ReadEpoch();
    }
    txn::ExecContext ec{db_, stats(), /*charge_cycles=*/true};
    const bool ok = t->logic->Run(t, ec);
    stats()->Add(TimeCategory::kExecution, hal::Now() - t0);
    if (!ok) return runtime::TxnOutcome::kMismatch;
    if (wal_ != nullptr) {
      // Read-only commits are trivially durable (no redo), so they never
      // enter the WAL pipeline; the driver only counts commits on the
      // no-WAL path, so count here.
      stats()->committed++;
      stats()->txn_latency.Record(hal::Now() - t->start_cycles);
    }
    return runtime::TxnOutcome::kCommitted;
  }

  void InstallVersions(txn::Txn* t) {
    const std::uint64_t e = clock_->CommitEpoch();
    clock_->PublishWriter(hb_->slot(), e, hb_->cache());
    for (Access& a : t->accesses) {
      if (a.mode != LockMode::kExclusive) continue;
      storage::Table* tbl = db_->GetTable(a.table);
      if (!tbl->versions_enabled()) continue;
      tbl->InstallVersion(tbl->SlotOfRow(a.row), e, clock_, hb_->slot(),
                          hb_->cache());
    }
  }

  storage::Database* db_;
  storage::EpochClock* clock_;
  EpochHeartbeat* hb_;
  std::vector<bool> table_snapshot_ok_;
  std::vector<std::uint8_t> scratch_;  // snapshot staging, setup-sized
  std::uint32_t scratch_stride_ = 0;
};

}  // namespace

RunResult MvccEngine::Run(hal::Platform* platform, storage::Database* db,
                          const workload::Workload& workload) {
  const int n = options_.num_cores;
  lock::LockTable::Config lt_config;
  lt_config.num_buckets = options_.lock_buckets;
  lt_config.max_lock_heads = options_.max_lock_heads;
  lt_config.max_workers = n;
  lock::LockTable lock_table(lt_config);

  // Version pairs + epoch clock, (re)seeded from the current main slabs —
  // after a WAL recovery this folds the replayed images into the snapshot
  // baseline.
  db->EnableSnapshotVersions(n, epoch_tick_cycles_);
  const bool wal_ticks = options_.wal != nullptr;
  if (wal_ticks) options_.wal->set_epoch_clock(db->epoch_clock());

  const int loggers = options_.wal != nullptr ? options_.wal->loggers() : 0;
  runtime::WorkerPool pool(platform, n + loggers, options_.duration_seconds,
                           options_.rng_seed);
  std::vector<lock::WorkerLockCtx*> ctxs(n);
  for (int w = 0; w < n; ++w) {
    ctxs[w] = lock_table.RegisterWorker(w, &pool.worker(w).stats);
  }

  const runtime::DriverOptions dopts = MakeDriverOptions(options_);
  for (int w = 0; w < n; ++w) {
    pool.Spawn(w, [this, db, &workload, &lock_table, &ctxs, &dopts,
                   wal_ticks](runtime::WorkerContext& ctx) {
      std::unique_ptr<workload::TxnSource> source =
          workload.MakeSource(ctx.worker_id);
      EpochHeartbeat hb(db->epoch_clock(), ctx.worker_id, wal_ticks);
      MvccStrategy strategy(&lock_table, ctxs[ctx.worker_id], &hb, db,
                            &ctx.stats);
      runtime::TxnDriver driver(dopts, db, source.get(), &strategy, &ctx);
      std::unique_ptr<wal::Producer> producer;
      if (options_.wal != nullptr) {
        producer = std::make_unique<wal::Producer>(options_.wal,
                                                   ctx.worker_id, &ctx);
        strategy.set_wal(producer.get());
        driver.set_wal(producer.get());
      }
      driver.Run();
      // Drop out of the epoch mins: a finished worker must not freeze the
      // read epoch (or the reader floor) for stragglers still installing.
      db->epoch_clock()->Retire(ctx.worker_id);
    });
  }
  for (int l = 0; l < loggers; ++l) {
    const int w = n + l;
    pool.AssignRole(w, runtime::WorkerRole::kLogger);
    pool.Spawn(w, [this, l](runtime::WorkerContext& ctx) {
      options_.wal->RunLogger(l, &ctx);
    });
  }

  RunResult result = pool.Run();
  if (options_.wal != nullptr) {
    ORTHRUS_CHECK_MSG(options_.wal->MeshBacklogRaw() == 0,
                      "wal fragments stranded in the mesh after shutdown");
  }
  return result;
}

}  // namespace orthrus::engine
