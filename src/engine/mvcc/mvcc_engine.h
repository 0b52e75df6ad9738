// The sixth architecture: epoch-snapshot MVCC over the shared lock table.
//
// Writers run exactly the deadlock-free engine's path (sort the access set
// by (table, key), acquire everything in that order from the bucket-latched
// lock::LockTable, execute — engine/deadlockfree) and additionally install
// the committed post-image into the row's two-slot version pair under their
// X locks, stamped with the global commit epoch (storage/epoch_clock.h).
// Their lock waits publish the worker's epoch heartbeats while they spin.
// Read-only transactions — classified at admission (TxnAdmission) — take
// zero locks and touch no lock table: they load the stable read epoch once
// and copy each row's newest version stamped at or below it straight out of
// the versioned slabs. That is the Silo/Hekaton-lineage snapshot recipe the
// paper's related work points at, and it is what lets read-mostly curves
// scale with cores instead of serializing behind writers.
//
// Snapshot reads are bypassed (falling back to locking) for transactions
// that need reconnaissance or touch tables with runtime append regions
// (TPC-C's inserts): appended rows materialize outside the version
// protocol, so only fixed-population tables serve snapshots.
#ifndef ORTHRUS_ENGINE_MVCC_MVCC_ENGINE_H_
#define ORTHRUS_ENGINE_MVCC_MVCC_ENGINE_H_

#include "engine/engine.h"

namespace orthrus::engine {

class MvccEngine final : public Engine {
 public:
  // The lock table takes EngineOptions::lock_buckets and max_lock_heads,
  // as the 2PL and deadlock-free engines do. `epoch_tick_cycles` is the
  // commit-epoch advance interval when no WAL drives the clock; with
  // durability on, the group-commit logger ticks the same clock instead
  // (wal::GroupCommitLog::set_epoch_clock). It only trades snapshot
  // staleness against write-path cost (spinners fold the heartbeat mins
  // directly; see OrthrusOptions::snapshot_epoch_cycles).
  explicit MvccEngine(EngineOptions options,
                      hal::Cycles epoch_tick_cycles = 400000)
      : options_(options), epoch_tick_cycles_(epoch_tick_cycles) {}

  RunResult Run(hal::Platform* platform, storage::Database* db,
                const workload::Workload& workload) override;
  std::string name() const override { return "mvcc-snapshot"; }

 private:
  EngineOptions options_;
  hal::Cycles epoch_tick_cycles_;
};

}  // namespace orthrus::engine

#endif  // ORTHRUS_ENGINE_MVCC_MVCC_ENGINE_H_
