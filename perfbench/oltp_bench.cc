// One arm of the native OLTP benchmark; perfbench/run.py drives it.
//
// An engine arm runs one engine on one workload on hal::NativePlatform with
// pinned threads and wall-clock time. It sets up (builds and loads the
// database), then makes the runs run.py asks for on stdin, one JSON line
// per run on stdout, and at the end checks the committed contents.
//
// Every layer is measured from outside. A proxy Workload hands each worker
// a proxy TxnSource whose transactions carry a proxy TxnLogic. The proxies
// count draws and commits, and record the exact commit latency: from
// Txn::start_cycles to a successful TxnLogic::Run return, the interval the
// engines feed their 25%-bucket histogram. In traced runs they also time
// the TxnSource::Next, TxnLogic::BuildAccessSet and TxnLogic::Run spans.
//
// `--arm layers` instead times direct calls into layer APIs (lock table,
// table lookup, snapshot read, queue-mesh hop) on the workload's own key
// stream.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "engine/deadlockfree/deadlockfree_engine.h"
#include "engine/mvcc/mvcc_engine.h"
#include "engine/orthrus/orthrus_engine.h"
#include "engine/twopl/twopl_engine.h"
#include "hal/native_platform.h"
#include "lock/lock_table.h"
#include "mp/queue_mesh.h"
#include "txn/ollp.h"
#include "workload/micro.h"
#include "workload/tpcc/tpcc_workload.h"

namespace orthrus::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// ORTHRUS runs one CC thread; the other cores execute.
constexpr int kOrthrusCc = 1;
// Longest warm-up run; shorter measured runs shorten it to their length.
constexpr double kWarmupSeconds = 0.25;
// Set-up repeats until this much time is spent, at most kMaxSetups times.
constexpr double kSetupRepeatSeconds = 0.25;
constexpr std::size_t kMaxSetups = 10;

std::uint64_t Nanos(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "oltp_bench: %s\nusage: oltp_bench --workload "
               "hot_rmw|big_mix|tpcc --arm orthrus|twopl|dlfree|mvcc|layers "
               "--seed N [--cores C] [--rep-seconds S] [--smoke 0|1] "
               "[--corrupt 0|1]\n",
               why);
  std::exit(2);
}

struct Args {
  std::string workload;
  std::string arm;
  std::uint64_t seed = 1;
  int cores = 4;
  double rep_seconds = 1.0;
  bool smoke = false;    // reduced data scale for the self-test
  bool corrupt = false;  // damage the database before the check (self-test)
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) Usage("missing value");
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--arm") {
      a.arm = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--cores") {
      a.cores = std::atoi(v);
    } else if (k == "--rep-seconds") {
      a.rep_seconds = std::atof(v);
    } else if (k == "--smoke") {
      a.smoke = std::atoi(v) != 0;
    } else if (k == "--corrupt") {
      a.corrupt = std::atoi(v) != 0;
    } else {
      Usage("unknown flag");
    }
  }
  if (a.workload != "hot_rmw" && a.workload != "big_mix" &&
      a.workload != "tpcc") {
    Usage("unknown workload");
  }
  if (a.arm != "orthrus" && a.arm != "twopl" && a.arm != "dlfree" &&
      a.arm != "mvcc" && a.arm != "layers") {
    Usage("unknown arm");
  }
  if (a.cores < 2 || !(a.rep_seconds > 0)) {
    Usage("need --cores >= 2 and --rep-seconds > 0");
  }
  return a;
}

// ------------------------------------------------------------ workloads

struct BenchWorkload {
  std::unique_ptr<workload::Workload> wl;
  workload::KvWorkload* kv = nullptr;  // exactly one of kv / tpcc is set
  workload::tpcc::TpccWorkload* tpcc = nullptr;
};

// The three workloads; run.py and BENCHMARK.json say why each exists.
BenchWorkload MakeWorkload(const std::string& name, std::uint64_t seed,
                           bool smoke) {
  BenchWorkload b;
  if (name == "tpcc") {
    workload::tpcc::TpccScale s;  // default mix: NewOrder/Payment 50/50
    s.warehouses = 4;
    s.customers_per_district = 150;
    s.items = 2000;
    s.seed = seed;
    auto w = std::make_unique<workload::tpcc::TpccWorkload>(s);
    b.tpcc = w.get();
    b.wl = std::move(w);
    return b;
  }
  workload::KvConfig c;
  c.row_bytes = 100;
  c.ops_per_txn = 10;
  c.seed = seed;
  if (name == "hot_rmw") {
    c.num_records = 200000;
    c.hot_records = 8;
    c.hot_ops = 2;
  } else {
    c.num_records = smoke ? 100000 : 4000000;
    c.pct_read_only = 50;
  }
  auto w = std::make_unique<workload::KvWorkload>(c);
  b.kv = w.get();
  b.wl = std::move(w);
  return b;
}

// -------------------------------------------------------------- proxies

struct WorkerRec;

// Forwards every TxnLogic call to the workload's logic unchanged; Run also
// records the commit and its latency, and in traced runs both spans.
class LogicProxy final : public txn::TxnLogic {
 public:
  void Bind(txn::TxnLogic* inner, WorkerRec* rec, double ns_per_cycle) {
    inner_ = inner;
    rec_ = rec;
    ns_per_cycle_ = ns_per_cycle;
  }
  txn::TxnLogic* inner() const { return inner_; }

  void BuildAccessSet(txn::Txn* t, storage::Database* db) override;
  bool NeedsReconnaissance() const override {
    return inner_->NeedsReconnaissance();
  }
  bool Run(txn::Txn* t, const txn::ExecContext& ctx) override;
  hal::Cycles OpCost(const txn::Txn* t, std::size_t i,
                     storage::Database* db) const override {
    return inner_->OpCost(t, i, db);
  }

 private:
  txn::TxnLogic* inner_ = nullptr;
  WorkerRec* rec_ = nullptr;
  double ns_per_cycle_ = 0;
};

// Measurement state of one worker's stream. Allocated at setup; written
// only by the thread that runs the stream, read after the platform joins.
struct WorkerRec {
  static constexpr int kMaxLogics = 8;

  bool traced = false;
  bool active = false;  // a source was made for this worker in this run
  std::uint64_t drawn = 0;
  std::uint64_t commits = 0;
  std::uint64_t rmw_commits = 0;
  std::uint64_t next_ns = 0;
  std::uint64_t plan_ns = 0;
  std::uint64_t plans = 0;
  std::uint64_t run_ns = 0;
  std::uint64_t runs = 0;
  std::vector<std::uint32_t> lat_ns;  // exact commit latencies

  LogicProxy logics[kMaxLogics];
  int n_logics = 0;
  double ns_per_cycle = 0;

  // The proxy standing in for `inner`. Bound on first sight; the workloads
  // have at most two transaction types, so this never allocates.
  txn::TxnLogic* ProxyFor(txn::TxnLogic* inner) {
    for (int i = 0; i < n_logics; ++i) {
      if (logics[i].inner() == inner) return &logics[i];
    }
    ORTHRUS_CHECK_MSG(n_logics < kMaxLogics, "too many transaction types");
    logics[n_logics].Bind(inner, this, ns_per_cycle);
    return &logics[n_logics++];
  }

  void ResetCounters() {
    active = false;
    drawn = commits = rmw_commits = 0;
    next_ns = plan_ns = plans = run_ns = runs = 0;
    lat_ns.clear();
  }
};

void LogicProxy::BuildAccessSet(txn::Txn* t, storage::Database* db) {
  if (!rec_->traced) {
    inner_->BuildAccessSet(t, db);
    return;
  }
  const Clock::time_point t0 = Clock::now();
  inner_->BuildAccessSet(t, db);
  rec_->plan_ns += Nanos(t0, Clock::now());
  rec_->plans++;
}

bool LogicProxy::Run(txn::Txn* t, const txn::ExecContext& ctx) {
  const Clock::time_point t0 =
      rec_->traced ? Clock::now() : Clock::time_point();
  const bool ok = inner_->Run(t, ctx);
  const hal::Cycles end = hal::Now();
  if (rec_->traced) {
    rec_->run_ns += Nanos(t0, Clock::now());
    rec_->runs++;
  }
  if (ok) {
    rec_->commits++;
    for (const txn::Access& a : t->accesses) {
      if (a.mode == txn::LockMode::kExclusive) {
        rec_->rmw_commits++;
        break;
      }
    }
    const double ns =
        static_cast<double>(end - t->start_cycles) * ns_per_cycle_;
    rec_->lat_ns.push_back(static_cast<std::uint32_t>(
        std::min(ns, static_cast<double>(UINT32_MAX))));
  }
  return ok;
}

class SourceProxy final : public workload::TxnSource {
 public:
  SourceProxy(std::unique_ptr<workload::TxnSource> inner, WorkerRec* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  void Next(txn::Txn* t) override {
    const Clock::time_point t0 =
        rec_->traced ? Clock::now() : Clock::time_point();
    inner_->Next(t);
    t->logic = rec_->ProxyFor(t->logic);
    rec_->drawn++;
    if (rec_->traced) rec_->next_ns += Nanos(t0, Clock::now());
  }

 private:
  std::unique_ptr<workload::TxnSource> inner_;
  WorkerRec* rec_;
};

class WorkloadProxy final : public workload::Workload {
 public:
  WorkloadProxy(const workload::Workload* inner, std::vector<WorkerRec>* recs)
      : inner_(inner), recs_(recs) {}

  void Load(storage::Database*, int) override {
    ORTHRUS_CHECK_MSG(false, "load the wrapped workload directly");
  }
  std::unique_ptr<workload::TxnSource> MakeSource(
      int worker_id) const override {
    WorkerRec& rec = recs_->at(static_cast<std::size_t>(worker_id));
    rec.active = true;
    return std::make_unique<SourceProxy>(inner_->MakeSource(worker_id),
                                         &rec);
  }
  std::string name() const override { return inner_->name(); }

 private:
  const workload::Workload* inner_;
  std::vector<WorkerRec>* recs_;
};

// ---------------------------------------------------------------- runs

std::unique_ptr<engine::Engine> MakeEngine(const std::string& arm, int cores,
                                           double seconds) {
  engine::EngineOptions o;
  o.num_cores = cores;
  o.duration_seconds = seconds;
  if (arm == "orthrus") {
    engine::OrthrusOptions oo;
    oo.num_cc = kOrthrusCc;
    return std::make_unique<engine::OrthrusEngine>(o, oo);
  }
  if (arm == "twopl") {
    return std::make_unique<engine::TwoPlEngine>(
        o, engine::DeadlockPolicyKind::kWaitDie);
  }
  if (arm == "dlfree") return std::make_unique<engine::DeadlockFreeEngine>(o);
  return std::make_unique<engine::MvccEngine>(o);
}

// Everything one engine run reports, from the engine's RunResult and from
// the proxies.
struct RepResult {
  double elapsed_s = 0;
  int workers = 0;
  int cc_workers = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t ollp_aborts = 0;
  std::uint64_t lock_waits = 0;
  std::uint64_t messages = 0;
  std::uint64_t send_stall_cycles = 0;
  std::uint64_t cycles[3] = {0, 0, 0};  // TimeCategory totals
  std::uint64_t cc_wait_cycles = 0;
  std::uint64_t exec_wait_cycles = 0;
  int src_workers = 0;
  std::uint64_t drawn = 0;
  std::uint64_t proxy_commits = 0;
  std::uint64_t rmw_commits = 0;
  std::uint64_t next_ns = 0;
  std::uint64_t plan_ns = 0;
  std::uint64_t plans = 0;
  std::uint64_t run_ns = 0;
  std::uint64_t runs = 0;
  // Exact commit-latency percentiles of this run (nearest rank).
  std::uint64_t lat_n = 0;
  double lat_p50_us = 0;
  double lat_p95_us = 0;
  double lat_p99_us = 0;
  std::uint64_t lat_beyond_p95 = 0;  // samples above the p95 sample
};

// `latencies` is the caller's buffer, reserved at setup.
void SetPercentiles(std::vector<std::uint32_t>* latencies, RepResult* r) {
  std::sort(latencies->begin(), latencies->end());
  const std::size_t n = latencies->size();
  if (n == 0) return;
  const auto rank = [n](double q) {
    const std::size_t k = static_cast<std::size_t>(std::ceil(q * n));
    return k == 0 ? std::size_t{0} : k - 1;
  };
  r->lat_n = n;
  r->lat_p50_us = (*latencies)[rank(0.50)] / 1e3;
  r->lat_p95_us = (*latencies)[rank(0.95)] / 1e3;
  r->lat_p99_us = (*latencies)[rank(0.99)] / 1e3;
  r->lat_beyond_p95 = n - 1 - rank(0.95);
}

RepResult RunOnce(const Args& args, double seconds, storage::Database* db,
                  const workload::Workload& wl, std::vector<WorkerRec>* recs,
                  bool traced, std::vector<std::uint32_t>* latencies) {
  for (WorkerRec& r : *recs) {
    r.ResetCounters();
    r.traced = traced;
  }
  WorkloadProxy proxy(&wl, recs);
  std::unique_ptr<engine::Engine> eng =
      MakeEngine(args.arm, args.cores, seconds);
  hal::NativePlatform platform(args.cores);
  platform.SetPinThreads(true);
  const RunResult r = eng->Run(&platform, db, proxy);

  RepResult out;
  out.elapsed_s = r.elapsed_seconds;
  out.workers = static_cast<int>(r.per_worker.size());
  out.cc_workers = args.arm == "orthrus" ? kOrthrusCc : 0;
  out.committed = r.total.committed;
  out.aborted = r.total.aborted;
  out.ollp_aborts = r.total.ollp_aborts;
  out.lock_waits = r.total.lock_waits;
  out.messages = r.total.messages_sent;
  out.send_stall_cycles = r.total.send_stall_cycles;
  for (int c = 0; c < 3; ++c) out.cycles[c] = r.total.cycles[c];
  for (int w = 0; w < out.workers; ++w) {
    const std::uint64_t wait =
        r.per_worker[static_cast<std::size_t>(w)].Get(TimeCategory::kWaiting);
    (w < out.cc_workers ? out.cc_wait_cycles : out.exec_wait_cycles) += wait;
  }
  for (WorkerRec& rec : *recs) {
    if (rec.active) out.src_workers++;
    out.drawn += rec.drawn;
    out.proxy_commits += rec.commits;
    out.rmw_commits += rec.rmw_commits;
    out.next_ns += rec.next_ns;
    out.plan_ns += rec.plan_ns;
    out.plans += rec.plans;
    out.run_ns += rec.run_ns;
    out.runs += rec.runs;
    latencies->insert(latencies->end(), rec.lat_ns.begin(),
                      rec.lat_ns.end());
  }
  SetPercentiles(latencies, &out);
  latencies->clear();
  return out;
}

// --------------------------------------------------------------- checks

struct Totals {
  std::uint64_t drawn = 0;
  std::uint64_t committed = 0;
  std::uint64_t proxy_commits = 0;
  std::uint64_t rmw_commits = 0;
  void Add(const RepResult& r) {
    drawn += r.drawn;
    committed += r.committed;
    proxy_commits += r.proxy_commits;
    rmw_commits += r.rmw_commits;
  }
};

// Checks the database against what the runs committed. Returns "" when
// every check holds, else a description of the first one that failed.
std::string CheckContents(const BenchWorkload& b, const storage::Database& db,
                          const Totals& t) {
  char buf[256];
  if (t.proxy_commits != t.committed) {
    std::snprintf(buf, sizeof(buf),
                  "engine counted %llu commits, logic saw %llu",
                  static_cast<unsigned long long>(t.committed),
                  static_cast<unsigned long long>(t.proxy_commits));
    return buf;
  }
  if (b.kv != nullptr) {
    const std::uint64_t want =
        t.rmw_commits *
        static_cast<std::uint64_t>(b.kv->config().ops_per_txn);
    const std::uint64_t got = b.kv->SumCounters(db);
    if (got != want) {
      std::snprintf(buf, sizeof(buf),
                    "row counters sum to %llu, %llu RMW commits need %llu",
                    static_cast<unsigned long long>(got),
                    static_cast<unsigned long long>(t.rmw_commits),
                    static_cast<unsigned long long>(want));
      return buf;
    }
    return "";
  }
  const workload::tpcc::TpccTallies::Tally tally =
      b.tpcc->aux()->tallies.Sum();
  struct {
    const char* what;
    std::uint64_t got, want;
  } const checks[] = {
      {"warehouse ytd", b.tpcc->TotalWarehouseYtd(db), tally.payment_cents},
      {"orders placed", b.tpcc->TotalOrdersPlaced(db), tally.neworders},
      {"stock ytd", b.tpcc->TotalStockYtd(db), tally.ordered_qty},
      {"tallied commits", tally.neworders + tally.payments, t.proxy_commits},
  };
  for (const auto& c : checks) {
    if (c.got != c.want) {
      std::snprintf(buf, sizeof(buf), "%s: database %llu, tallies %llu",
                    c.what, static_cast<unsigned long long>(c.got),
                    static_cast<unsigned long long>(c.want));
      return buf;
    }
  }
  return "";
}

// Self-test hook: one unit of damage the content check must catch.
void Corrupt(const BenchWorkload& b, storage::Database* db) {
  if (b.kv != nullptr) {
    storage::Table* t = db->GetTable(workload::KvWorkload::kTableId);
    static_cast<std::uint64_t*>(t->LookupRaw(0))[0]++;
  } else {
    b.tpcc->aux()->tallies.per_core[0].payment_cents++;
  }
}

// ----------------------------------------------------------------- json

class Json {
 public:
  Json& Key(const char* k) {
    Sep();
    s_ += '"';
    s_ += k;
    s_ += "\":";
    fresh_ = true;
    return *this;
  }
  Json& Num(double v) {
    Sep();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    s_ += buf;
    return *this;
  }
  Json& U64(std::uint64_t v) {
    Sep();
    s_ += std::to_string(v);
    return *this;
  }
  Json& Str(const std::string& v) {
    Sep();
    s_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') s_ += '\\';
      s_ += c;
    }
    s_ += '"';
    return *this;
  }
  Json& Bool(bool v) {
    Sep();
    s_ += v ? "true" : "false";
    return *this;
  }
  Json& Open(char c) {
    Sep();
    s_ += c;
    fresh_ = true;
    return *this;
  }
  Json& Close(char c) {
    s_ += c;
    fresh_ = false;
    return *this;
  }
  const std::string& str() const { return s_; }

 private:
  void Sep() {
    if (!fresh_ && !s_.empty()) s_ += ',';
    fresh_ = false;
  }
  std::string s_;
  bool fresh_ = true;
};

void EmitRep(Json* j, const RepResult& r) {
  j->Open('{')
      .Key("elapsed_s").Num(r.elapsed_s)
      .Key("workers").U64(static_cast<std::uint64_t>(r.workers))
      .Key("cc_workers").U64(static_cast<std::uint64_t>(r.cc_workers))
      .Key("src_workers").U64(static_cast<std::uint64_t>(r.src_workers))
      .Key("committed").U64(r.committed)
      .Key("aborted").U64(r.aborted)
      .Key("ollp_aborts").U64(r.ollp_aborts)
      .Key("lock_waits").U64(r.lock_waits)
      .Key("messages").U64(r.messages)
      .Key("send_stall_cycles").U64(r.send_stall_cycles)
      .Key("exec_cycles").U64(r.cycles[0])
      .Key("lock_cycles").U64(r.cycles[1])
      .Key("wait_cycles").U64(r.cycles[2])
      .Key("cc_wait_cycles").U64(r.cc_wait_cycles)
      .Key("exec_wait_cycles").U64(r.exec_wait_cycles)
      .Key("drawn").U64(r.drawn)
      .Key("proxy_commits").U64(r.proxy_commits)
      .Key("next_ns").U64(r.next_ns)
      .Key("plan_ns").U64(r.plan_ns)
      .Key("plans").U64(r.plans)
      .Key("run_ns").U64(r.run_ns)
      .Key("runs").U64(r.runs)
      .Key("lat_n").U64(r.lat_n)
      .Key("lat_p50_us").Num(r.lat_p50_us)
      .Key("lat_p95_us").Num(r.lat_p95_us)
      .Key("lat_p99_us").Num(r.lat_p99_us)
      .Key("lat_beyond_p95").U64(r.lat_beyond_p95)
      .Close('}');
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// -------------------------------------------------------------- engine arm

// Serves one arm. After set-up it prints a `ready` line, then answers one
// command per stdin line with one JSON line on stdout:
//   warmup   one untraced run, reported but not measured
//   run 0|1  one untraced / traced run
//   finish   check the contents, report memory, exit
// run.py interleaves the arms' runs in rounds, so each arm's median spans
// the whole measuring window rather than one slice of it.
int RunArm(const Args& args) {
  // Set-up is short next to its noise on the small workloads, so it is
  // repeated (up to kMaxSetups times, until kSetupRepeatSeconds is spent)
  // and every time is reported. Each copy is freed before the next is
  // built, so the memory high-water mark stays that of one database; the
  // last one runs.
  BenchWorkload b;
  std::unique_ptr<storage::Database> db;
  std::vector<double> setup_s;
  double setup_total = 0;
  while (setup_s.empty() ||
         (setup_total < kSetupRepeatSeconds && setup_s.size() < kMaxSetups)) {
    db.reset();
    b = BenchWorkload();
    const Clock::time_point s0 = Clock::now();
    b = MakeWorkload(args.workload, args.seed, args.smoke);
    db = std::make_unique<storage::Database>();
    b.wl->Load(db.get(), 1);
    if (args.arm == "orthrus") db->partitioner().n = kOrthrusCc;
    setup_s.push_back(Nanos(s0, Clock::now()) / 1e9);
    setup_total += setup_s.back();
  }

  // Latency buffers are sized and faulted in here (resize, then clear,
  // which keeps the capacity), so the measured runs neither allocate nor
  // take page faults on them.
  const double ns_per_cycle =
      1e9 / hal::NativePlatform(1).CyclesPerSecond();
  const std::size_t per_worker_reserve =
      static_cast<std::size_t>(args.rep_seconds * 2e6) + 1024;
  std::vector<WorkerRec> recs(static_cast<std::size_t>(args.cores));
  for (WorkerRec& r : recs) {
    r.ns_per_cycle = ns_per_cycle;
    r.lat_ns.resize(per_worker_reserve);
    r.lat_ns.clear();
  }
  std::vector<std::uint32_t> latencies(per_worker_reserve * recs.size());
  latencies.clear();

  const auto reply = [](const Json& j) {
    std::printf("%s\n", j.str().c_str());
    std::fflush(stdout);
  };
  {
    Json j;
    j.Open('{').Key("ready").Bool(true).Key("setup_s").Open('[');
    for (double s : setup_s) j.Num(s);
    j.Close(']')
        .Key("cycles_per_second").Num(1e9 / ns_per_cycle)
        .Close('}');
    reply(j);
  }

  Totals totals;
  char line[64];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    const std::string cmd(line, std::strcspn(line, "\r\n"));
    Json j;
    if (cmd == "warmup" || cmd == "run 0" || cmd == "run 1") {
      // The first run in a process reads 10-40% low (page faults, cold
      // caches): run.py asks for one warm-up run and discards it.
      const RepResult r = RunOnce(
          args,
          cmd == "warmup" ? std::min(kWarmupSeconds, args.rep_seconds)
                          : args.rep_seconds,
          db.get(), *b.wl, &recs, cmd == "run 1", &latencies);
      totals.Add(r);
      EmitRep(&j, r);
    } else if (cmd == "finish") {
      if (args.corrupt) Corrupt(b, db.get());
      const std::string failure = CheckContents(b, *db, totals);
      j.Open('{')
          .Key("peak_rss_mb").Num(PeakRssMb())
          .Key("drawn").U64(totals.drawn)
          .Key("committed").U64(totals.committed)
          .Key("check_ok").Bool(failure.empty())
          .Key("check").Str(failure.empty() ? "ok" : failure)
          .Close('}');
      reply(j);
      return 0;
    } else {
      std::fprintf(stderr, "oltp_bench: unknown command '%s'\n", cmd.c_str());
      return 2;
    }
    reply(j);
  }
  std::fprintf(stderr, "oltp_bench: stdin closed before finish\n");
  return 2;
}

// ------------------------------------------------------------ layers arm

// Median over `passes` of the mean ns per unit of one pass of `body`,
// which returns how many units it did.
template <typename Body>
double MedianPassNs(int passes, Body&& body) {
  std::vector<double> per_unit;
  for (int p = 0; p < passes; ++p) {
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t units = body();
    per_unit.push_back(static_cast<double>(Nanos(t0, Clock::now())) /
                       static_cast<double>(std::max<std::uint64_t>(units, 1)));
  }
  std::sort(per_unit.begin(), per_unit.end());
  return per_unit[per_unit.size() / 2];
}

int RunLayers(const Args& args) {
  BenchWorkload b = MakeWorkload(args.workload, args.seed, args.smoke);
  storage::Database db;
  b.wl->Load(&db, 1);
  const int n_sets = args.smoke ? 500 : 20000;
  const int passes = 5;

  // Worker 0's stream, planned exactly as admission plans it.
  std::vector<std::vector<txn::Access>> sets;
  {
    std::unique_ptr<workload::TxnSource> src = b.wl->MakeSource(0);
    txn::Txn t;
    for (int i = 0; i < n_sets; ++i) {
      src->Next(&t);
      txn::OllpPlan(&t, &db);
      sets.push_back(t.accesses);
    }
  }

  double lock_ns = 0, lookup_ns = 0, snapshot_ns = 0, hop_ns = 0;
  std::uint64_t sink = 0;
  {
    hal::NativePlatform p(1);
    p.SetPinThreads(true);
    p.Spawn(0, [&] {
      lock::LockTable::Config cfg;  // the shared-everything engines' sizing
      cfg.max_workers = 1;
      lock::LockTable lt(cfg);
      WorkerStats st;
      lock::WorkerLockCtx* ctx = lt.RegisterWorker(0, &st);
      std::uint64_t ts = 0;
      lock_ns = MedianPassNs(passes, [&] {
        for (const auto& set : sets) {
          ctx->txn_timestamp = ++ts;
          for (const txn::Access& a : set) {
            ORTHRUS_CHECK(lt.Acquire(ctx, a.table, a.key, a.mode, nullptr) ==
                          lock::LockTable::AcquireResult::kGranted);
          }
          lt.ReleaseAll(ctx);
        }
        return static_cast<std::uint64_t>(sets.size());
      });

      lookup_ns = MedianPassNs(passes, [&] {
        std::uint64_t n = 0;
        for (const auto& set : sets) {
          for (const txn::Access& a : set) {
            sink ^= reinterpret_cast<std::uintptr_t>(
                db.GetTable(a.table)->Lookup(a.key, 0));
            n++;
          }
        }
        return n;
      });

      db.EnableSnapshotVersions(1, 400000);
      struct Slot {
        storage::Table* table;
        std::uint64_t slot;
      };
      std::vector<Slot> slots;
      std::uint32_t stride = 8;
      for (const auto& set : sets) {
        for (const txn::Access& a : set) {
          storage::Table* t = db.GetTable(a.table);
          slots.push_back({t, t->SlotOfRow(t->LookupRaw(a.key, 0))});
          stride = std::max(stride, t->row_stride());
        }
      }
      std::vector<std::uint8_t> dst(stride);
      const std::uint64_t epoch = db.epoch_clock()->ReadEpoch();
      snapshot_ns = MedianPassNs(passes, [&] {
        for (const Slot& s : slots) {
          ORTHRUS_CHECK(s.table->SnapshotRead(s.slot, epoch, dst.data()));
          sink ^= dst[0];
        }
        return static_cast<std::uint64_t>(slots.size());
      });
    });
    p.Run();
  }
  {
    // Ping-pong between two pinned cores; a hop is half a round trip.
    mp::QueueMesh<std::uint64_t> mesh(2, 2, 64);
    const int rounds = args.smoke ? 500 : 20000;
    hal::NativePlatform p(2);
    p.SetPinThreads(true);
    p.Spawn(0, [&] {
      hop_ns = MedianPassNs(passes, [&] {
        for (int i = 0; i < rounds; ++i) {
          const std::uint64_t key = sets[i % sets.size()][0].key;
          mesh.Send(0, 1, key);
          bool echoed = false;
          while (!echoed) {
            mesh.Drain(0, [&](std::uint64_t v) {
              ORTHRUS_CHECK(v == key);
              echoed = true;
            });
          }
        }
        return static_cast<std::uint64_t>(2 * rounds);
      });
      mesh.Send(0, 1, ~0ull);  // stop
    });
    p.Spawn(1, [&] {
      bool stop = false;
      while (!stop) {
        mesh.Drain(1, [&](std::uint64_t v) {
          if (v == ~0ull) {
            stop = true;
          } else {
            mesh.Send(1, 0, v);
          }
        });
      }
    });
    p.Run();
  }

  Json j;
  j.Open('{')
      .Key("arm").Str("layers")
      .Key("workload").Str(args.workload)
      .Key("sink").U64(sink & 1)  // keeps the timed reads observable
      .Key("lock_acq_rel_ns").Num(lock_ns)
      .Key("storage_lookup_ns").Num(lookup_ns)
      .Key("storage_snapshot_read_ns").Num(snapshot_ns)
      .Key("mp_hop_ns").Num(hop_ns)
      .Close('}');
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace
}  // namespace orthrus::perfbench

int main(int argc, char** argv) {
  const orthrus::perfbench::Args args =
      orthrus::perfbench::ParseArgs(argc, argv);
  return args.arm == "layers" ? orthrus::perfbench::RunLayers(args)
                              : orthrus::perfbench::RunArm(args);
}
