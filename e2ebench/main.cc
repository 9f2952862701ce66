// Wall-clock end-to-end benchmark of the real runtimes.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Drives a 4-site, fully replicated cluster through the public Cluster API
// with a closed-loop client on one thread, checks every reply against the
// benchmark's own one-copy oracle, and prints one JSON object as its last
// line. run.py builds this program and adds the set-up time. See README.md
// for the workloads, the metrics and why they were chosen.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "core/cluster_api.h"
#include "oracle.h"
#include "target.h"
#include "tracing.h"

namespace e2ebench {
namespace {

using miniraid::ClusterBackend;
using miniraid::ClusterOptions;
using miniraid::Operation;
using miniraid::Site;
using miniraid::TxnResult;
using miniraid::TxnSpec;

constexpr uint32_t kSites = 4;
constexpr uint32_t kWarmupTxns = 500;
/// A client transaction is given up after this many aborted attempts.
constexpr uint32_t kMaxAttempts = 100;
constexpr int64_t kNsPerS = 1000 * 1000 * 1000;
constexpr int kSetupAttempts = 5;

struct WorkloadSpec {
  const char* name;
  ClusterBackend backend;
  uint32_t items;
  uint32_t max_ops;
  bool locking;
  uint32_t window;
  /// The measured phase is fail/recover cycles instead of steady traffic.
  bool cycles;
};

// serial_tcp: the paper's Experiment-1 shape over TCP; the per-message
//   socket path sets its latency, no lock manager runs.
// locking_inproc: 2PL x16 at window 64 on in-process queues; bound by the
//   lock manager, the concurrent 2PC engine and the managing loop.
// recovery_inproc: the paper's demand-driven recovery (copiers, control
//   types 1 and 2, fail-lock set and clear) as repeated cycles.
const WorkloadSpec kWorkloads[] = {
    {"serial_tcp", ClusterBackend::kTcp, 50, 10, false, 1, false},
    {"locking_inproc", ClusterBackend::kInProc, 10000, 3, true, 64, false},
    {"recovery_inproc", ClusterBackend::kInProc, 50, 5, false, 1, true},
};

/// Client transactions the up sites coordinate while a site is down: enough
/// to fail-lock every item the victim holds. With about 500 transactions
/// per cycle the one detection stall per cycle is 0.2% of transactions, so
/// commit_p99_ms measures the copier-laden transactions rather than the
/// failure-detection timeout.
constexpr uint32_t kDownTxns = 384;

ClusterOptions OptionsFor(const WorkloadSpec& w) {
  ClusterOptions o;
  o.backend = w.backend;
  o.n_sites = kSites;
  o.db_size = w.items;
  o.max_inflight = w.window;
  if (w.cycles) {
    // Failure detection waits out one ack_timeout per cycle. Shorter than
    // the 1 s default so that it does not dominate a cycle, but not so
    // short that a scheduling stall reads as a failure: a site falsely
    // declared failed is never re-admitted (see CHANGES.md).
    o.site.ack_timeout = miniraid::Milliseconds(250);
  }
  if (w.locking) {
    o.site.concurrency.mode = miniraid::ConcurrencyMode::kTwoPhaseLocking;
    o.site.concurrency.max_executors = 16;
    o.site.concurrency.deadlock_policy = miniraid::DeadlockPolicy::kWaitDie;
  }
  return o;
}

/// The benchmark's own value function: a write's value is derived from
/// the attempt's id, so a resubmission writes different values.
miniraid::Value ValueFor(TxnId txn, ItemId item) {
  uint64_t z = txn * 0xd1342543de82ef95ULL + item * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 31)) * 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 29;
  return static_cast<miniraid::Value>(z & 0x7fffffffffffffffULL);
}

struct RUsage {
  double cpu_s = 0;
  int64_t nvcsw = 0;
  int64_t maxrss_kib = 0;
};

RUsage ReadRUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  RUsage r;
  r.cpu_s = double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  r.nvcsw = ru.ru_nvcsw;
  r.maxrss_kib = ru.ru_maxrss;
  return r;
}

double Percentile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0;
  const size_t k = std::min(v.size() - 1, size_t(q * double(v.size())));
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return double(v[k]);
}

double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Replies handed from the managing loop to the client thread. Shared with
/// the reply callbacks: a callback may still be inside Push after the
/// client took its item and moved on.
class CompletionQueue {
 public:
  struct Item {
    size_t slot = 0;
    TxnResult result;
    int64_t reply_ns = 0;
  };
  void Push(Item item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
  }
  Item Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !items_.empty(); });
    Item item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> items_;
};

/// What one measured stretch of traffic yields.
struct Sample {
  std::vector<int64_t> latency_ns;
  uint64_t commits = 0;
  bool collect_paths = false;
  std::vector<ClientTxn> paths;
};

struct CycleTotals {
  uint32_t cycles = 0;
  uint64_t drain_txns = 0;
  std::vector<double> recovery_ms;
};

/// The closed-loop client: one thread, up to `window` client transactions
/// in flight, aborted attempts resubmitted with a fresh id.
class Client {
 public:
  Client(Target& target, const WorkloadSpec& w, uint64_t seed)
      : target_(target),
        w_(w),
        rng_(seed * 0x9e3779b97f4a7c15ULL + std::hash<std::string>{}(w.name)),
        oracle_(w.items, w.window == 1),
        up_(target.n_sites(), true) {}

  /// Runs traffic until `more()` (asked before each new client txn) says
  /// stop and every started transaction has finished.
  void Run(uint32_t window, const std::function<bool()>& more,
           Sample* sample) {
    slots_.resize(std::max<size_t>(slots_.size(), window));
    std::vector<size_t> free;
    for (size_t i = 0; i < window; ++i) free.push_back(window - 1 - i);
    size_t in_flight = 0;
    bool stopped = false;
    auto start_new = [&]() {
      if (stopped || free.empty()) return false;
      if (!more()) {
        stopped = true;
        return false;
      }
      const size_t slot = free.back();
      free.pop_back();
      Pending& p = slots_[slot];
      p.ops = NextOps();
      p.attempts = 0;
      p.first_submit_ns = 0;
      ++attempted_;
      ++in_flight;
      SubmitAttempt(slot);
      return true;
    };
    while (start_new()) {
    }
    while (in_flight > 0) {
      CompletionQueue::Item done = queue_->Pop();
      Pending& p = slots_[done.slot];
      const size_t violations = oracle_.violation_count();
      oracle_.Record(p.spec, done.result);
      if (oracle_.violation_count() > violations && notes_.size() < 5) {
        notes_.push_back("txn " + std::to_string(p.spec.id) +
                         " coordinated by site " +
                         std::to_string(p.coordinator) + " " + phase_);
      }
      if (done.result.committed()) {
        ++commits_;
        if (sample != nullptr) {
          ++sample->commits;
          sample->latency_ns.push_back(done.reply_ns - p.first_submit_ns);
          if (sample->collect_paths && p.attempts == 1) {
            sample->paths.push_back(
                ClientTxn{p.spec.id, p.first_submit_ns, done.reply_ns});
          }
        }
      } else if (p.attempts < kMaxAttempts) {
        ++aborted_attempts_;
        SubmitAttempt(done.slot);
        continue;
      } else {
        ++failed_;
        std::fprintf(stderr, "txn %llu never committed (last outcome %s)\n",
                     (unsigned long long)p.spec.id,
                     std::string(miniraid::TxnOutcomeName(done.result.outcome))
                         .c_str());
      }
      free.push_back(done.slot);
      --in_flight;
      while (start_new()) {
      }
    }
  }

  /// One fail/recover cycle at window 1; returns false on a failed check.
  bool Cycle(SiteId victim, CycleTotals& totals, Sample* sample,
             int64_t* paused_ns, std::vector<std::string>& errors) {
    const std::string cycle = "in cycle " + std::to_string(totals.cycles) +
                              " (site " + std::to_string(victim) + " ";
    target_.Fail(victim);
    up_[victim] = false;
    phase_ = cycle + "down)";
    uint32_t issued = 0;
    Run(1, [&] { return issued++ < kDownTxns; }, sample);
    target_.Recover(victim);
    up_[victim] = true;
    const int64_t recovered_at = NowNs();
    phase_ = cycle + "recovering)";
    int64_t drained_at = 0;
    uint64_t drain = 0;
    Run(
        1,
        [&] {
          if (OwnFailLocks(victim) == 0) {
            drained_at = NowNs();
            return false;
          }
          ++drain;
          return true;
        },
        sample);
    ++totals.cycles;
    totals.drain_txns += drain;
    totals.recovery_ms.push_back(double(drained_at - recovered_at) / 1e6);

    const int64_t check_start = NowNs();
    const std::string busy = Quiesce();
    bool ok = busy.empty();
    if (!ok) {
      errors.push_back("cluster did not quiesce after recovering site " +
                       std::to_string(victim) + " (" + busy + ")");
    }
    for (const auto& v : target_.CheckInvariants()) {
      errors.push_back("invariant: " + v.ToString());
      ok = false;
    }
    *paused_ns += NowNs() - check_start;
    phase_ = "after cycle " + std::to_string(totals.cycles - 1);
    return ok;
  }

  /// Waits until every site is up and idle and no table holds a
  /// fail-lock. Returns "" once quiet, else what was still busy.
  std::string Quiesce() {
    const int64_t deadline = NowNs() + 10 * kNsPerS;
    std::string busy;
    while (NowNs() < deadline) {
      busy.clear();
      for (SiteId s = 0; s < target_.n_sites() && busy.empty(); ++s) {
        target_.Inspect(s, [&](Site& site) {
          if (site.is_up() && site.IsIdle() && site.fail_locks().TotalSet() == 0) {
            return;
          }
          const miniraid::SiteCounters& c = site.counters();
          busy = "site " + std::to_string(s) + ": up " +
                 std::to_string(site.is_up()) + ", idle " +
                 std::to_string(site.IsIdle()) + ", fail-locks " +
                 std::to_string(site.fail_locks().TotalSet()) +
                 ", coordinations " + std::to_string(site.ActiveCoordinations()) +
                 ", queued " + std::to_string(site.QueuedRequests()) +
                 ", failures announced " + std::to_string(c.control2_initiated) +
                 ", participant-failed aborts " +
                 std::to_string(c.txns_aborted_participant);
        });
      }
      if (busy.empty()) return busy;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return busy;
  }

  OneCopyOracle& oracle() { return oracle_; }
  /// Where the first read violations happened.
  const std::vector<std::string>& notes() const { return notes_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t commits() const { return commits_; }
  uint64_t attempts() const { return commits_ + aborted_attempts_ + failed_; }
  double submit_us() const {
    return submit_calls_ == 0 ? 0 : double(submit_ns_) / double(submit_calls_) / 1e3;
  }

 private:
  struct Pending {
    std::vector<Operation> ops;
    TxnSpec spec;
    SiteId coordinator = 0;
    uint32_t attempts = 0;
    int64_t first_submit_ns = 0;
  };

  std::vector<Operation> NextOps() {
    std::uniform_int_distribution<uint32_t> n_ops(1, w_.max_ops);
    std::uniform_int_distribution<uint32_t> item(0, w_.items - 1);
    std::bernoulli_distribution write(0.5);
    std::vector<Operation> ops(n_ops(rng_));
    for (Operation& op : ops) {
      op.kind = write(rng_) ? Operation::Kind::kWrite : Operation::Kind::kRead;
      op.item = item(rng_);
    }
    return ops;
  }

  SiteId NextCoordinator() {
    for (;;) {
      const SiteId c = SiteId(rr_++ % up_.size());
      if (up_[c]) return c;
    }
  }

  void SubmitAttempt(size_t slot) {
    Pending& p = slots_[slot];
    p.spec = TxnSpec{};
    p.spec.id = next_id_++;
    p.spec.ops = p.ops;
    for (Operation& op : p.spec.ops) {
      if (op.is_write()) op.value = ValueFor(p.spec.id, op.item);
    }
    ++p.attempts;
    const int64_t start = NowNs();
    if (p.first_submit_ns == 0) p.first_submit_ns = start;
    std::shared_ptr<CompletionQueue> queue = queue_;
    p.coordinator = NextCoordinator();
    target_.Submit(p.spec, p.coordinator, start,
                   [queue, slot](const TxnResult& result) {
                     queue->Push(CompletionQueue::Item{slot, result, NowNs()});
                   });
    submit_ns_ += NowNs() - start;
    ++submit_calls_;
  }

  uint32_t OwnFailLocks(SiteId site) {
    uint32_t n = 0;
    target_.Inspect(site, [&n](Site& s) { n = s.OwnFailLockCount(); });
    return n;
  }

  Target& target_;
  const WorkloadSpec& w_;
  std::mt19937_64 rng_;
  OneCopyOracle oracle_;
  std::vector<bool> up_;
  std::vector<Pending> slots_;
  std::shared_ptr<CompletionQueue> queue_ = std::make_shared<CompletionQueue>();
  std::string phase_ = "outside any cycle";
  std::vector<std::string> notes_;
  TxnId next_id_ = 1;
  uint64_t rr_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t commits_ = 0;
  uint64_t aborted_attempts_ = 0;
  int64_t submit_ns_ = 0;
  uint64_t submit_calls_ = 0;
};

/// Timed runs go through the public Cluster API.
class ClusterTarget : public Target {
 public:
  explicit ClusterTarget(std::unique_ptr<miniraid::Cluster> cluster)
      : cluster_(std::move(cluster)),
        real_(dynamic_cast<miniraid::RealCluster*>(cluster_.get())) {}

  void Submit(const TxnSpec& txn, SiteId coordinator, int64_t,
              Callback callback) override {
    cluster_->SubmitTxn(txn, coordinator, std::move(callback));
  }
  void Fail(SiteId site) override { cluster_->Fail(site); }
  void Recover(SiteId site) override { cluster_->Recover(site); }
  void Inspect(SiteId site, const std::function<void(Site&)>& fn) override {
    real_->Inspect(site, fn);
  }
  std::vector<miniraid::SiteSnapshot> Snapshots() override {
    return cluster_->SnapshotSites();
  }
  std::vector<miniraid::InvariantViolation> CheckInvariants() override {
    return cluster_->CheckInvariants();
  }
  uint64_t MessagesSent() override { return cluster_->Stats().messages_sent; }
  uint32_t n_sites() const override { return cluster_->n_sites(); }

 private:
  std::unique_ptr<miniraid::Cluster> cluster_;
  miniraid::RealCluster* real_;
};

/// Sum of every site's counters (timers merged).
miniraid::SiteCounters SumCounters(Target& target) {
  miniraid::SiteCounters sum;
  for (SiteId s = 0; s < target.n_sites(); ++s) {
    target.Inspect(s, [&sum](Site& site) {
      const miniraid::SiteCounters& c = site.counters();
      sum.txns_committed += c.txns_committed;
      sum.lock_waits += c.lock_waits;
      sum.copier_transactions += c.copier_transactions;
      sum.batch_copier_transactions += c.batch_copier_transactions;
      sum.fail_locks_set += c.fail_locks_set;
      sum.fail_locks_cleared += c.fail_locks_cleared;
      sum.coord_txn_time.MergeFrom(c.coord_txn_time);
      sum.participant_time.MergeFrom(c.participant_time);
      sum.phase_copier_time.MergeFrom(c.phase_copier_time);
      sum.phase_prepare_time.MergeFrom(c.phase_prepare_time);
      sum.phase_commit_time.MergeFrom(c.phase_commit_time);
      sum.copy_serve_time.MergeFrom(c.copy_serve_time);
      sum.clear_locks_time.MergeFrom(c.clear_locks_time);
      sum.recovery_time.MergeFrom(c.recovery_time);
      sum.type1_serve_time.MergeFrom(c.type1_serve_time);
    });
  }
  return sum;
}

double MedianMs(const miniraid::DurationStats& stats) {
  return stats.empty() ? 0 : miniraid::ToMillis(stats.Percentile(0.5));
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// Everything one cluster's run produced.
struct RunResult {
  bool correct = true;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Measured phase.
  double seconds = 0;
  double cpu_s = 0;
  int64_t nvcsw = 0;
  uint64_t messages = 0;
  Sample sample;
  // Whole run.
  CycleTotals cycles;
  miniraid::SiteCounters counters;
  uint64_t commits = 0;
  uint64_t attempts = 0;
  double submit_us = 0;

  double committed_per_s() const {
    return seconds > 0 ? double(sample.commits) / seconds : 0;
  }
};

/// Warm-up, the measured phase, the recovery cycles and every check.
RunResult Drive(Target& target, const WorkloadSpec& w, uint64_t seed,
                double seconds, bool collect_paths) {
  RunResult r;
  Client client(target, w, seed);
  uint32_t warm = 0;
  client.Run(w.window, [&] { return warm++ < kWarmupTxns; }, nullptr);

  r.sample.collect_paths = collect_paths;

  const uint64_t msgs_before = target.MessagesSent();
  const RUsage ru_before = ReadRUsage();
  const int64_t start = NowNs();
  const int64_t deadline = start + int64_t(seconds * 1e9);
  int64_t paused = 0;
  if (w.cycles) {
    for (SiteId victim = 0; r.correct && NowNs() < deadline;
         victim = (victim + 1) % kSites) {
      r.correct = client.Cycle(victim, r.cycles, &r.sample, &paused, r.errors);
    }
  } else {
    client.Run(w.window, [&] { return NowNs() < deadline; }, &r.sample);
  }
  const int64_t end = NowNs();
  const RUsage ru_after = ReadRUsage();
  r.messages = target.MessagesSent() - msgs_before;
  r.seconds = double(end - start - paused) / 1e9;
  r.cpu_s = ru_after.cpu_s - ru_before.cpu_s;
  r.nvcsw = ru_after.nvcsw - ru_before.nvcsw;

  // Checks at quiescence.
  if (const std::string busy = client.Quiesce(); !busy.empty()) {
    r.correct = false;
    r.errors.push_back("cluster did not quiesce at the end of the run (" +
                       busy + ")");
  }
  for (const std::string& v : client.oracle().ReadViolations()) {
    r.errors.push_back("read: " + v);
    r.correct = false;
  }
  for (const std::string& note : client.notes()) {
    r.errors.push_back("read violation at " + note);
  }
  for (const std::string& v :
       client.oracle().CheckFinalState(target.Snapshots())) {
    r.errors.push_back("final state: " + v);
    r.correct = false;
  }
  r.counters = SumCounters(target);
  if (r.counters.txns_committed != client.commits()) {
    r.correct = false;
    r.errors.push_back("client counted " + std::to_string(client.commits()) +
                       " commits, sites " +
                       std::to_string(r.counters.txns_committed));
  }
  if (r.sample.commits == 0) {
    r.correct = false;
    r.errors.push_back("nothing committed in the measured phase");
  }
  r.attempted = client.attempted();
  r.failed = client.failed();
  r.commits = client.commits();
  r.attempts = client.attempts();
  r.submit_us = client.submit_us();
  std::fprintf(stderr,
               "%s: %llu client txns, %llu attempts, %llu commits, %llu "
               "never committed, %llu reads checked, %u cycles\n",
               w.name, (unsigned long long)r.attempted,
               (unsigned long long)r.attempts, (unsigned long long)r.commits,
               (unsigned long long)r.failed,
               (unsigned long long)client.oracle().reads_checked(),
               r.cycles.cycles);
  return r;
}

void AddEndToEnd(const RunResult& r, Metrics& m) {
  m.push_back({"committed_per_s", {r.committed_per_s(), "txn/s"}});
  m.push_back({"commit_p50_ms", {Percentile(r.sample.latency_ns, 0.5) / 1e6, "ms"}});
  m.push_back({"commit_p99_ms", {Percentile(r.sample.latency_ns, 0.99) / 1e6, "ms"}});
  m.push_back({"cpu_us_per_commit",
               {r.cpu_s * 1e6 / double(std::max<uint64_t>(1, r.sample.commits)),
                "us"}});
  m.push_back({"peak_rss_mib", {double(ReadRUsage().maxrss_kib) / 1024.0, "MiB"}});
}

void AddOutsideLayers(const RunResult& r, Metrics& m) {
  const double commits = double(std::max<uint64_t>(1, r.sample.commits));
  const miniraid::SiteCounters& c = r.counters;
  auto per_cycle = [&r](double total) {
    return r.cycles.cycles == 0 ? 0.0 : total / double(r.cycles.cycles);
  };
  m.push_back({"net.msgs_per_commit", {double(r.messages) / commits, "count"}});
  m.push_back({"net.ctx_switches_per_commit", {double(r.nvcsw) / commits, "count"}});
  m.push_back({"core.submit_us", {r.submit_us, "us"}});
  m.push_back({"replication.coord_txn_ms", {MedianMs(c.coord_txn_time), "ms"}});
  m.push_back({"replication.participant_ms", {MedianMs(c.participant_time), "ms"}});
  m.push_back({"replication.phase_copier_ms", {MedianMs(c.phase_copier_time), "ms"}});
  m.push_back({"replication.phase_prepare_ms", {MedianMs(c.phase_prepare_time), "ms"}});
  m.push_back({"replication.phase_commit_ms", {MedianMs(c.phase_commit_time), "ms"}});
  m.push_back({"replication.copy_serve_ms", {MedianMs(c.copy_serve_time), "ms"}});
  m.push_back({"replication.clear_locks_ms", {MedianMs(c.clear_locks_time), "ms"}});
  m.push_back({"replication.type1_recovering_ms", {MedianMs(c.recovery_time), "ms"}});
  m.push_back({"replication.type1_serve_ms", {MedianMs(c.type1_serve_time), "ms"}});
  m.push_back({"replication.attempts_per_commit",
               {double(r.attempts) / double(std::max<uint64_t>(1, r.commits)), "count"}});
  m.push_back({"replication.lock_waits_per_commit",
               {double(c.lock_waits) / double(std::max<uint64_t>(1, r.commits)), "count"}});
  m.push_back({"recovery_ms", {MedianOf(r.cycles.recovery_ms), "ms"}});
  m.push_back({"replication.copiers_per_cycle",
               {per_cycle(double(c.copier_transactions + c.batch_copier_transactions)),
                "count"}});
  m.push_back({"replication.drain_txns_per_cycle",
               {per_cycle(double(r.cycles.drain_txns)), "count"}});
  m.push_back({"replication.fail_locks_set_per_cycle",
               {per_cycle(double(c.fail_locks_set)), "count"}});
  m.push_back({"replication.fail_locks_cleared_per_cycle",
               {per_cycle(double(c.fail_locks_cleared)), "count"}});
}

/// Offline codec timing over the messages the traced run captured.
std::pair<double, double> CodecNs(const std::vector<miniraid::Message>& msgs) {
  if (msgs.empty()) return {0, 0};
  std::vector<std::vector<uint8_t>> frames;
  frames.reserve(msgs.size());
  const int passes = 5;
  int64_t encode_ns = 0;
  int64_t decode_ns = 0;
  size_t sink = 0;
  for (int pass = 0; pass < passes; ++pass) {
    frames.clear();
    const int64_t t0 = NowNs();
    for (const miniraid::Message& msg : msgs) frames.push_back(miniraid::EncodeMessage(msg));
    const int64_t t1 = NowNs();
    for (const auto& frame : frames) {
      auto decoded = miniraid::DecodeMessage(frame);
      sink += decoded.ok() ? 1 : 0;
    }
    const int64_t t2 = NowNs();
    encode_ns += t1 - t0;
    decode_ns += t2 - t1;
  }
  const double n = double(msgs.size()) * passes;
  if (sink != msgs.size() * passes) return {0, 0};
  return {double(encode_ns) / n, double(decode_ns) / n};
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = std::stoi(v);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 int64_t ready_ns, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"ready_ns\": %lld, \"metrics\": {",
              correct ? "true" : "false", (unsigned long long)attempted,
              (unsigned long long)failed, (long long)ready_ns);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].first.c_str(),
                metrics[i].second.first, metrics[i].second.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void ReportErrors(const RunResult& r) {
  for (const std::string& e : r.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  const WorkloadSpec* w = nullptr;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (args.workload == spec.name) w = &spec;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const ClusterOptions options = OptionsFor(*w);

  // A TCP base port picked from the pid can collide with sockets another
  // process holds; every attempt picks a fresh one.
  auto made = miniraid::MakeCluster(options);
  for (int attempt = 1; !made.ok() && attempt < kSetupAttempts; ++attempt) {
    std::fprintf(stderr, "MakeCluster: %s; retrying\n",
                 made.status().ToString().c_str());
    made = miniraid::MakeCluster(options);
  }
  if (!made.ok()) {
    std::fprintf(stderr, "MakeCluster: %s\n", made.status().ToString().c_str());
    return 2;
  }
  const int64_t ready_ns = NowNs();
  Metrics metrics;
  RunResult timed;
  {
    ClusterTarget target(std::move(made).value());
    timed = Drive(target, *w, args.seed,
                  args.trace ? args.seconds / 2 : args.seconds, false);
  }
  ReportErrors(timed);
  if (args.trace == 0) {
    AddEndToEnd(timed, metrics);
    PrintResult(timed.correct, timed.attempted, timed.failed, ready_ns,
                metrics);
    return timed.correct ? 0 : 1;
  }

  // Traced run: the same traffic on the decorated cluster.
  AddOutsideLayers(timed, metrics);
  std::unique_ptr<TracedCluster> traced;
  for (int attempt = 0; attempt < kSetupAttempts && traced == nullptr; ++attempt) {
    traced = std::make_unique<TracedCluster>(options);
    if (miniraid::Status s = traced->Start(); !s.ok()) {
      std::fprintf(stderr, "traced cluster: %s\n", s.ToString().c_str());
      traced.reset();
    }
  }
  if (traced == nullptr) return 2;
  RunResult t = Drive(*traced, *w, args.seed, args.seconds / 2, true);
  const uint64_t transport_msgs = traced->MessagesSent();
  traced->Stop();
  TraceRecorder& rec = traced->recorder();
  if (rec.sends() != transport_msgs) {
    t.correct = false;
    t.errors.push_back("decorators counted " + std::to_string(rec.sends()) +
                       " messages, transports " + std::to_string(transport_msgs));
  }
  const PathReport path = AnalyzeCriticalPaths(rec.TakeTrace(), t.sample.paths);
  std::fprintf(stderr,
               "critical path: %zu txns, %zu complete, median spans/latency "
               "%.3f\n",
               path.txns, path.complete, path.median_ratio);
  if (w->backend == ClusterBackend::kTcp && !CriticalPathHolds(path)) {
    t.correct = false;
    t.errors.push_back("critical-path spans do not add up to the latency");
  }
  ReportErrors(t);

  const auto [encode_ns, decode_ns] = CodecNs(rec.TakeCaptured());
  const double commits = double(std::max<uint64_t>(1, t.sample.commits));
  metrics.push_back({"msg.encode_ns", {encode_ns, "ns"}});
  metrics.push_back({"msg.decode_ns", {decode_ns, "ns"}});
  metrics.push_back({"net.send_us", {rec.MeanSendUs(), "us"}});
  metrics.push_back({"net.delivery_us_p50", {rec.DeliveryUs(0.5), "us"}});
  metrics.push_back({"net.delivery_us_p99", {rec.DeliveryUs(0.99), "us"}});
  metrics.push_back({"net.bytes_per_commit", {double(rec.bytes()) / commits, "bytes"}});
  metrics.push_back({"core.managing_handle_us", {rec.MeanManagingSelfUs(), "us"}});
  const std::pair<const char*, MsgType> handled[] = {
      {"txn_request", MsgType::kTxnRequest},
      {"prepare", MsgType::kPrepare},
      {"prepare_ack", MsgType::kPrepareAck},
      {"commit", MsgType::kCommit},
      {"commit_ack", MsgType::kCommitAck},
      {"copy_request", MsgType::kCopyRequest},
      {"copy_reply", MsgType::kCopyReply},
      {"clear_fail_locks", MsgType::kClearFailLocks},
      {"recovery_announce", MsgType::kRecoveryAnnounce},
      {"recovery_info", MsgType::kRecoveryInfo},
      {"failure_announce", MsgType::kFailureAnnounce},
  };
  for (const auto& [name, type] : handled) {
    metrics.push_back({std::string("replication.handle_us.") + name,
                       {rec.MeanSiteSelfUs(type), "us"}});
  }
  const double untraced = timed.committed_per_s();
  metrics.push_back({"trace.overhead_pct",
                     {untraced > 0 ? (untraced - t.committed_per_s()) / untraced * 100 : 0,
                      "%"}});
  const bool correct = timed.correct && t.correct;
  PrintResult(correct, timed.attempted + t.attempted, timed.failed + t.failed,
              ready_ns, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
