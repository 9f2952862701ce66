// Tests of the benchmark's own checks: each check is shown a correct input,
// which it must accept, and a doctored one, which it must reject.
//
//   cmake --build <build> --target e2ebench_selftest && <build>/e2ebench_selftest

#include <cstdio>
#include <string>
#include <vector>

#include "oracle.h"
#include "tracing.h"

namespace e2ebench {
namespace {

using miniraid::ItemState;
using miniraid::Operation;
using miniraid::SiteSnapshot;
using miniraid::TxnOutcome;

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

TxnSpec Txn(TxnId id, std::vector<Operation> ops) {
  TxnSpec t;
  t.id = id;
  t.ops = std::move(ops);
  return t;
}

TxnResult Reply(TxnId id, std::vector<ItemCopy> reads,
                TxnOutcome outcome = TxnOutcome::kCommitted) {
  TxnResult r;
  r.txn = id;
  r.outcome = outcome;
  r.reads = std::move(reads);
  return r;
}

/// T1 writes item 0 = 11; T2 (aborted) writes item 0 = 22; T3 reads item 0.
OneCopyOracle History(bool latest_reads, ItemCopy t3_read) {
  OneCopyOracle o(4, latest_reads);
  o.Record(Txn(1, {Operation::Write(0, 11)}), Reply(1, {}));
  o.Record(Txn(2, {Operation::Write(0, 22)}),
           Reply(2, {}, TxnOutcome::kAbortedParticipantFailed));
  o.Record(Txn(3, {Operation::Read(0)}), Reply(3, {t3_read}));
  return o;
}

void OracleTests() {
  for (bool latest : {true, false}) {
    const std::string mode = latest ? "window 1: " : "concurrent: ";
    Expect(History(latest, ItemCopy{0, 11, 1}).ReadViolations().empty(),
           (mode + "accepts a read of the latest committed write").c_str());
    Expect(!History(latest, ItemCopy{0, 22, 2}).ReadViolations().empty(),
           (mode + "rejects a read of an aborted txn's write").c_str());
    Expect(!History(latest, ItemCopy{0, 99, 1}).ReadViolations().empty(),
           (mode + "rejects a read whose value its writer never wrote").c_str());
  }
  Expect(!History(true, ItemCopy{0, 0, 0}).ReadViolations().empty(),
         "window 1: rejects a stale read of the initial value");
  Expect(History(false, ItemCopy{0, 0, 0}).ReadViolations().empty(),
         "concurrent: accepts the initial value (a committed write)");

  // Concurrent mode: a read may name a writer whose reply comes later, but
  // that writer must then commit.
  OneCopyOracle later(4, false);
  later.Record(Txn(5, {Operation::Read(1)}), Reply(5, {ItemCopy{1, 7, 6}}));
  later.Record(Txn(6, {Operation::Write(1, 7)}), Reply(6, {}));
  Expect(later.ReadViolations().empty(),
         "concurrent: accepts a read of a write committed by a later reply");
  OneCopyOracle never(4, false);
  never.Record(Txn(5, {Operation::Read(1)}), Reply(5, {ItemCopy{1, 7, 6}}));
  Expect(!never.ReadViolations().empty(),
         "concurrent: rejects a read of a write that never committed");
  OneCopyOracle aborted_later(4, false);
  aborted_later.Record(Txn(5, {Operation::Read(1)}), Reply(5, {ItemCopy{1, 7, 6}}));
  aborted_later.Record(Txn(6, {Operation::Write(1, 7)}),
                       Reply(6, {}, TxnOutcome::kAbortedLockConflict));
  Expect(!aborted_later.ReadViolations().empty(),
         "concurrent: rejects a read of a write whose txn aborts later");
}

SiteSnapshot Snapshot(SiteId id, std::vector<ItemState> items) {
  std::vector<std::optional<ItemState>> db(items.begin(), items.end());
  return SiteSnapshot(id, miniraid::SiteStatus::kUp, miniraid::SessionVector(2),
                      miniraid::FailLockTable(uint32_t(items.size()), 2),
                      miniraid::HoldersTable(uint32_t(items.size()), 2), db);
}

void FinalStateTests() {
  const OneCopyOracle o = History(true, ItemCopy{0, 11, 1});
  const ItemState fresh{11, 1};
  const ItemState initial{0, 0};
  Expect(o.CheckFinalState({Snapshot(0, {fresh, initial, initial, initial}),
                            Snapshot(1, {fresh, initial, initial, initial})})
             .empty(),
         "final state: accepts copies equal to the committed state");
  Expect(!o.CheckFinalState({Snapshot(0, {fresh, initial, initial, initial}),
                             Snapshot(1, {ItemState{22, 2}, initial, initial,
                                          initial})})
              .empty(),
         "final state: rejects a copy holding an aborted txn's write");
  std::vector<SiteSnapshot> stale = {
      Snapshot(0, {fresh, initial, initial, initial}),
      Snapshot(1, {initial, initial, initial, initial})};
  Expect(!o.CheckFinalState(stale).empty(),
         "final state: rejects a stale copy that no fail-lock marks");
  (void)stale[0].fail_locks.Set(0, 1);
  Expect(o.CheckFinalState(stale).empty(),
         "final state: skips a copy an up site has fail-locked");
}

/// One 2PC transaction over endpoints 0 (coordinator), 1 (participant) and
/// 2 (managing): submit, TxnRequest, Prepare, PrepareAck, Commit,
/// CommitAck, TxnReply. Each handler runs 10 us and each delivery takes
/// 20 us, so the client sees 6 * 20 + 7 * 10 = 190 us.
TraceData OneTxnTrace(ClientTxn& txn) {
  TraceData trace;
  trace.spans.resize(3);
  int64_t t = 1000000;
  txn = ClientTxn{42, t, 0};
  uint64_t parent = kNoSpan;
  int64_t sent = t;
  auto handler = [&](uint32_t at, MsgType type, bool submit) {
    Span s;
    s.start = submit ? sent : sent + 20000;
    s.end = s.start + 10000;
    s.cause_start = sent;
    s.cause_span = parent;
    s.type = type;
    s.submit = submit;
    s.txn = submit || type == MsgType::kTxnReply ? txn.id : 0;
    parent = SpanId(at, trace.spans[at].size());
    trace.spans[at].push_back(s);
    sent = s.end;
  };
  handler(2, MsgType::kTxnRequest, true);
  handler(0, MsgType::kTxnRequest, false);
  handler(1, MsgType::kPrepare, false);
  handler(0, MsgType::kPrepareAck, false);
  handler(1, MsgType::kCommit, false);
  handler(0, MsgType::kCommitAck, false);
  handler(2, MsgType::kTxnReply, false);
  txn.reply_ns = sent;
  return trace;
}

void CriticalPathTests() {
  ClientTxn txn;
  const TraceData whole = OneTxnTrace(txn);
  const PathReport ok = AnalyzeCriticalPaths(whole, {txn});
  Expect(CriticalPathHolds(ok) && ok.complete == 1,
         "critical path: accepts a trace whose spans cover the latency");

  TraceData no_sites = whole;
  no_sites.spans[0].clear();
  no_sites.spans[1].clear();
  Expect(!CriticalPathHolds(AnalyzeCriticalPaths(no_sites, {txn})),
         "critical path: rejects a trace without the replication layer");

  TraceData no_managing = whole;
  no_managing.spans[2].clear();
  Expect(!CriticalPathHolds(AnalyzeCriticalPaths(no_managing, {txn})),
         "critical path: rejects a trace without the managing site's spans");

  TraceData no_network = whole;
  for (auto& endpoint : no_network.spans) {
    for (Span& s : endpoint) s.cause_start = s.start;  // no delivery time
  }
  Expect(!CriticalPathHolds(AnalyzeCriticalPaths(no_network, {txn})),
         "critical path: rejects a trace without the network layer");
}

}  // namespace
}  // namespace e2ebench

int main() {
  e2ebench::OracleTests();
  e2ebench::FinalStateTests();
  e2ebench::CriticalPathTests();
  std::printf("%d failure(s)\n", e2ebench::failures);
  return e2ebench::failures == 0 ? 0 : 1;
}
