// Microbenchmarks for the wire codec: encode/decode of the messages the
// protocol sends most often (phase-1 copy updates, copy replies, recovery
// info with a full fail-lock table), a batched commit round against the
// rounds of one it replaces, and the pooled buffer-reuse encode path.

#include <benchmark/benchmark.h>

#include "msg/codec.h"
#include "msg/message.h"
#include "txn/transaction.h"

namespace miniraid {
namespace {

/// A kPrepare frame for a round of `n_members` members starting at txn
/// `first`, each writing `writes_per_member` items, with a four-site
/// session vector and participant set.
Message MakePrepare(size_t n_members, size_t writes_per_member,
                    TxnId first = 1000) {
  PrepareArgs args;
  args.round = first;
  for (size_t i = 0; i < 4; ++i) {
    args.session_vector.push_back(SessionEntryWire{i + 1, SiteStatus::kUp});
  }
  args.participants = {0, 1, 2, 3};
  for (size_t m = 0; m < n_members; ++m) {
    RoundMember member;
    member.txn = first + m;
    for (size_t i = 0; i < writes_per_member; ++i) {
      member.writes.push_back(ItemWrite{static_cast<ItemId>(m * 7 + i),
                                        static_cast<Value>(i * 7919)});
    }
    args.members.push_back(std::move(member));
  }
  return MakeMessage(0, 1, std::move(args));
}

Message MakeRecoveryInfo(size_t n_items) {
  RecoveryInfoArgs args;
  for (size_t i = 0; i < 4; ++i) {
    args.session_vector.push_back(SessionEntryWire{i + 1, SiteStatus::kUp});
  }
  for (size_t i = 0; i < n_items; ++i) {
    args.fail_locks.push_back(FailLockRow{static_cast<ItemId>(i), 0b1010});
  }
  return MakeMessage(0, 1, std::move(args));
}

/// Args: members in the round, writes per member. A round of one with 3
/// writes is the common unbatched frame.
void BM_EncodePrepare(benchmark::State& state) {
  const Message msg = MakePrepare(static_cast<size_t>(state.range(0)),
                                  static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeMessage(msg));
  }
}
BENCHMARK(BM_EncodePrepare)
    ->Args({1, 3})
    ->Args({1, 50})
    ->Args({2, 3})
    ->Args({16, 3});

void BM_DecodePrepare(benchmark::State& state) {
  const std::vector<uint8_t> wire =
      EncodeMessage(MakePrepare(static_cast<size_t>(state.range(0)),
                                static_cast<size_t>(state.range(1))));
  for (auto _ : state) {
    Result<Message> decoded = DecodeMessage(wire);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(wire.size()));
}
BENCHMARK(BM_DecodePrepare)
    ->Args({1, 3})
    ->Args({1, 50})
    ->Args({2, 3})
    ->Args({16, 3});

void BM_RoundTripRecoveryInfo(benchmark::State& state) {
  const Message msg = MakeRecoveryInfo(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Result<Message> decoded = DecodeMessage(EncodeMessage(msg));
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_RoundTripRecoveryInfo)->Arg(50)->Arg(4096);

void BM_RoundTripTxnRequest(benchmark::State& state) {
  TxnRequestArgs args;
  args.txn.id = 99;
  for (int i = 0; i < 10; ++i) {
    if (i % 2) {
      args.txn.ops.push_back(Operation::Write(i, WriteValueFor(99, i)));
    } else {
      args.txn.ops.push_back(Operation::Read(i));
    }
  }
  const Message msg = MakeMessage(4, 0, std::move(args));
  for (auto _ : state) {
    Result<Message> decoded = DecodeMessage(EncodeMessage(msg));
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_RoundTripTxnRequest);

/// The N rounds of one that one round of N members replaces (BM_EncodePrepare
/// with Args({N, 3})): the session vector and participant list repeat per
/// frame — the wire bytes group commit saves.
void BM_EncodeRoundsOfOne(benchmark::State& state) {
  std::vector<Message> singles;
  for (int64_t m = 0; m < state.range(0); ++m) {
    singles.push_back(MakePrepare(1, 3, 1000 + static_cast<TxnId>(m)));
  }
  for (auto _ : state) {
    for (const Message& msg : singles) {
      benchmark::DoNotOptimize(EncodeMessage(msg));
    }
  }
}
BENCHMARK(BM_EncodeRoundsOfOne)->Arg(2)->Arg(16);

/// The retransmit-path allocation question: EncodeMessage allocates a fresh
/// vector per frame; EncodeMessageInto on a FramePool buffer reuses the
/// same storage in steady state.
void BM_EncodePreparePooled(benchmark::State& state) {
  const Message msg = MakePrepare(1, static_cast<size_t>(state.range(0)));
  FramePool pool;
  for (auto _ : state) {
    Encoder enc = pool.Acquire();
    EncodeMessageInto(msg, enc);
    benchmark::DoNotOptimize(enc.buffer().data());
    pool.Release(enc.TakeBuffer());
  }
}
BENCHMARK(BM_EncodePreparePooled)->Arg(3)->Arg(50);

/// The PutFixed hot loop in isolation (the memcpy rewrite of the old
/// byte-at-a-time append).
void BM_PutFixedBulk(benchmark::State& state) {
  Encoder enc;
  for (auto _ : state) {
    enc.Clear();
    for (int i = 0; i < 64; ++i) {
      enc.PutU64(0x0123456789abcdefULL + static_cast<uint64_t>(i));
    }
    benchmark::DoNotOptimize(enc.buffer().data());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * 64 * 8);
}
BENCHMARK(BM_PutFixedBulk);

}  // namespace
}  // namespace miniraid
