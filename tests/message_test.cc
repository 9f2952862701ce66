#include "msg/message.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"

namespace miniraid {
namespace {

/// Round-trips a message through the wire codec and checks full equality.
void ExpectRoundTrip(const Message& msg) {
  const std::vector<uint8_t> wire = EncodeMessage(msg);
  const Result<Message> decoded = DecodeMessage(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, msg) << msg.ToString();
}

TEST(MessageTest, TypeMatchesPayloadAlternative) {
  EXPECT_EQ(MakeMessage(0, 1, PrepareArgs{}).type, MsgType::kPrepare);
  EXPECT_EQ(MakeMessage(0, 1, TxnResult{}).type, MsgType::kTxnReply);
  EXPECT_EQ(MakeMessage(0, 1, ShutdownArgs{}).type, MsgType::kShutdown);
  EXPECT_EQ(MakeMessage(0, 1, RecoveryInfoArgs{}).type,
            MsgType::kRecoveryInfo);
}

TEST(MessageTest, RoundTripTxnRequest) {
  TxnRequestArgs args;
  args.txn.id = 42;
  args.txn.ops = {Operation::Read(3), Operation::Write(5, -77),
                  Operation::Read(5)};
  ExpectRoundTrip(MakeMessage(4, 0, std::move(args)));
}

TEST(MessageTest, RoundTripTxnReply) {
  TxnResult args;
  args.txn = 42;
  args.outcome = TxnOutcome::kAbortedCopierFailed;
  args.copier_count = 3;
  args.reads = {ItemCopy{1, 10, 2}, ItemCopy{7, -4, 99}};
  ExpectRoundTrip(MakeMessage(0, 4, std::move(args)));
}

TEST(MessageTest, RoundTripTwoPhaseCommitMessages) {
  PrepareArgs prepare;
  prepare.round = 9;
  prepare.session_vector = {SessionEntryWire{1, SiteStatus::kUp},
                            SessionEntryWire{4, SiteStatus::kDown}};
  prepare.participants = {0, 1, 2};
  prepare.members = {RoundMember{7, {ItemWrite{0, 1}, ItemWrite{49, -9}}},
                     RoundMember{8, {ItemWrite{0, 2}}}};
  ExpectRoundTrip(MakeMessage(0, 1, std::move(prepare)));
  ExpectRoundTrip(MakeMessage(1, 0, PrepareAckArgs{9, true, {}, {8}}));
  // A session-vector veto: the whole round refused, with the
  // participant's vector riding back for the coordinator to merge.
  PrepareAckArgs veto{9, /*accepted=*/false,
                      {SessionEntryWire{2, SiteStatus::kUp}}, {}};
  ExpectRoundTrip(MakeMessage(1, 0, std::move(veto)));
  ExpectRoundTrip(MakeMessage(0, 1, CommitArgs{9, {7}, {8}}));
  ExpectRoundTrip(MakeMessage(1, 0, CommitAckArgs{9}));
  // A decision answer: round 0, one member.
  ExpectRoundTrip(MakeMessage(0, 1, CommitArgs{0, {}, {7}}));
}

TEST(MessageTest, RoundTripCopierMessages) {
  CopyRequestArgs request;
  request.txn = 9;
  request.items = {4, 8, 15, 16, 23, 42};
  ExpectRoundTrip(MakeMessage(2, 0, std::move(request)));

  CopyReplyArgs reply;
  reply.txn = 9;
  reply.copies = {ItemCopy{4, 400, 12}, ItemCopy{8, 800, 13}};
  ExpectRoundTrip(MakeMessage(0, 2, std::move(reply)));

  ClearFailLocksArgs clear;
  clear.txn = 9;
  clear.refreshed_site = 2;
  clear.items = {4, 8};
  ExpectRoundTrip(MakeMessage(2, 1, std::move(clear)));
  ExpectRoundTrip(MakeMessage(1, 2, ClearFailLocksAckArgs{9}));
}

TEST(MessageTest, RoundTripControlMessages) {
  ExpectRoundTrip(MakeMessage(3, 0, RecoveryAnnounceArgs{3, 17}));

  RecoveryInfoArgs info;
  info.session_vector = {SessionEntryWire{1, SiteStatus::kUp},
                         SessionEntryWire{4, SiteStatus::kDown},
                         SessionEntryWire{2, SiteStatus::kWaitingToRecover},
                         SessionEntryWire{9, SiteStatus::kTerminating}};
  info.fail_locks = {FailLockRow{0, 0b0101}, FailLockRow{49, 0b1000}};
  ExpectRoundTrip(MakeMessage(0, 3, std::move(info)));

  FailureAnnounceArgs failure;
  failure.failed_sites = {FailedSiteEntry{1, 4}, FailedSiteEntry{2, 1}};
  ExpectRoundTrip(MakeMessage(0, 3, std::move(failure)));
  ExpectRoundTrip(MakeMessage(3, 0, FailureAckArgs{}));

  CopyCreateArgs create;
  create.backup_site = 2;
  create.copies = {ItemCopy{11, 5, 3}};
  ExpectRoundTrip(MakeMessage(1, 2, std::move(create)));
  ExpectRoundTrip(MakeMessage(2, 1, CopyCreateAckArgs{}));
}

TEST(MessageTest, RoundTripControlPlane) {
  ExpectRoundTrip(MakeMessage(4, 1, FailSiteArgs{}));
  ExpectRoundTrip(MakeMessage(4, 1, RecoverSiteArgs{}));
  ExpectRoundTrip(MakeMessage(4, 1, ShutdownArgs{}));
}

TEST(MessageTest, EmptyVectorsRoundTrip) {
  // Degenerate but wire-legal shapes: a round with no members, a member
  // with no writes, an abort-only commit frame, an ack with nothing
  // refused.
  ExpectRoundTrip(MakeMessage(0, 1, PrepareArgs{1, {}, {}, {}}));
  ExpectRoundTrip(
      MakeMessage(0, 1, PrepareArgs{1, {}, {}, {RoundMember{5, {}}}}));
  ExpectRoundTrip(MakeMessage(0, 1, CommitArgs{1, {}, {5, 6}}));
  ExpectRoundTrip(MakeMessage(1, 0, PrepareAckArgs{1, true, {}, {}}));
  ExpectRoundTrip(MakeMessage(0, 1, CopyReplyArgs{1, {}}));
  ExpectRoundTrip(MakeMessage(0, 1, RecoveryInfoArgs{{}, {}}));
}

TEST(MessageTest, UnknownTypeByteRejected) {
  Message msg = MakeMessage(0, 1, CommitArgs{5, {5}, {}});
  std::vector<uint8_t> wire = EncodeMessage(msg);
  wire[0] = 250;  // no such MsgType
  EXPECT_EQ(DecodeMessage(wire).status().code(), StatusCode::kCorruption);
}

TEST(MessageTest, TrailingGarbageRejected) {
  std::vector<uint8_t> wire =
      EncodeMessage(MakeMessage(0, 1, CommitArgs{5, {5}, {}}));
  wire.push_back(0x00);
  EXPECT_EQ(DecodeMessage(wire).status().code(), StatusCode::kCorruption);
}

TEST(MessageTest, BadEnumValuesRejected) {
  // Corrupt the operation kind inside a TxnRequest.
  TxnRequestArgs args;
  args.txn.id = 1;
  args.txn.ops = {Operation::Read(0)};
  std::vector<uint8_t> wire = EncodeMessage(MakeMessage(4, 0, args));
  // Layout: type(1) from(4) to(4) seq(varint=1) ack(varint=1) txn id(8)
  //         count(varint=1) kind(1) ...
  wire[19] = 9;  // invalid Operation::Kind
  EXPECT_EQ(DecodeMessage(wire).status().code(), StatusCode::kCorruption);
}

TEST(MessageTest, EveryTruncationFailsCleanly) {
  // Property: no prefix of a valid message decodes successfully, and none
  // crashes. Exercises bounds checks in every payload decoder.
  std::vector<Message> corpus;
  corpus.push_back(MakeMessage(
      0, 1,
      PrepareArgs{7,
                  {SessionEntryWire{2, SiteStatus::kUp}},
                  {0, 1, 2},
                  {RoundMember{3, {ItemWrite{1, 9}}}, RoundMember{4, {}}}}));
  corpus.push_back(MakeMessage(1, 0, PrepareAckArgs{7, true, {}, {4}}));
  corpus.push_back(MakeMessage(0, 1, CommitArgs{7, {3}, {4}}));
  corpus.push_back(MakeMessage(1, 0, CommitAckArgs{7}));
  corpus.push_back(
      MakeMessage(0, 1, CopyReplyArgs{7, {ItemCopy{1, 2, 3}}}));
  RecoveryInfoArgs info;
  info.session_vector = {SessionEntryWire{1, SiteStatus::kUp}};
  info.fail_locks = {FailLockRow{5, 3}};
  corpus.push_back(MakeMessage(0, 1, std::move(info)));
  TxnRequestArgs txn;
  txn.txn.id = 2;
  txn.txn.ops = {Operation::Write(1, 2)};
  corpus.push_back(MakeMessage(4, 0, std::move(txn)));

  for (const Message& msg : corpus) {
    const std::vector<uint8_t> wire = EncodeMessage(msg);
    for (size_t cut = 0; cut < wire.size(); ++cut) {
      const Result<Message> decoded = DecodeMessage(wire.data(), cut);
      EXPECT_FALSE(decoded.ok()) << msg.ToString() << " cut=" << cut;
    }
  }
}

TEST(MessageTest, RandomBytesNeverCrashDecoder) {
  Rng rng(777);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> junk(rng.NextBounded(64));
    for (uint8_t& byte : junk) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    // Must return (either outcome), never crash or hang.
    (void)DecodeMessage(junk);
  }
}

TEST(MessageTest, MsgTypeNamesAreUnique) {
  std::set<std::string_view> names;
  for (int t = 0; t <= static_cast<int>(MsgType::kChannelAck); ++t) {
    names.insert(MsgTypeName(static_cast<MsgType>(t)));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(MsgType::kChannelAck) + 1);
  EXPECT_EQ(names.count("Unknown"), 0u);
}

TEST(MessageTest, ChannelSequenceNumbersRoundTrip) {
  // The reliable channel stamps seq/ack on every frame; both must survive
  // the codec, including multi-byte varint values.
  Message msg = MakeMessage(0, 1, CommitArgs{5, {5}, {}});
  msg.seq = 300;     // two varint bytes
  msg.ack = 70000;   // three varint bytes
  ExpectRoundTrip(msg);
  ExpectRoundTrip(MakeMessage(1, 0, ChannelAckArgs{}));
  ExpectRoundTrip(MakeMessage(0, 2, DecisionQueryArgs{42}));
}

}  // namespace
}  // namespace miniraid
