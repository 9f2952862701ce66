#include "net/tcp_transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>

namespace miniraid {
namespace {

class Collector : public MessageHandler {
 public:
  void OnMessage(const Message& msg) override {
    std::lock_guard<std::mutex> lock(mu);
    messages.push_back(msg);
  }
  size_t Count() {
    std::lock_guard<std::mutex> lock(mu);
    return messages.size();
  }
  Message At(size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    return messages.at(i);
  }

  std::mutex mu;
  std::vector<Message> messages;
};

bool WaitForCount(Collector& collector, size_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (collector.Count() >= n) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

class TcpTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const uint16_t base = PickEphemeralBasePort();
    ports_ = {{0, base}, {1, static_cast<uint16_t>(base + 1)}};
    a_ = std::make_unique<TcpTransport>(0, ports_, &loop_a_, &collector_a_);
    b_ = std::make_unique<TcpTransport>(1, ports_, &loop_b_, &collector_b_);
    ASSERT_TRUE(a_->Start().ok());
    ASSERT_TRUE(b_->Start().ok());
  }

  void TearDown() override {
    a_->Stop();
    b_->Stop();
  }

  std::map<SiteId, uint16_t> ports_;
  EventLoop loop_a_, loop_b_;
  Collector collector_a_, collector_b_;
  std::unique_ptr<TcpTransport> a_, b_;
};

TEST_F(TcpTransportTest, SendAndReceive) {
  PrepareArgs args;
  args.round = 5;
  args.members = {RoundMember{5, {ItemWrite{1, 11}, ItemWrite{2, 22}}}};
  ASSERT_TRUE(a_->Send(MakeMessage(0, 1, args)).ok());
  ASSERT_TRUE(WaitForCount(collector_b_, 1));
  const Message received = collector_b_.At(0);
  EXPECT_EQ(received.type, MsgType::kPrepare);
  EXPECT_EQ(received.As<PrepareArgs>().members[0].writes[1].value, 22);
}

TEST_F(TcpTransportTest, BidirectionalTraffic) {
  ASSERT_TRUE(a_->Send(MakeMessage(0, 1, CommitArgs{1, {}, {}})).ok());
  ASSERT_TRUE(b_->Send(MakeMessage(1, 0, CommitAckArgs{1})).ok());
  EXPECT_TRUE(WaitForCount(collector_b_, 1));
  EXPECT_TRUE(WaitForCount(collector_a_, 1));
  EXPECT_EQ(collector_a_.At(0).type, MsgType::kCommitAck);
}

TEST_F(TcpTransportTest, FifoOverOneConnection) {
  constexpr TxnId kCount = 200;
  for (TxnId t = 1; t <= kCount; ++t) {
    ASSERT_TRUE(a_->Send(MakeMessage(0, 1, CommitArgs{t, {}, {}})).ok());
  }
  ASSERT_TRUE(WaitForCount(collector_b_, kCount));
  for (TxnId t = 1; t <= kCount; ++t) {
    EXPECT_EQ(collector_b_.At(t - 1).As<CommitArgs>().round, t);
  }
  EXPECT_EQ(a_->messages_sent(), kCount);
  EXPECT_EQ(b_->messages_received(), kCount);
}

TEST_F(TcpTransportTest, LargeMessage) {
  RecoveryInfoArgs args;
  for (uint32_t i = 0; i < 4; ++i) {
    args.session_vector.push_back(SessionEntryWire{i, SiteStatus::kUp});
  }
  for (ItemId item = 0; item < 50000; ++item) {
    args.fail_locks.push_back(FailLockRow{item, 0x5a5a5a5aULL});
  }
  ASSERT_TRUE(a_->Send(MakeMessage(0, 1, args)).ok());
  ASSERT_TRUE(WaitForCount(collector_b_, 1));
  EXPECT_EQ(collector_b_.At(0).As<RecoveryInfoArgs>().fail_locks.size(),
            50000u);
}

TEST_F(TcpTransportTest, UnknownPeerIsError) {
  EXPECT_FALSE(a_->Send(MakeMessage(0, 7, CommitArgs{1, {}, {}})).ok());
}

TEST(TcpTransportStandaloneTest, StartWithoutHandlerFails) {
  EventLoop loop;
  std::map<SiteId, uint16_t> ports = {{0, PickEphemeralBasePort()}};
  TcpTransport transport(0, ports, &loop, nullptr);
  EXPECT_EQ(transport.Start().code(), StatusCode::kFailedPrecondition);
}

TEST(TcpTransportStandaloneTest, ConnectToDeadPeerFails) {
  EventLoop loop;
  Collector collector;
  const uint16_t base = static_cast<uint16_t>(PickEphemeralBasePort() + 50);
  std::map<SiteId, uint16_t> ports = {{0, base},
                                      {1, static_cast<uint16_t>(base + 1)}};
  TcpTransport transport(0, ports, &loop, &collector);
  ASSERT_TRUE(transport.Start().ok());
  // Site 1 never started listening.
  EXPECT_EQ(transport.Send(MakeMessage(0, 1, CommitArgs{1, {}, {}})).code(),
            StatusCode::kIoError);
  transport.Stop();
}

TEST(TcpTransportStandaloneTest, BasePortsStayBelowTheEphemeralRange) {
  // Linux hands out outgoing-connection ports from 32768 up by default; a
  // cluster listening there can collide with an unrelated socket. Every
  // pick (the per-process counter cycles through the whole span) and its
  // stride of cluster ports must stay below.
  for (int pick = 0; pick < 1000; ++pick) {
    const uint32_t base = PickEphemeralBasePort();
    EXPECT_GE(base, 1024u);
    EXPECT_LE(base + kClusterPortStride, 32768u) << "pick " << pick;
  }
}

}  // namespace
}  // namespace miniraid
