#include <gtest/gtest.h>

#include <vector>

#include "net/inproc_transport.h"
#include "net/sim_transport.h"

namespace miniraid {
namespace {

class Recorder : public MessageHandler {
 public:
  void OnMessage(const Message& msg) override { messages.push_back(msg); }
  std::vector<Message> messages;
};

TEST(SimTransportTest, DeliversAfterLatency) {
  SimRuntime sim;
  SimTransportOptions options;
  options.message_latency = Milliseconds(9);
  SimTransport transport(&sim, options);
  Recorder recorder;
  transport.Register(1, &recorder);

  ASSERT_TRUE(transport.Send(MakeMessage(0, 1, CommitArgs{5, {}, {}})).ok());
  sim.RunUntil(Milliseconds(8));
  EXPECT_TRUE(recorder.messages.empty());
  sim.RunUntilIdle();
  ASSERT_EQ(recorder.messages.size(), 1u);
  EXPECT_EQ(recorder.messages[0].As<CommitArgs>().round, 5u);
  EXPECT_EQ(transport.messages_sent(), 1u);
}

TEST(SimTransportTest, UnknownDestinationIsError) {
  SimRuntime sim;
  SimTransport transport(&sim, SimTransportOptions{});
  const Status status =
      transport.Send(MakeMessage(0, 9, CommitArgs{1, {}, {}}));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SimTransportTest, FifoPerPair) {
  SimRuntime sim;
  SimTransport transport(&sim, SimTransportOptions{});
  Recorder recorder;
  transport.Register(1, &recorder);
  for (TxnId t = 1; t <= 20; ++t) {
    ASSERT_TRUE(transport.Send(MakeMessage(0, 1, CommitArgs{t, {}, {}})).ok());
  }
  sim.RunUntilIdle();
  ASSERT_EQ(recorder.messages.size(), 20u);
  for (TxnId t = 1; t <= 20; ++t) {
    EXPECT_EQ(recorder.messages[t - 1].As<CommitArgs>().round, t);
  }
}

TEST(SimTransportTest, DropFilterInjectsLoss) {
  SimRuntime sim;
  SimTransportOptions options;
  options.drop_filter = [](const Message& msg) {
    return msg.type == MsgType::kCommit;
  };
  SimTransport transport(&sim, options);
  Recorder recorder;
  transport.Register(1, &recorder);
  ASSERT_TRUE(transport.Send(MakeMessage(0, 1, CommitArgs{1, {}, {}})).ok());
  ASSERT_TRUE(transport.Send(MakeMessage(0, 1, CommitAckArgs{2})).ok());
  sim.RunUntilIdle();
  ASSERT_EQ(recorder.messages.size(), 1u);
  EXPECT_EQ(recorder.messages[0].type, MsgType::kCommitAck);
  EXPECT_EQ(transport.messages_dropped(), 1u);
}

TEST(SimTransportTest, SendsDuringHandlerDepartAfterCharges) {
  SimRuntime sim;
  SimTransportOptions options;
  options.message_latency = Milliseconds(9);
  SimTransport transport(&sim, options);

  class Relay : public MessageHandler {
   public:
    Relay(SimRuntime* sim, SimTransport* transport)
        : sim_(sim), transport_(transport) {}
    void OnMessage(const Message&) override {
      sim_->RuntimeFor(1)->ChargeCpu(Milliseconds(5));
      (void)transport_->Send(MakeMessage(1, 2, CommitAckArgs{1}));
    }
    SimRuntime* sim_;
    SimTransport* transport_;
  };

  class Timestamper : public MessageHandler {
   public:
    explicit Timestamper(SimRuntime* sim) : sim_(sim) {}
    void OnMessage(const Message&) override { arrival = sim_->now(); }
    SimRuntime* sim_;
    TimePoint arrival = -1;
  };

  Relay relay(&sim, &transport);
  Timestamper timestamper(&sim);
  transport.Register(1, &relay);
  transport.Register(2, &timestamper);

  sim.ScheduleGlobalEvent(0, [&] {
    (void)transport.Send(MakeMessage(0, 1, CommitArgs{1, {}, {}}));
  });
  sim.RunUntilIdle();
  // Path: send at 0 -> arrives at 9 -> 5 ms CPU -> departs 14 -> arrives 23.
  EXPECT_EQ(timestamper.arrival, Milliseconds(23));
}

TEST(InProcTransportTest, CodecRoundTripDelivery) {
  EventLoop loop;
  InProcTransport transport;
  Recorder recorder;
  transport.Register(1, &loop, &recorder);

  PrepareArgs args;
  args.round = 11;
  args.members = {RoundMember{11, {ItemWrite{3, 42}}}};
  ASSERT_TRUE(transport.Send(MakeMessage(0, 1, args)).ok());

  // Drain the loop: post a marker and wait for it.
  loop.PostAndWait([] {});
  ASSERT_EQ(recorder.messages.size(), 1u);
  EXPECT_EQ(
      recorder.messages[0].As<PrepareArgs>().members[0].writes[0].value, 42);
}

TEST(InProcTransportTest, FifoAcrossManyMessages) {
  EventLoop loop;
  InProcTransport transport;
  Recorder recorder;
  transport.Register(1, &loop, &recorder);
  for (TxnId t = 1; t <= 100; ++t) {
    ASSERT_TRUE(transport.Send(MakeMessage(0, 1, CommitArgs{t, {}, {}})).ok());
  }
  loop.PostAndWait([] {});
  ASSERT_EQ(recorder.messages.size(), 100u);
  for (TxnId t = 1; t <= 100; ++t) {
    EXPECT_EQ(recorder.messages[t - 1].As<CommitArgs>().round, t);
  }
}

TEST(InProcTransportTest, UnknownDestinationIsError) {
  InProcTransport transport;
  EXPECT_EQ(transport.Send(MakeMessage(0, 3, CommitArgs{1, {}, {}})).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace miniraid
