// Tests for the client runtime: subscription, sampling, local execution,
// randomization, share production, and query inversion at the client.

#include <gtest/gtest.h>

#include "answer_one.h"
#include "client/client.h"
#include "crypto/xor_cipher.h"

namespace privapprox::client {
namespace {

core::Query MakeQuery(uint64_t id = 1) {
  return core::QueryBuilder()
      .WithId(id)
      .WithSql("SELECT speed FROM vehicle")
      .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 100, 10, true))
      .WithFrequencyMs(1000)
      .WithWindowMs(60000)
      .WithSlideMs(1000)
      .Build();
}

core::ExecutionParams MakeParams(double s = 1.0, double p = 0.9,
                                 double q = 0.6) {
  core::ExecutionParams params;
  params.sampling_fraction = s;
  params.randomization = {p, q};
  return params;
}

Client MakeClientWithData(double speed, uint64_t id = 0) {
  Client client(ClientConfig{id, 2, 7});
  auto& table = client.database().CreateTable("vehicle", {"speed"});
  table.Insert(1000, {localdb::Value(speed)});
  return client;
}

TEST(ClientTest, RejectsTamperedQuery) {
  Client client(ClientConfig{});
  core::Query query = MakeQuery();
  query.sql = "SELECT password FROM secrets";
  EXPECT_THROW(client.Subscribe(query, MakeParams()), std::invalid_argument);
}

TEST(ClientTest, NoAnswerWithoutSubscription) {
  Client client(ClientConfig{});
  EXPECT_TRUE(AnswerOne(client, 1000).empty());
  EXPECT_EQ(client.num_subscriptions(), 0u);
  EXPECT_THROW(client.TruthfulAnswer(1, 1000), std::logic_error);
}

TEST(ClientTest, TruthfulAnswerBucketizesLocalData) {
  Client client = MakeClientWithData(15.0);
  client.Subscribe(MakeQuery(), MakeParams());
  const BitVector truthful = client.TruthfulAnswer(1, 2000);
  EXPECT_EQ(truthful.PopCount(), 1u);
  EXPECT_TRUE(truthful.Get(1));  // 15.0 in [10, 20)
}

TEST(ClientTest, MissingTableYieldsAllZeroAnswer) {
  Client client(ClientConfig{0, 2, 7});
  client.Subscribe(MakeQuery(), MakeParams());
  // No `vehicle` table exists: the client must still answer (all-zero).
  const BitVector truthful = client.TruthfulAnswer(1, 2000);
  EXPECT_EQ(truthful.PopCount(), 0u);
  EXPECT_FALSE(AnswerOne(client, 2000).empty());
}

core::Query FilteredSpeedQuery() {
  return core::QueryBuilder()
      .WithId(1)
      .WithSql("SELECT speed FROM vehicle WHERE speed >= 50")
      .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 100, 10, true))
      .WithFrequencyMs(1000)
      .WithWindowMs(60000)
      .WithSlideMs(1000)
      .Build();
}

TEST(ClientTest, WhereTypeMismatchSkipsTheRow) {
  // A cell holding a string where the WHERE compares a number makes that
  // row not match, instead of aborting the answer (and with it the epoch of
  // every client): the next row still answers.
  Client client(ClientConfig{0, 2, 7});
  auto& table = client.database().CreateTable("vehicle", {"speed"});
  table.Insert(1000, {localdb::Value("n/a")});
  table.Insert(1500, {localdb::Value(60.0)});
  client.Subscribe(FilteredSpeedQuery(), MakeParams());
  const BitVector truthful = client.TruthfulAnswer(1, 2000);
  EXPECT_EQ(truthful.PopCount(), 1u);
  EXPECT_TRUE(truthful.Get(6));  // 60.0 in [60, 70)
  EXPECT_FALSE(AnswerOne(client, 2000).empty());
}

TEST(ClientTest, WhereTypeMismatchOnlyRowAnswersAllZero) {
  Client client(ClientConfig{0, 2, 7});
  client.database().CreateTable("vehicle", {"speed"}).Insert(
      1000, {localdb::Value("n/a")});
  client.Subscribe(FilteredSpeedQuery(), MakeParams());
  EXPECT_EQ(client.TruthfulAnswer(1, 2000).PopCount(), 0u);
  EXPECT_EQ(client.TruthfulAnswer(1, 2000).size(), 11u);
  EXPECT_FALSE(AnswerOne(client, 2000).empty());
}

TEST(ClientTest, UnparsableSqlAnswersAllZero) {
  // The SQL is parsed once at subscribe time; a statement the client cannot
  // parse still subscribes and answers all-zero, like a missing table.
  core::Query query = MakeQuery();
  query.sql = "SELECT FROM vehicle";
  query.Sign();
  Client client = MakeClientWithData(15.0);
  client.Subscribe(query, MakeParams());
  EXPECT_EQ(client.TruthfulAnswer(1, 2000).PopCount(), 0u);
  EXPECT_FALSE(AnswerOne(client, 2000).empty());
  // Re-subscribing with the fixed statement re-parses it.
  client.Subscribe(MakeQuery(), MakeParams());
  EXPECT_TRUE(client.TruthfulAnswer(1, 2000).Get(1));  // 15.0 in [10, 20)
}

TEST(ClientTest, DataOutsideWindowIsIgnored) {
  Client client = MakeClientWithData(15.0);
  client.Subscribe(MakeQuery(), MakeParams());
  // Window is [now - 60s, now); the row at t=1000 is outside at now=100000.
  EXPECT_EQ(client.TruthfulAnswer(1, 100000).PopCount(), 0u);
}

TEST(ClientTest, ProducesOneSharePerProxy) {
  Client client = MakeClientWithData(15.0);
  client.Subscribe(MakeQuery(), MakeParams(1.0, 1.0, 0.5));
  const auto shares = AnswerOne(client, 2000);
  ASSERT_EQ(shares.size(), 2u);
  // All shares carry the same MID and equal-length payloads.
  EXPECT_EQ(shares[0].message_id, shares[1].message_id);
  EXPECT_EQ(shares[0].payload.size(), shares[1].payload.size());
}

TEST(ClientTest, SharesRecombineToTruthfulAnswerWhenP1) {
  Client client = MakeClientWithData(15.0);
  client.Subscribe(MakeQuery(), MakeParams(1.0, 1.0, 0.5));
  const auto shares = AnswerOne(client, 2000);
  ASSERT_FALSE(shares.empty());
  const auto plaintext = crypto::XorSplitter::Combine(shares);
  const auto message = crypto::AnswerMessage::Deserialize(plaintext);
  EXPECT_EQ(message.query_id, 1u);
  EXPECT_TRUE(message.answer.Get(1));
  EXPECT_EQ(message.answer.PopCount(), 1u);
}

TEST(ClientTest, SamplingSkipsEpochs) {
  Client client = MakeClientWithData(15.0);
  client.Subscribe(MakeQuery(), MakeParams(0.3));
  int participated = 0;
  const int epochs = 2000;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    if (!AnswerOne(client, 2000 + epoch).empty()) {
      ++participated;
    }
  }
  EXPECT_NEAR(static_cast<double>(participated) / epochs, 0.3, 0.05);
}

TEST(ClientTest, FullSamplingAlwaysParticipates) {
  Client client = MakeClientWithData(15.0);
  client.Subscribe(MakeQuery(), MakeParams(1.0));
  for (int epoch = 0; epoch < 50; ++epoch) {
    EXPECT_FALSE(AnswerOne(client, 2000 + epoch).empty());
  }
}

TEST(ClientTest, InvertedClientFlipsBits) {
  ClientConfig config;
  config.invert_answers = true;
  config.num_proxies = 2;
  Client client(config);
  auto& table = client.database().CreateTable("vehicle", {"speed"});
  table.Insert(1000, {localdb::Value(15.0)});
  client.Subscribe(MakeQuery(), MakeParams());
  const BitVector truthful = client.TruthfulAnswer(1, 2000);
  EXPECT_EQ(truthful.PopCount(), 10u);  // 11 buckets, one flipped off
  EXPECT_FALSE(truthful.Get(1));
}

TEST(ClientTest, ThreeProxyConfiguration) {
  Client client(ClientConfig{0, 3, 7});
  auto& table = client.database().CreateTable("vehicle", {"speed"});
  table.Insert(1000, {localdb::Value(42.0)});
  client.Subscribe(MakeQuery(), MakeParams(1.0, 1.0, 0.5));
  const auto shares = AnswerOne(client, 2000, /*num_proxies=*/3);
  ASSERT_EQ(shares.size(), 3u);
  const auto plaintext = crypto::XorSplitter::Combine(shares);
  EXPECT_TRUE(crypto::AnswerMessage::Deserialize(plaintext).answer.Get(4));
}

TEST(ClientTest, DistinctClientsProduceDistinctMids) {
  Client a = MakeClientWithData(15.0, /*id=*/1);
  Client b = MakeClientWithData(15.0, /*id=*/2);
  a.Subscribe(MakeQuery(), MakeParams());
  b.Subscribe(MakeQuery(), MakeParams());
  const auto shares_a = AnswerOne(a, 2000);
  const auto shares_b = AnswerOne(b, 2000);
  ASSERT_FALSE(shares_a.empty() || shares_b.empty());
  EXPECT_NE(shares_a[0].message_id, shares_b[0].message_id);
}

}  // namespace
}  // namespace privapprox::client
