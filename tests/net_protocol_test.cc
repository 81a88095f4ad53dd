// The must-hold invariant of the transport subsystem: a distributed
// Protocol 1 run over ANY transport produces bitwise-identical aggregates
// to the in-process simulation on the same Rng::Fork substreams.

#include <gtest/gtest.h>

#include <thread>

#include "core/private_weighting.h"
#include "net/demo.h"
#include "net/protocol_node.h"
#include "net/tcp.h"
#include "net/transport.h"

namespace uldp {
namespace net {
namespace {

constexpr int kSilos = 3;
constexpr int kUsers = 5;
constexpr int kDim = 4;
constexpr uint64_t kInputSeed = 424242;
constexpr int kRounds = 2;

ProtocolConfig TestConfig() {
  ProtocolConfig config;
  config.paillier_bits = 512;
  config.n_max = 30;
  config.seed = 77;
  return config;
}

ProtocolConfig OtTestConfig() {
  ProtocolConfig config = TestConfig();
  config.ot_slots = 4;
  config.ot_sample_rate = 0.5;
  config.ot_group_bits = 192;
  return config;
}

/// Reference: the in-process simulation on the same config and inputs.
std::vector<Vec> RunInProcess(const ProtocolConfig& config) {
  DemoInputs in = MakeDemoInputs(kInputSeed, kSilos, kUsers, kDim);
  PrivateWeightingProtocol protocol(config, kSilos, kUsers);
  EXPECT_TRUE(protocol.Setup(in.histograms).ok());
  std::vector<Vec> outs;
  std::vector<bool> mask(kUsers, true);
  for (int r = 0; r < kRounds; ++r) {
    auto out = protocol.WeightingRound(r, in.deltas, in.noise, mask);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    outs.push_back(out.value());
  }
  return outs;
}

/// Distributed run: a ProtocolServer plus kSilos clients, each client on
/// its own thread, over the given already-connected transports.
std::vector<Vec> RunDistributed(
    const ProtocolConfig& config,
    std::vector<std::unique_ptr<Transport>> server_ends,
    std::vector<std::unique_ptr<Transport>> silo_ends) {
  std::vector<std::thread> silo_threads;
  std::vector<Status> silo_status(kSilos, Status::Ok());
  for (int s = 0; s < kSilos; ++s) {
    silo_threads.emplace_back([&, s] {
      silo_status[s] = RunDemoSilo(config, s, kSilos, kUsers, kDim,
                                   kInputSeed, *silo_ends[s]);
    });
  }

  ProtocolServer server(config, kSilos, kUsers);
  for (auto& end : server_ends) {
    EXPECT_TRUE(server.AddConnection(std::move(end)).ok());
  }
  EXPECT_TRUE(server.RunSetup().ok());
  std::vector<Vec> outs;
  std::vector<bool> mask(kUsers, true);
  for (int r = 0; r < kRounds; ++r) {
    auto out = server.RunRound(r, mask);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    outs.push_back(out.value());
  }
  EXPECT_TRUE(server.Shutdown().ok());
  for (auto& t : silo_threads) t.join();
  for (int s = 0; s < kSilos; ++s) {
    EXPECT_TRUE(silo_status[s].ok()) << "silo " << s << ": "
                                     << silo_status[s].ToString();
  }
  // Every phase moved real bytes.
  EXPECT_GT(server.total_bytes_sent(), 0u);
  EXPECT_GT(server.total_bytes_received(), 0u);
  return outs;
}

std::vector<Vec> RunOverChannels(const ProtocolConfig& config) {
  std::vector<std::unique_ptr<Transport>> server_ends, silo_ends;
  for (int s = 0; s < kSilos; ++s) {
    auto [a, b] = ChannelTransport::CreatePair();
    server_ends.push_back(std::move(a));
    silo_ends.push_back(std::move(b));
  }
  return RunDistributed(config, std::move(server_ends),
                        std::move(silo_ends));
}

std::vector<Vec> RunOverTcp(const ProtocolConfig& config) {
  auto listener = TcpListener::Listen(0);
  EXPECT_TRUE(listener.ok()) << listener.status().ToString();
  const int port = listener.value().port();
  std::vector<std::unique_ptr<Transport>> server_ends, silo_ends;
  for (int s = 0; s < kSilos; ++s) {
    // Connect first (the backlog holds it), then accept.
    auto client = TcpTransport::Connect("127.0.0.1", port);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    silo_ends.push_back(std::move(client.value()));
    auto accepted = listener.value().Accept();
    EXPECT_TRUE(accepted.ok()) << accepted.status().ToString();
    server_ends.push_back(std::move(accepted.value()));
  }
  return RunDistributed(config, std::move(server_ends),
                        std::move(silo_ends));
}

TEST(NetProtocolTest, ChannelAndTcpRoundsBitwiseMatchInProcess) {
  ProtocolConfig config = TestConfig();
  std::vector<Vec> reference = RunInProcess(config);
  ASSERT_EQ(reference.size(), static_cast<size_t>(kRounds));

  // Exact double equality — bitwise-identical aggregates, not "close".
  EXPECT_EQ(RunOverTcp(config), reference);
  // The channel deployment at every pool shape. num_threads = 0 puts the
  // server and all in-process silos on the one process-wide pool, where
  // their concurrent ParallelFor calls must never wait on each other's
  // items; repeat it back to back.
  for (int threads : {0, 0, 0, 0, 1, 3}) {
    config.num_threads = threads;
    EXPECT_EQ(RunOverChannels(config), reference) << threads << " threads";
  }
}

TEST(NetProtocolTest, OtModeOverChannelsBitwiseMatchesInProcess) {
  ProtocolConfig config = OtTestConfig();
  std::vector<Vec> reference = RunInProcess(config);
  std::vector<Vec> channel = RunOverChannels(config);
  EXPECT_EQ(channel, reference);
}

TEST(NetProtocolTest, PackedRoundsBitwiseMatchUnpackedOverAllTransports) {
  // pack_slots = 4 fits the default precision/clip at 512-bit keys; the
  // packed distributed runs must decode to the exact doubles the unpacked
  // in-process simulation produces — packing is a pure wire/evaluation
  // layout, never a numerics change.
  ProtocolConfig unpacked = TestConfig();
  std::vector<Vec> reference = RunInProcess(unpacked);

  ProtocolConfig packed = TestConfig();
  packed.pack_slots = 4;
  std::vector<Vec> packed_local = RunInProcess(packed);
  std::vector<Vec> packed_channel = RunOverChannels(packed);
  std::vector<Vec> packed_tcp = RunOverTcp(packed);
  EXPECT_EQ(packed_local, reference);
  EXPECT_EQ(packed_channel, reference);
  EXPECT_EQ(packed_tcp, reference);
}

TEST(NetProtocolTest, PackedOtModeOverChannelsBitwiseMatchesInProcess) {
  ProtocolConfig config = OtTestConfig();
  config.pack_slots = 4;
  std::vector<Vec> reference = RunInProcess(config);
  std::vector<Vec> channel = RunOverChannels(config);
  EXPECT_EQ(channel, reference);

  ProtocolConfig unpacked = OtTestConfig();
  std::vector<Vec> unpacked_reference = RunInProcess(unpacked);
  EXPECT_EQ(reference, unpacked_reference);
}

TEST(NetProtocolTest, PackedConfigsAreDigestSeparated) {
  // A silo running a different slot layout must be rejected at Join, not
  // left to decode garbage aggregates.
  ProtocolConfig config = TestConfig();
  ProtocolConfig other = TestConfig();
  other.pack_slots = 4;
  EXPECT_NE(ProtocolWireDigest(config, kSilos, kUsers),
            ProtocolWireDigest(other, kSilos, kUsers));
  ProtocolConfig clip = TestConfig();
  clip.pack_clip = 32.0;
  EXPECT_NE(ProtocolWireDigest(config, kSilos, kUsers),
            ProtocolWireDigest(clip, kSilos, kUsers));
  // pipeline and num_threads are party-local evaluation strategies
  // (bitwise-identical outputs), so they must NOT split the wire digest.
  ProtocolConfig local = TestConfig();
  local.pipeline = !config.pipeline;
  local.num_threads = config.num_threads + 3;
  EXPECT_EQ(ProtocolWireDigest(config, kSilos, kUsers),
            ProtocolWireDigest(local, kSilos, kUsers));
}

TEST(NetProtocolTest, JoinRejectsMismatchedConfigAndBadIds) {
  ProtocolConfig config = TestConfig();
  ProtocolServer server(config, kSilos, kUsers);

  // Mismatched config (different n_max) → digest rejection, and the
  // client hears the reason.
  {
    auto [server_end, silo_end] = ChannelTransport::CreatePair();
    ProtocolConfig other = config;
    other.n_max = config.n_max + 1;
    Status client_status = Status::Ok();
    std::thread client([&] {
      client_status = RunDemoSilo(other, 0, kSilos, kUsers, kDim,
                                  kInputSeed, *silo_end);
    });
    Status added = server.AddConnection(std::move(server_end));
    EXPECT_FALSE(added.ok());
    EXPECT_NE(added.message().find("digest"), std::string::npos);
    client.join();
    EXPECT_FALSE(client_status.ok());
    EXPECT_NE(client_status.message().find("digest"), std::string::npos);
  }

  // Out-of-range silo ids — including a 2^31-range value that would wrap
  // negative under a signed cast and sail past the range check into a
  // vector index.
  for (uint32_t bad_id : {99u, 0x80000000u, 0xFFFFFFFFu}) {
    auto [server_end, silo_end] = ChannelTransport::CreatePair();
    JoinMsg join;
    join.silo_id = bad_id;
    join.num_silos = kSilos;
    join.num_users = kUsers;
    join.config_digest = ProtocolWireDigest(config, kSilos, kUsers);
    ASSERT_TRUE(silo_end->Send(ToFrame(join)).ok());
    Status added = server.AddConnection(std::move(server_end));
    EXPECT_FALSE(added.ok()) << bad_id;
    EXPECT_NE(added.message().find("out of range"), std::string::npos);
  }

  // Duplicate silo id: first join for id 0 succeeds, second is refused.
  {
    auto [server_end1, silo_end1] = ChannelTransport::CreatePair();
    JoinMsg join;
    join.silo_id = 0;
    join.num_silos = kSilos;
    join.num_users = kUsers;
    join.config_digest = ProtocolWireDigest(config, kSilos, kUsers);
    ASSERT_TRUE(silo_end1->Send(ToFrame(join)).ok());
    EXPECT_TRUE(server.AddConnection(std::move(server_end1)).ok());

    auto [server_end2, silo_end2] = ChannelTransport::CreatePair();
    ASSERT_TRUE(silo_end2->Send(ToFrame(join)).ok());
    Status dup = server.AddConnection(std::move(server_end2));
    EXPECT_FALSE(dup.ok());
    EXPECT_NE(dup.message().find("already"), std::string::npos);
  }

  // Setup with missing silos is a clear precondition failure.
  EXPECT_EQ(server.RunSetup().code(), StatusCode::kFailedPrecondition);
}

TEST(NetProtocolTest, RoundBeyondTagLimitIsRejected) {
  // No connections needed: the range check precedes any traffic, but
  // setup must have run — so check the error class only.
  ProtocolConfig config = TestConfig();
  ProtocolServer server(config, kSilos, kUsers);
  std::vector<bool> mask(kUsers, true);
  auto out = server.RunRound(1ull << 56, mask);
  EXPECT_FALSE(out.ok());
}

}  // namespace
}  // namespace net
}  // namespace uldp
