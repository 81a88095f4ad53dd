#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.h"
#include "core/private_weighting.h"
#include "core/uldp_avg.h"
#include "data/allocation.h"
#include "data/synthetic.h"

namespace uldp {
namespace {

struct ProtoInputs {
  std::vector<std::vector<int>> histograms;       // [silo][user]
  std::vector<std::vector<Vec>> deltas;           // [silo][user]
  std::vector<Vec> noise;                         // [silo]
  std::vector<int> totals;                        // N_u
};

ProtoInputs MakeInputs(int silos, int users, int dim, uint64_t seed) {
  Rng rng(seed);
  ProtoInputs in;
  in.histograms.assign(silos, std::vector<int>(users, 0));
  in.deltas.assign(silos, std::vector<Vec>(users));
  in.noise.assign(silos, Vec(dim, 0.0));
  in.totals.assign(users, 0);
  for (int s = 0; s < silos; ++s) {
    for (int u = 0; u < users; ++u) {
      in.histograms[s][u] = static_cast<int>(rng.UniformInt(5));  // 0..4
      in.totals[u] += in.histograms[s][u];
      if (in.histograms[s][u] > 0) {
        in.deltas[s][u].resize(dim);
        for (double& v : in.deltas[s][u]) v = rng.Gaussian(0.0, 1.0);
      }
    }
    for (double& v : in.noise[s]) v = rng.Gaussian(0.0, 0.3);
  }
  return in;
}

Vec PlaintextReference(const ProtoInputs& in, const std::vector<bool>& mask,
                       int dim) {
  Vec out(dim, 0.0);
  int silos = static_cast<int>(in.histograms.size());
  int users = static_cast<int>(in.histograms[0].size());
  for (int s = 0; s < silos; ++s) {
    for (int u = 0; u < users; ++u) {
      if (in.histograms[s][u] == 0 || in.totals[u] == 0 || !mask[u]) continue;
      double w = static_cast<double>(in.histograms[s][u]) / in.totals[u];
      for (int d = 0; d < dim; ++d) out[d] += w * in.deltas[s][u][d];
    }
    for (int d = 0; d < dim; ++d) out[d] += in.noise[s][d];
  }
  return out;
}

class ProtocolShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ProtocolShapeSweep, MatchesPlaintextReference) {
  auto [silos, users] = GetParam();
  const int dim = 4;
  ProtocolConfig config;
  config.paillier_bits = 512;
  config.n_max = 40;
  config.seed = 100 + silos * 10 + users;
  PrivateWeightingProtocol protocol(config, silos, users);
  auto in = MakeInputs(silos, users, dim, 200 + silos + users);
  ASSERT_TRUE(protocol.Setup(in.histograms).ok());
  std::vector<bool> mask(users, true);
  auto out = protocol.WeightingRound(0, in.deltas, in.noise, mask);
  ASSERT_TRUE(out.ok());
  Vec expect = PlaintextReference(in, mask, dim);
  // Theorem 4: |Delta - Delta_sec|_inf below the fixed-point precision
  // scale (P = 1e-10, a handful of quantized terms per coordinate).
  for (int d = 0; d < dim; ++d) {
    EXPECT_NEAR(out.value()[d], expect[d], 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ProtocolShapeSweep,
                         ::testing::Combine(::testing::Values(2, 3, 5),
                                            ::testing::Values(1, 4, 9)));

class ProtocolFixture : public ::testing::Test {
 protected:
  static constexpr int kSilos = 3;
  static constexpr int kUsers = 6;
  static constexpr int kDim = 3;

  ProtocolFixture() {
    ProtocolConfig config;
    config.paillier_bits = 512;
    config.n_max = 30;
    config.seed = 77;
    protocol_ = std::make_unique<PrivateWeightingProtocol>(config, kSilos,
                                                           kUsers);
    in_ = MakeInputs(kSilos, kUsers, kDim, 55);
  }

  std::unique_ptr<PrivateWeightingProtocol> protocol_;
  ProtoInputs in_;
};

TEST_F(ProtocolFixture, SubsamplingZeroesUnsampledUsers) {
  ASSERT_TRUE(protocol_->Setup(in_.histograms).ok());
  std::vector<bool> mask(kUsers, true);
  mask[1] = false;
  mask[4] = false;
  auto out = protocol_->WeightingRound(3, in_.deltas, in_.noise, mask);
  ASSERT_TRUE(out.ok());
  Vec expect = PlaintextReference(in_, mask, kDim);
  for (int d = 0; d < kDim; ++d) EXPECT_NEAR(out.value()[d], expect[d], 1e-7);
}

TEST_F(ProtocolFixture, RoundsAreRepeatableAndIndependent) {
  ASSERT_TRUE(protocol_->Setup(in_.histograms).ok());
  std::vector<bool> mask(kUsers, true);
  auto out1 = protocol_->WeightingRound(0, in_.deltas, in_.noise, mask);
  auto out2 = protocol_->WeightingRound(1, in_.deltas, in_.noise, mask);
  ASSERT_TRUE(out1.ok());
  ASSERT_TRUE(out2.ok());
  for (int d = 0; d < kDim; ++d) {
    EXPECT_NEAR(out1.value()[d], out2.value()[d], 1e-7);
  }
}

TEST_F(ProtocolFixture, ServerViewIsBlinded) {
  ASSERT_TRUE(protocol_->Setup(in_.histograms).ok());
  const auto& view = protocol_->server_view();
  const BigInt& n = protocol_->public_key().n;
  // Blinded totals are r_u * N_u mod n: random field elements, not the raw
  // counts (raw counts are tiny; a blinded value that small has negligible
  // probability and would be a blinding failure).
  for (int u = 0; u < kUsers; ++u) {
    if (in_.totals[u] == 0) {
      EXPECT_TRUE(view.blinded_totals[u].IsZero());
      continue;
    }
    EXPECT_NE(view.blinded_totals[u],
              BigInt(static_cast<int64_t>(in_.totals[u])));
    EXPECT_GT(view.blinded_totals[u].BitLength(), 64);
    EXPECT_TRUE(view.blinded_totals[u] < n);
  }
  // Doubly blinded per-silo histograms: also field-sized, and never the
  // raw n_su.
  for (int s = 0; s < kSilos; ++s) {
    for (int u = 0; u < kUsers; ++u) {
      EXPECT_NE(view.doubly_blinded_histograms[s][u],
                BigInt(static_cast<int64_t>(in_.histograms[s][u])));
      EXPECT_GT(view.doubly_blinded_histograms[s][u].BitLength(), 64);
    }
  }
}

TEST_F(ProtocolFixture, SiloViewHoldsOnlyCiphertexts) {
  ASSERT_TRUE(protocol_->Setup(in_.histograms).ok());
  std::vector<bool> mask(kUsers, true);
  ASSERT_TRUE(
      protocol_->WeightingRound(0, in_.deltas, in_.noise, mask).ok());
  const auto& n2 = protocol_->public_key().n_squared;
  for (int s = 0; s < kSilos; ++s) {
    const auto& view = protocol_->silo_view(s);
    ASSERT_EQ(view.encrypted_weights.size(), static_cast<size_t>(kUsers));
    for (const auto& c : view.encrypted_weights) {
      EXPECT_TRUE(c < n2);
      EXPECT_GT(c.BitLength(), 128);  // semantically secure blob, not tiny
    }
  }
}

TEST_F(ProtocolFixture, TimingsArePopulated) {
  ASSERT_TRUE(protocol_->Setup(in_.histograms).ok());
  std::vector<bool> mask(kUsers, true);
  ASSERT_TRUE(
      protocol_->WeightingRound(0, in_.deltas, in_.noise, mask).ok());
  const auto& t = protocol_->timings();
  EXPECT_GT(t.key_exchange_s, 0.0);
  EXPECT_GT(t.histogram_s, 0.0);
  EXPECT_GT(t.encrypt_weights_s, 0.0);
  EXPECT_GT(t.silo_weighting_s, 0.0);
  EXPECT_GT(t.aggregation_s, 0.0);
  EXPECT_GT(t.decryption_s, 0.0);
}

TEST_F(ProtocolFixture, FailureInjection) {
  // Round before setup.
  std::vector<bool> mask(kUsers, true);
  EXPECT_FALSE(
      protocol_->WeightingRound(0, in_.deltas, in_.noise, mask).ok());
  // Histogram shape mismatches.
  EXPECT_FALSE(protocol_->Setup({{1, 2}}).ok());
  std::vector<std::vector<int>> ragged(kSilos, std::vector<int>(kUsers, 1));
  ragged[1].pop_back();
  EXPECT_FALSE(protocol_->Setup(ragged).ok());
  // Negative count.
  auto negative = in_.histograms;
  negative[0][0] = -1;
  EXPECT_FALSE(protocol_->Setup(negative).ok());
  // N_u above N_max.
  auto too_many = in_.histograms;
  too_many[0][0] = 1000;
  EXPECT_FALSE(protocol_->Setup(too_many).ok());
  // Valid setup, then malformed round inputs.
  ASSERT_TRUE(protocol_->Setup(in_.histograms).ok());
  EXPECT_FALSE(protocol_->WeightingRound(0, {}, in_.noise, mask).ok());
  auto bad_mask = mask;
  bad_mask.pop_back();
  EXPECT_FALSE(
      protocol_->WeightingRound(0, in_.deltas, in_.noise, bad_mask).ok());
  auto ragged_delta = in_.deltas;
  for (auto& row : ragged_delta) {
    for (auto& d : row) {
      if (!d.empty()) {
        d.pop_back();
        goto done;
      }
    }
  }
done:
  EXPECT_FALSE(
      protocol_->WeightingRound(0, ragged_delta, in_.noise, mask).ok());
}

TEST(ProtocolEdgeTest, SingleUserAllMassInOneSilo) {
  // Degenerate but legal: one user, records in one silo only. The weight
  // must come out exactly 1 and the result equal delta + total noise.
  ProtocolConfig config;
  config.paillier_bits = 512;
  config.n_max = 10;
  config.seed = 91;
  PrivateWeightingProtocol protocol(config, 2, 1);
  ASSERT_TRUE(protocol.Setup({{4}, {0}}).ok());
  std::vector<std::vector<Vec>> deltas(2, std::vector<Vec>(1));
  deltas[0][0] = {0.5, -1.25};
  std::vector<Vec> noise(2, Vec(2, 0.0));
  noise[0] = {0.1, 0.0};
  noise[1] = {0.0, -0.2};
  auto out = protocol.WeightingRound(0, deltas, noise, {true});
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out.value()[0], 0.6, 1e-8);
  EXPECT_NEAR(out.value()[1], -1.45, 1e-8);
}

TEST(ProtocolEdgeTest, AllUsersUnsampledYieldsNoiseOnly) {
  ProtocolConfig config;
  config.paillier_bits = 512;
  config.n_max = 10;
  config.seed = 92;
  PrivateWeightingProtocol protocol(config, 2, 2);
  ASSERT_TRUE(protocol.Setup({{2, 1}, {1, 2}}).ok());
  std::vector<std::vector<Vec>> deltas(2, std::vector<Vec>(2, Vec{3.0}));
  std::vector<Vec> noise(2, Vec{0.25});
  auto out = protocol.WeightingRound(0, deltas, noise, {false, false});
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out.value()[0], 0.5, 1e-8);  // just the two noise shares
}

TEST(ProtocolThreadInvarianceTest, RoundBitwiseIdenticalAt125Threads) {
  // The silo fold, the flattened mask sweep, and the randomizer pipeline
  // all run on the pool; the round output must not depend on the thread
  // count.
  const int silos = 3, users = 6, dim = 5;
  auto in = MakeInputs(silos, users, dim, 61);
  std::vector<bool> mask(users, true);
  mask[2] = false;
  Vec ref;
  for (int threads : {1, 2, 5}) {
    ProtocolConfig config;
    config.paillier_bits = 512;
    config.n_max = 30;
    config.seed = 2024;
    config.num_threads = threads;
    PrivateWeightingProtocol protocol(config, silos, users);
    ASSERT_TRUE(protocol.Setup(in.histograms).ok());
    auto out = protocol.WeightingRound(1, in.deltas, in.noise, mask);
    ASSERT_TRUE(out.ok());
    if (threads == 1) {
      ref = std::move(out.value());
    } else {
      EXPECT_EQ(out.value(), ref) << "thread count " << threads;
    }
  }
}

TEST(ProtocolThreadInvarianceTest, OtModeBitwiseIdenticalAt125Threads) {
  // OT mode adds the flat (user × slot) sweeps — slot elements, payload
  // encryption, sender pads — each on its own Fork substream; outputs and
  // the hidden sampling mask must be schedule-independent.
  const int silos = 2, users = 4, dim = 3;
  auto in = MakeInputs(silos, users, dim, 73);
  std::vector<bool> ignored(users, true);
  Vec ref;
  std::vector<bool> ref_mask;
  for (int threads : {1, 2, 5}) {
    ProtocolConfig config;
    config.paillier_bits = 512;
    config.n_max = 30;
    config.seed = 3456;
    config.ot_slots = 4;
    config.ot_sample_rate = 0.5;
    config.ot_group_bits = 192;
    config.num_threads = threads;
    PrivateWeightingProtocol protocol(config, silos, users);
    ASSERT_TRUE(protocol.Setup(in.histograms).ok());
    auto out = protocol.WeightingRound(0, in.deltas, in.noise, ignored);
    ASSERT_TRUE(out.ok());
    if (threads == 1) {
      ref = std::move(out.value());
      ref_mask = protocol.last_ot_mask();
      Vec expect = PlaintextReference(in, ref_mask, dim);
      for (int d = 0; d < dim; ++d) EXPECT_NEAR(ref[d], expect[d], 1e-7);
    } else {
      EXPECT_EQ(out.value(), ref) << "thread count " << threads;
      EXPECT_EQ(protocol.last_ot_mask(), ref_mask)
          << "thread count " << threads;
    }
  }
}

TEST(ProtocolOverflowTest, Theorem4ConditionEnforced) {
  // Small modulus + large N_max: C_LCM alone dwarfs n/2 and Setup must
  // refuse (Theorem 4 condition (2)).
  ProtocolConfig config;
  config.paillier_bits = 128;
  config.n_max = 100;  // C_LCM(100) has ~140 bits >> 128-bit modulus
  PrivateWeightingProtocol protocol(config, 2, 2);
  auto status = protocol.Setup({{1, 1}, {1, 1}});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(ProtocolOtTest, PrivateSubsamplingHonorsHiddenMask) {
  ProtocolConfig config;
  config.paillier_bits = 512;
  config.n_max = 30;
  config.seed = 13;
  config.ot_slots = 4;
  config.ot_sample_rate = 0.5;  // 2 of 4 slots real
  config.ot_group_bits = 192;
  const int silos = 2, users = 5, dim = 3;
  PrivateWeightingProtocol protocol(config, silos, users);
  auto in = MakeInputs(silos, users, dim, 31);
  ASSERT_TRUE(protocol.Setup(in.histograms).ok());
  std::vector<bool> ignored(users, true);
  auto out = protocol.WeightingRound(0, in.deltas, in.noise, ignored);
  ASSERT_TRUE(out.ok());
  const auto& mask = protocol.last_ot_mask();
  ASSERT_EQ(mask.size(), static_cast<size_t>(users));
  Vec expect = PlaintextReference(in, mask, dim);
  for (int d = 0; d < dim; ++d) EXPECT_NEAR(out.value()[d], expect[d], 1e-7);
}

// Packing-feasible configuration: at 512-bit keys the slot width is driven
// by C_LCM(n_max) and pack_clip/precision, and n_max=8 / 1e-6 / clip 8
// leaves room for all of k in {2, 4, 8}.
ProtocolConfig PackedTestConfig(int pack_slots) {
  ProtocolConfig config;
  config.paillier_bits = 512;
  config.n_max = 8;
  config.precision = 1e-6;
  config.pack_clip = 8.0;
  config.pack_slots = pack_slots;
  config.seed = 909;
  return config;
}

TEST(ProtocolPackedTest, PackedRoundsBitwiseMatchUnpacked) {
  // dim = 5 is divisible by none of the slot counts, so every packed run
  // also exercises a partial tail group.
  const int silos = 2, users = 5, dim = 5;
  auto in = MakeInputs(silos, users, dim, 171);
  std::vector<bool> mask(users, true);
  mask[2] = false;
  Vec unpacked;
  for (int slots : {1, 2, 4, 8}) {
    PrivateWeightingProtocol protocol(PackedTestConfig(slots), silos, users);
    ASSERT_TRUE(protocol.Setup(in.histograms).ok());
    auto out = protocol.WeightingRound(0, in.deltas, in.noise, mask);
    ASSERT_TRUE(out.ok()) << "pack_slots " << slots;
    if (slots == 1) {
      unpacked = std::move(out.value());
      Vec expect = PlaintextReference(in, mask, dim);
      for (int d = 0; d < dim; ++d) {
        EXPECT_NEAR(unpacked[d], expect[d], 1e-4);
      }
    } else {
      // Same quantized integers flow through either layout, so the decoded
      // doubles are bitwise identical — not merely close.
      EXPECT_EQ(out.value(), unpacked) << "pack_slots " << slots;
    }
  }
}

TEST(ProtocolPackedTest, PackedRoundsAreThreadCountInvariant) {
  const int silos = 2, users = 5, dim = 6;
  auto in = MakeInputs(silos, users, dim, 172);
  std::vector<bool> mask(users, true);
  Vec ref;
  for (int threads : {1, 2, 5}) {
    ProtocolConfig config = PackedTestConfig(4);
    config.num_threads = threads;
    PrivateWeightingProtocol protocol(config, silos, users);
    ASSERT_TRUE(protocol.Setup(in.histograms).ok());
    auto out = protocol.WeightingRound(0, in.deltas, in.noise, mask);
    ASSERT_TRUE(out.ok());
    if (threads == 1) {
      ref = std::move(out.value());
    } else {
      EXPECT_EQ(out.value(), ref) << "thread count " << threads;
    }
  }
}

TEST(ProtocolPackedTest, PackedOtModeBitwiseMatchesUnpacked) {
  const int silos = 2, users = 4, dim = 5;
  auto in = MakeInputs(silos, users, dim, 173);
  std::vector<bool> ignored(users, true);
  Vec unpacked;
  std::vector<bool> unpacked_mask;
  for (int slots : {1, 4}) {
    ProtocolConfig config = PackedTestConfig(slots);
    config.ot_slots = 4;
    config.ot_sample_rate = 0.5;
    config.ot_group_bits = 192;
    PrivateWeightingProtocol protocol(config, silos, users);
    ASSERT_TRUE(protocol.Setup(in.histograms).ok());
    auto out = protocol.WeightingRound(0, in.deltas, in.noise, ignored);
    ASSERT_TRUE(out.ok());
    if (slots == 1) {
      unpacked = std::move(out.value());
      unpacked_mask = protocol.last_ot_mask();
    } else {
      // The OT transcript never touches the slot layout, so the hidden
      // mask and the aggregate both carry over bitwise.
      EXPECT_EQ(protocol.last_ot_mask(), unpacked_mask);
      EXPECT_EQ(out.value(), unpacked);
    }
  }
}

TEST(ProtocolPackedTest, InfeasiblePackingIsRejectedAtSetup) {
  // Default precision (1e-10) and clip at n_max=30 need ~86-bit slots;
  // eight of them cannot fit a 512-bit modulus and Setup must say so
  // instead of letting aggregation overflow slot boundaries.
  ProtocolConfig config;
  config.paillier_bits = 512;
  config.n_max = 30;
  config.seed = 910;
  config.pack_slots = 8;
  PrivateWeightingProtocol protocol(config, 2, 2);
  auto status = protocol.Setup({{1, 1}, {1, 1}});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(ProtocolTrainerTest, PrivatePathMatchesPlaintextEnhancedWeighting) {
  Rng rng(21);
  auto cd = MakeCreditcardLike(300, 150, rng);
  AllocationOptions alloc;
  ASSERT_TRUE(AllocateUsersAndSilos(cd.train, 8, 3, alloc, rng).ok());
  FederatedDataset fd(cd.train, cd.test, 8, 3);
  auto model = MakeMlp({30}, 2);
  FlConfig fl;
  fl.local_lr = 0.1;
  fl.global_lr = 5.0;
  fl.sigma = 5.0;
  fl.seed = 77;
  ExperimentConfig cfg;
  cfg.rounds = 2;
  ProtocolConfig pc;
  pc.paillier_bits = 512;
  pc.n_max = 200;
  pc.seed = 5;
  PrivateWeightingProtocol protocol(pc, 3, 8);
  std::vector<std::vector<int>> hist(3, std::vector<int>(8, 0));
  for (int s = 0; s < 3; ++s) {
    for (int u = 0; u < 8; ++u) hist[s][u] = fd.CountOf(s, u);
  }
  ASSERT_TRUE(protocol.Setup(hist).ok());

  UldpAvgOptions private_opt;
  private_opt.private_protocol = &protocol;
  UldpAvgTrainer private_trainer(fd, *model, fl, private_opt);
  auto private_trace = RunExperiment(private_trainer, *model, fd, cfg);
  ASSERT_TRUE(private_trace.ok());

  UldpAvgOptions plain_opt;
  plain_opt.weighting = WeightingStrategy::kEnhanced;
  UldpAvgTrainer plain_trainer(fd, *model, fl, plain_opt);
  auto plain_trace = RunExperiment(plain_trainer, *model, fd, cfg);
  ASSERT_TRUE(plain_trace.ok());

  EXPECT_NEAR(private_trace.value().back().test_loss,
              plain_trace.value().back().test_loss, 1e-6);
  EXPECT_NEAR(private_trace.value().back().utility,
              plain_trace.value().back().utility, 1e-9);
  EXPECT_NE(private_trainer.name().find("private"), std::string::npos);
}

}  // namespace
}  // namespace uldp
