// The silo's short-exponent fold and its re-randomized output.
//
// The fold raises each user's Enc(B_inv) once to r_u * n_su * C_LCM and
// then to the centered signed Encode(delta) of every coordinate group, so
// every decoded aggregate must equal the exact integer the protocol
// defines, whatever the signs, zeros, chunking or packing. And because a
// short exponent would leave each output's Paillier randomness a short
// power of one per-user base, SiloCore::FinishRound multiplies in a fresh
// Enc(0): the server, which holds the secret key, must not find the
// relation r_1^(d_2) = r_2^(d_1) between two outputs of a one-user silo.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "core/private_weighting.h"
#include "core/protocol_party.h"
#include "crypto/paillier.h"

namespace uldp {
namespace {

constexpr int kSilos = 2;
constexpr int kUsers = 6;
constexpr int kDim = 5;
constexpr double kClip = 8.0;

// Inputs built to hit every sign case of the fold. With two-user chunks:
// chunk {0, 1} holds a zero delta and an all-negative one (only negative
// terms), chunk {2, 3} mixes signs (user 3's packed lanes alternate
// +-pack_clip), chunk {4, 5} holds an all-positive user and user 5, who
// has no records anywhere (histogram 0 at both silos, N_u = 0).
struct EdgeInputs {
  std::vector<std::vector<int>> histograms;  // [silo][user]
  std::vector<std::vector<Vec>> deltas;      // [silo][user]
  std::vector<Vec> noise;                    // [silo]
};

EdgeInputs MakeEdgeInputs() {
  EdgeInputs in;
  in.histograms = {{2, 1, 3, 2, 1, 0}, {1, 2, 0, 1, 3, 0}};
  const std::vector<Vec> rows = {
      {0.0, 0.0, 0.0, 0.0, 0.0},
      {-kClip, -0.5, -1.25, -3.0, -kClip},
      {-0.75, -kClip, -2.5, -0.125, -7.0},
      {kClip, -kClip, 1.0, -kClip, 3.25},
      {0.25, kClip, 4.5, 0.0, 6.0},
      {},
  };
  in.deltas.assign(kSilos, std::vector<Vec>(kUsers));
  for (int s = 0; s < kSilos; ++s) {
    for (int u = 0; u < kUsers; ++u) {
      if (in.histograms[s][u] > 0) in.deltas[s][u] = rows[u];
    }
  }
  // Silo 1's user 3 row differs so the two silos' terms do not mirror.
  in.deltas[1][3] = {-kClip, kClip, -1.0, kClip, -3.25};
  in.noise = {{0.125, -0.25, 0.0, 1.5, -kClip}, {-0.5, 0.0, 2.0, -1.0, 0.75}};
  return in;
}

// The centered integer units(x) = llround(x / P) both codecs encode.
BigInt Units(const FixedPointCodec& codec, const BigInt& n, double x) {
  BigInt e = codec.Encode(x).value();
  return e > (n >> 1) ? e - n : e;
}

// The exact aggregate the protocol defines, decoded with the protocol's
// own codec: sum_s sum_u units(delta) * n_su * (C_LCM / N_u) plus
// sum_s units(z_s) * C_LCM per coordinate. Any fold that decrypts to the
// same plaintext mod n decodes to these bits exactly.
Vec ExactOracle(const EdgeInputs& in, const BigInt& n, const BigInt& c_lcm,
                double precision) {
  const FixedPointCodec codec(n, precision);
  std::vector<int> totals(kUsers, 0);
  for (int s = 0; s < kSilos; ++s) {
    for (int u = 0; u < kUsers; ++u) totals[u] += in.histograms[s][u];
  }
  Vec out(kDim, 0.0);
  for (int d = 0; d < kDim; ++d) {
    BigInt sum(0);
    for (int s = 0; s < kSilos; ++s) {
      for (int u = 0; u < kUsers; ++u) {
        if (in.histograms[s][u] == 0) continue;
        sum = sum + Units(codec, n, in.deltas[s][u][d]) *
                        BigInt(static_cast<int64_t>(in.histograms[s][u])) *
                        (c_lcm / BigInt(static_cast<int64_t>(totals[u])));
      }
      sum = sum + Units(codec, n, in.noise[s][d]) * c_lcm;
    }
    out[d] = codec.DecodeCentered(sum, c_lcm);
  }
  return out;
}

// (pack_slots, stream_chunk_users).
class SiloFoldEdgeTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SiloFoldEdgeTest, SignedExponentEdgeCasesMatchExactOracle) {
  const auto [pack_slots, chunk_users] = GetParam();
  ProtocolConfig config;
  config.paillier_bits = 512;
  config.seed = 4242;
  config.pack_slots = pack_slots;
  config.stream_chunk_users = chunk_users;
  if (pack_slots > 1) {
    // Packing-feasible at 512 bits: four slots of n_max 8, precision 1e-6.
    config.n_max = 8;
    config.precision = 1e-6;
    config.pack_clip = kClip;
  } else {
    config.n_max = 30;  // default precision: ~35-bit exponents
  }
  const EdgeInputs in = MakeEdgeInputs();
  PrivateWeightingProtocol protocol(config, kSilos, kUsers);
  ASSERT_TRUE(protocol.Setup(in.histograms).ok());
  const Vec want = ExactOracle(in, protocol.public_key().n, protocol.c_lcm(),
                               config.precision);
  for (uint64_t round : {0, 1}) {
    auto out = protocol.WeightingRound(round, in.deltas, in.noise,
                                       std::vector<bool>(kUsers, true));
    ASSERT_TRUE(out.ok()) << out.status().message();
    EXPECT_EQ(out.value(), want) << "round " << round;
  }
  // The plaintext oracle (real-valued weights) agrees to the precision.
  std::vector<int> totals(kUsers, 0);
  for (int s = 0; s < kSilos; ++s) {
    for (int u = 0; u < kUsers; ++u) totals[u] += in.histograms[s][u];
  }
  for (int d = 0; d < kDim; ++d) {
    double plain = 0.0;
    for (int s = 0; s < kSilos; ++s) {
      for (int u = 0; u < kUsers; ++u) {
        if (in.histograms[s][u] == 0) continue;
        plain += static_cast<double>(in.histograms[s][u]) / totals[u] *
                 in.deltas[s][u][d];
      }
      plain += in.noise[s][d];
    }
    EXPECT_NEAR(want[d], plain, 1e-4) << "coordinate " << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, SiloFoldEdgeTest,
                         ::testing::Combine(::testing::Values(1, 4),
                                            ::testing::Values(0, 2)));

// A two-silo deployment around a key this test holds, so it can decrypt
// a silo's output the way the server could.
struct Deployment {
  PaillierPublicKey pk;
  PaillierSecretKey sk;
  std::vector<std::unique_ptr<SiloCore>> silos;
};

std::unique_ptr<Deployment> MakeDeployment(
    const ProtocolConfig& config,
    const std::vector<std::vector<int>>& histograms) {
  auto d = std::make_unique<Deployment>();
  Rng key_rng(config.seed);
  if (!Paillier::GenerateKeyPair(config.paillier_bits, key_rng, &d->pk,
                                 &d->sk)
           .ok()) {
    return nullptr;
  }
  ProtocolParams params;
  params.config = config;
  params.num_silos = static_cast<int>(histograms.size());
  params.num_users = static_cast<int>(histograms[0].size());
  params.public_key = d->pk;
  if (!params.Derive().ok()) return nullptr;
  std::vector<BigInt> directory;
  for (int s = 0; s < params.num_silos; ++s) {
    d->silos.push_back(std::make_unique<SiloCore>(params, s, histograms[s]));
    directory.push_back(d->silos.back()->dh_key().public_key);
  }
  const BigInt seed = d->silos[0]->MakeSharedSeed();
  for (auto& silo : d->silos) {
    if (!silo->ComputePairKeys(directory).ok()) return nullptr;
    silo->SetSharedSeed(seed);
  }
  return d;
}

ProtocolConfig SmallConfig() {
  ProtocolConfig config;
  config.paillier_bits = 512;
  config.n_max = 10;
  config.seed = 515;
  return config;
}

// The randomness part of c: c * (1+n)^(-m) mod n^2 with m = Dec(c).
BigInt Randomness(const Deployment& d, const BigInt& c) {
  const BigInt& n = d.pk.n;
  const BigInt m = Paillier::Decrypt(d.pk, d.sk, c).value();
  return c.ModMul(BigInt(1) + (n - m) * n, d.pk.n_squared);
}

// One round of one silo: fold, noise, masks, Enc(0).
std::vector<BigInt> SiloRound(const SiloCore& silo, uint64_t round,
                              const BigInt& enc, const Vec& delta,
                              const Vec& noise, ThreadPool& pool) {
  std::vector<BigInt> cipher = SiloCore::NewCipherAccumulator(delta.size());
  std::vector<Vec> deltas = {delta};
  EXPECT_TRUE(silo.AccumulateUsersChunk({enc}, 0, 1, deltas, delta.size(),
                                        &cipher, pool)
                  .ok());
  EXPECT_TRUE(silo.FinishRound(round, noise, &cipher, pool).ok());
  return cipher;
}

// The observer here holds the secret key but not config.seed. That is the
// only adversary the Enc(0) protects against today: the seed goes into
// ProtocolWireDigest, every party knows it, and a server that regenerates
// the Enc(0)s from their Fork substreams can divide them out and find
// the relation again. ROADMAP.md's per-party-secrets item closes that gap
// (docs/privacy.md).
TEST(SiloFoldPrivacyTest, OutputRandomnessIsNotAShortPowerOfOneBase) {
  const ProtocolConfig config = SmallConfig();
  auto d = MakeDeployment(config, {{3}, {2}});
  ASSERT_NE(d, nullptr);
  ThreadPool pool(2);
  Rng rng(99);
  const BigInt& n = d->pk.n;
  const BigInt& n2 = d->pk.n_squared;
  const BigInt enc =
      Paillier::Encrypt(d->pk, BigInt::RandomBelow(n, rng), rng).value();
  const Vec delta = {0.75, 1.5};
  const FixedPointCodec& codec = d->silos[0]->params().codec;
  const BigInt d1 = codec.Encode(delta[0]).value();
  const BigInt d2 = codec.Encode(delta[1]).value();

  // The test can see the leak: outputs that are short powers of one base
  // (times plaintext shifts, which carry no randomness) satisfy
  // r_1^(d_2) = r_2^(d_1).
  const BigInt base =
      Paillier::MulPlaintext(d->pk, enc, BigInt::RandomBelow(n, rng));
  const BigInt plain1 = Paillier::AddPlaintext(
      d->pk, Paillier::MulPlaintext(d->pk, base, d1), BigInt(12345));
  const BigInt plain2 = Paillier::AddPlaintext(
      d->pk, Paillier::MulPlaintext(d->pk, base, d2), BigInt(678));
  EXPECT_EQ(Randomness(*d, plain1).ModExp(d2, n2),
            Randomness(*d, plain2).ModExp(d1, n2));

  // SiloCore's outputs carry fresh Enc(0) randomness: no such relation.
  const std::vector<BigInt> out =
      SiloRound(*d->silos[0], 0, enc, delta, Vec(2, 0.0), pool);
  EXPECT_NE(Randomness(*d, out[0]).ModExp(d2, n2),
            Randomness(*d, out[1]).ModExp(d1, n2));
}

TEST(SiloFoldPrivacyTest, RoundsWithIdenticalInputsGiveFreshCiphertexts) {
  // The product over both silos cancels the round's masks, so without
  // re-randomization two rounds of identical inputs would ship the same
  // aggregate ciphertext.
  auto d = MakeDeployment(SmallConfig(), {{3}, {2}});
  ASSERT_NE(d, nullptr);
  ThreadPool pool(2);
  Rng rng(7);
  const BigInt enc =
      Paillier::Encrypt(d->pk, BigInt::RandomBelow(d->pk.n, rng), rng)
          .value();
  const std::vector<Vec> deltas = {{0.75, -1.5}, {-0.25, 2.0}};
  const std::vector<Vec> noise = {{0.5, 0.0}, {0.0, -0.125}};
  std::vector<BigInt> aggregate[2];
  for (uint64_t round : {0, 1}) {
    aggregate[round] = SiloCore::NewCipherAccumulator(2);
    for (int s = 0; s < kSilos; ++s) {
      const std::vector<BigInt> out = SiloRound(
          *d->silos[s], round, enc, deltas[s], noise[s], pool);
      for (size_t g = 0; g < 2; ++g) {
        aggregate[round][g] =
            Paillier::AddCiphertexts(d->pk, aggregate[round][g], out[g]);
      }
    }
  }
  for (size_t g = 0; g < 2; ++g) {
    EXPECT_NE(aggregate[0][g], aggregate[1][g]) << "coordinate " << g;
    EXPECT_EQ(Paillier::Decrypt(d->pk, d->sk, aggregate[0][g]).value(),
              Paillier::Decrypt(d->pk, d->sk, aggregate[1][g]).value())
        << "coordinate " << g;
  }
}

TEST(SiloFoldPrivacyTest, PrecomputedEncZerosMatchInlineOnes) {
  // Pipelined silos draw the round's Enc(0)s ahead of time from the same
  // Fork substreams; the shipped ciphertexts must not change.
  auto d = MakeDeployment(SmallConfig(), {{3}, {2}});
  ASSERT_NE(d, nullptr);
  auto twin = MakeDeployment(SmallConfig(), {{3}, {2}});
  ASSERT_NE(twin, nullptr);
  ThreadPool pool(2);
  Rng rng(8);
  const BigInt enc =
      Paillier::Encrypt(d->pk, BigInt::RandomBelow(d->pk.n, rng), rng)
          .value();
  const Vec delta = {-0.5, 0.25, 3.0};
  const Vec noise = {0.0, 0.5, -0.5};
  ASSERT_TRUE(twin->silos[1]->PrecomputeRoundMasks(4, 3, pool).ok());
  EXPECT_EQ(SiloRound(*twin->silos[1], 4, enc, delta, noise, pool),
            SiloRound(*d->silos[1], 4, enc, delta, noise, pool));
}

TEST(SiloFoldHostileTest, NonUnitWeightWithNegativeDeltaIsInvalidArgument) {
  // Only a negative exponent needs an inverse; an encrypted weight that is
  // not a unit mod n^2 must then fail by name instead of aborting.
  auto d = MakeDeployment(SmallConfig(), {{3}, {2}});
  ASSERT_NE(d, nullptr);
  ThreadPool pool(2);
  const SiloCore& silo = *d->silos[0];
  for (const BigInt& weight : {BigInt(0), d->pk.n, d->sk.p}) {
    std::vector<BigInt> cipher = SiloCore::NewCipherAccumulator(2);
    Status status = silo.AccumulateUsersChunk({weight}, 0, 1, {{0.5, -0.25}},
                                              2, &cipher, pool);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "weight " << weight.ToHex();
    EXPECT_NE(status.message().find("not a unit"), std::string::npos)
        << status.message();
  }
  // Positive exponents need no inverse and fold as before.
  std::vector<BigInt> cipher = SiloCore::NewCipherAccumulator(2);
  EXPECT_TRUE(silo.AccumulateUsersChunk({d->sk.p}, 0, 1, {{0.5, 0.25}}, 2,
                                        &cipher, pool)
                  .ok());
}

}  // namespace
}  // namespace uldp
