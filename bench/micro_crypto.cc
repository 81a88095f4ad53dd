// Machine-readable micro benchmarks for the cryptographic substrate,
// focused on the Paillier fast path: cold-context operations (the static
// Paillier shim, which rebuilds Montgomery state per call) against the
// cached PaillierContext (long-lived contexts, sliding-window MontExp with
// a dedicated squaring path, CRT decryption, and the one-multiply
// randomizer-pipeline encryption), plus fixed-base exponentiation (per-base
// window tables, math/fixed_base.h) against the sliding-window path it
// amortizes away. Also measures the silo's short-exponent fold per user
// against the full-width per-user table fold it replaced, and fig11-style
// private weighting rounds at pack_slots 1/2/4/8, so the end-to-end
// protocol speedups land in the same artifact, plus the
// remaining substrate unit costs behind Figures 10/11 (BigInt mul/div,
// secure-aggregation masking serial vs pooled, SHA-256, the ChaCha stream,
// C_LCM).
//
// Emits BENCH_micro_crypto.json via bench_common. Modes:
//   default            — quick sweep (512/1024-bit keys), a few seconds
//   ULDP_BENCH_SMOKE=1 — CI smoke: 512-bit only, short measurement windows
//   ULDP_BENCH_SCALE=full — adds the 2048-bit point

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/table.h"
#include "core/private_weighting.h"
#include "crypto/chacha.h"
#include "crypto/paillier_ctx.h"
#include "crypto/secure_agg.h"
#include "crypto/sha256.h"
#include "math/fixed_base.h"
#include "math/primes.h"

namespace {

using namespace uldp;
using namespace uldp::bench;
using Clock = std::chrono::steady_clock;

bool SmokeMode() {
  const char* env = std::getenv("ULDP_BENCH_SMOKE");
  return env != nullptr && std::string(env) != "0";
}

/// Seconds per call: warm up once, then time batches of calls until the
/// measurement window is filled (and at least `min_iters` calls ran).
/// Batching keeps the clock reads off the per-op cost for nanosecond-scale
/// operations (ChaCha words, small BigInt ops).
double SecondsPerOp(const std::function<void()>& fn, double window_s,
                    int min_iters) {
  fn();  // warm-up (also primes any lazy state)
  // Grow the batch until one timed batch costs ~1ms, amortizing the timer.
  long batch = 1;
  double elapsed = 0.0;
  long iters = 0;
  for (;;) {
    auto t0 = Clock::now();
    for (long i = 0; i < batch; ++i) fn();
    elapsed += std::chrono::duration<double>(Clock::now() - t0).count();
    iters += batch;
    if (elapsed / iters * batch >= 1e-3) break;
    batch *= 8;
  }
  while (elapsed < window_s || iters < min_iters) {
    auto t0 = Clock::now();
    for (long i = 0; i < batch; ++i) fn();
    elapsed += std::chrono::duration<double>(Clock::now() - t0).count();
    iters += batch;
  }
  return elapsed / iters;
}

struct OpRow {
  std::string op;
  std::string mode;
  int bits;
  double seconds_per_op;
};

void RecordOp(Table& table, BenchJson& json, std::vector<OpRow>& rows,
            const std::string& op, const std::string& mode, int bits,
            double s_per_op) {
  rows.push_back({op, mode, bits, s_per_op});
  table.AddRow({op, mode, std::to_string(bits), FormatG(1.0 / s_per_op, 5),
                FormatG(s_per_op * 1e3, 4)});
  json.Add("ops_per_sec", 1.0 / s_per_op,
           {{"op", op}, {"mode", mode}, {"bits", std::to_string(bits)}});
}

double Find(const std::vector<OpRow>& rows, const std::string& op,
            const std::string& mode, int bits) {
  for (const auto& r : rows) {
    if (r.op == op && r.mode == mode && r.bits == bits) {
      return r.seconds_per_op;
    }
  }
  return 0.0;
}

/// One protocol round on a pack-feasible configuration (small n_max /
/// precision / clip so pack_slots up to 8 fits a 512-bit plaintext).
/// Returns wall seconds; `out` receives the aggregate so the caller can
/// assert every packing factor decodes bitwise identically.
double TimedPackedRound(int pack_slots, int users, int dim, Vec* out) {
  const int silos = 3;
  ProtocolConfig pc;
  pc.paillier_bits = 512;
  pc.n_max = 8;  // C_LCM = 840: 8 slots of guard-banded digits fit 512 bits
  pc.precision = 1e-6;
  pc.pack_clip = 8.0;
  pc.seed = 909;
  pc.pack_slots = pack_slots;
  PrivateWeightingProtocol protocol(pc, silos, users);
  Rng rng(23);
  std::vector<std::vector<int>> hist(silos, std::vector<int>(users, 0));
  for (int u = 0; u < users; ++u) {
    // Each user's records land in one silo, so totals stay <= n_max = 8.
    hist[static_cast<int>(rng.UniformInt(silos))][u] =
        1 + static_cast<int>(rng.UniformInt(4));
  }
  if (!protocol.Setup(hist).ok()) return -1.0;
  std::vector<std::vector<Vec>> deltas(silos, std::vector<Vec>(users));
  std::vector<Vec> noise(silos, Vec(dim));
  for (int s = 0; s < silos; ++s) {
    for (int u = 0; u < users; ++u) {
      if (hist[s][u] == 0) continue;
      deltas[s][u].resize(dim);
      for (double& v : deltas[s][u]) v = rng.Gaussian(0.0, 0.1);
    }
    for (double& v : noise[s]) v = rng.Gaussian(0.0, 0.1);
  }
  std::vector<bool> sampled(users, true);
  auto start = Clock::now();
  auto result = protocol.WeightingRound(0, deltas, noise, sampled);
  double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (!result.ok()) return -1.0;
  *out = std::move(result.value());
  return seconds;
}

/// Per-user seconds of one silo's fold over a chunk of `users` users at
/// `dim` model coordinates (`pack_slots` per ciphertext): SiloCore's
/// short-exponent fold against the full-width table fold it replaced —
/// per user one MakeMulPlaintextTable over Enc(B_inv(N_u)) and one
/// MulPlaintextWithTable per coordinate group with the full scalar
/// Encode(delta) * r_u * n_su * C_LCM mod n. The bench plays the server
/// with its own key, so it knows B(N_u) = r_u * N_u and with it the
/// reference scalar B(N_u) * n_su * (C_LCM / N_u); both accumulators must
/// then decrypt to the same plaintexts.
struct ShortFoldResult {
  double short_s = -1.0;
  double reference_s = -1.0;
  double speedup = -1.0;  // median of the per-repetition reference/short
  bool plaintext_equal = false;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Repetitions behind each gated timing ratio: one sample on a shared host
/// reads noise, so the gates take a min or a median over interleaved runs.
constexpr int kGateReps = 5;

ShortFoldResult ShortFoldSeries(int bits, int users, int dim, int pack_slots,
                                double window, int min_iters) {
  ShortFoldResult result;
  const int silos = 2;
  ProtocolConfig pc;
  pc.paillier_bits = bits;
  pc.n_max = 30;
  pc.seed = 31;
  pc.pack_slots = pack_slots;
  PaillierPublicKey pk;
  PaillierSecretKey sk;
  Rng keyrng(43);
  ThreadPool pool(1);
  if (!Paillier::GenerateKeyPair(bits, keyrng, &pk, &sk, &pool).ok()) {
    return result;
  }
  ProtocolParams params;
  params.config = pc;
  params.num_silos = silos;
  params.num_users = users;
  params.public_key = pk;
  if (!params.Derive().ok()) return result;
  Rng rng(37);
  std::vector<std::vector<int>> hist(silos, std::vector<int>(users));
  for (auto& row : hist) {
    for (int& count : row) count = 1 + static_cast<int>(rng.UniformInt(10));
  }
  std::vector<std::unique_ptr<SiloCore>> cores;
  std::vector<BigInt> directory;
  for (int s = 0; s < silos; ++s) {
    cores.push_back(std::make_unique<SiloCore>(params, s, hist[s]));
    directory.push_back(cores.back()->dh_key().public_key);
  }
  const BigInt seed = cores[0]->MakeSharedSeed();
  const BigInt& n = pk.n;
  std::vector<BigInt> blinded_totals(users, BigInt(0));
  for (auto& core : cores) {
    if (!core->ComputePairKeys(directory).ok()) return result;
    core->SetSharedSeed(seed);
    auto blinded = core->BlindHistogram(pool);
    if (!blinded.ok()) return result;
    for (int u = 0; u < users; ++u) {
      blinded_totals[u] = blinded_totals[u].ModAdd(blinded.value()[u], n);
    }
  }
  PaillierContext ctx(pk, sk);
  std::vector<BigInt> enc(users);
  for (int u = 0; u < users; ++u) {
    auto b_inv = blinded_totals[u].ModInverse(n);
    if (!b_inv.ok()) return result;
    enc[u] = ctx.Encrypt(b_inv.value(), rng).value();
  }
  std::vector<Vec> deltas(users, Vec(dim));
  for (Vec& delta : deltas) {
    for (double& v : delta) v = rng.Gaussian(0.0, 1.0);
  }

  // Reference scalars and encodings, prepared outside the timed loop.
  const size_t cdim = params.packed.PackedDim(dim);
  const size_t slots = static_cast<size_t>(params.packed.slots());
  std::vector<std::vector<BigInt>> scalars(users, std::vector<BigInt>(cdim));
  for (int u = 0; u < users; ++u) {
    const int total = hist[0][u] + hist[1][u];
    const BigInt user_scalar =
        blinded_totals[u]
            .ModMul(BigInt(static_cast<int64_t>(hist[0][u])), n)
            .ModMul((params.c_lcm / BigInt(static_cast<int64_t>(total)))
                        .Mod(n),
                    n);
    for (size_t g = 0; g < cdim; ++g) {
      auto e = params.packed.active()
                   ? params.packed.EncodeGroup(
                         deltas[u].data() + g * slots,
                         std::min(slots, static_cast<size_t>(dim) - g * slots))
                   : params.codec.Encode(deltas[u][g]);
      if (!e.ok()) return result;
      scalars[u][g] = e.value().ModMul(user_scalar, n);
    }
  }

  const SiloCore& silo = *cores[0];
  std::vector<BigInt> short_acc, reference_acc;
  bool fold_ok = true;
  auto short_fold = [&] {
    short_acc = SiloCore::NewCipherAccumulator(cdim);
    fold_ok = fold_ok && silo.AccumulateUsersChunk(enc, 0, users, deltas,
                                                   dim, &short_acc, pool)
                             .ok();
  };
  auto reference_fold = [&] {
    reference_acc = SiloCore::NewCipherAccumulator(cdim);
    for (int u = 0; u < users; ++u) {
      FixedBaseTable table = ctx.MakeMulPlaintextTable(enc[u], cdim);
      for (size_t g = 0; g < cdim; ++g) {
        reference_acc[g] = ctx.AddCiphertexts(
            reference_acc[g], ctx.MulPlaintextWithTable(table, scalars[u][g]));
      }
    }
  };
  // Interleaved so both folds of a repetition see the same host load.
  std::vector<double> short_s, reference_s, ratios;
  for (int rep = 0; rep < kGateReps; ++rep) {
    short_s.push_back(SecondsPerOp(short_fold, window, min_iters) / users);
    reference_s.push_back(SecondsPerOp(reference_fold, window, min_iters) /
                          users);
    ratios.push_back(reference_s.back() / short_s.back());
  }
  result.short_s = Median(short_s);
  result.reference_s = Median(reference_s);
  result.speedup = Median(ratios);
  result.plaintext_equal = fold_ok;
  for (size_t g = 0; g < cdim; ++g) {
    auto a = ctx.Decrypt(short_acc[g]);
    auto b = ctx.Decrypt(reference_acc[g]);
    result.plaintext_equal = result.plaintext_equal && a.ok() && b.ok() &&
                             a.value() == b.value();
  }
  return result;
}

}  // namespace

int main() {
  const bool smoke = SmokeMode();
  const double window = smoke ? 0.12 : 0.3;
  const int min_iters = smoke ? 3 : 5;
  std::vector<int> key_bits = smoke ? std::vector<int>{512}
                              : FullScale()
                                  ? std::vector<int>{512, 1024, 2048}
                                  : std::vector<int>{512, 1024};

  std::cout << "=== micro_crypto: Paillier fast path (cold static API vs "
               "cached PaillierContext)"
            << (smoke ? " [smoke]" : "") << " ===\n";
  BenchJson json("micro_crypto");
  Table table({"op", "mode", "bits", "ops_per_sec", "ms_per_op"});
  std::vector<OpRow> rows;

  for (int bits : key_bits) {
    // -- Raw modular exponentiation: rebuilt context vs cached context ----
    Rng rng(1000 + bits);
    BigInt m = BigInt::RandomBits(bits, rng);
    if (m.IsEven()) m = m + BigInt(1);
    BigInt base = BigInt::RandomBelow(m, rng);
    BigInt exp = BigInt::RandomBits(bits, rng);
    Montgomery mont(m);
    RecordOp(table, json, rows, "modexp", "cold", bits,
           SecondsPerOp([&] { base.ModExp(exp, m); }, window, min_iters));
    RecordOp(table, json, rows, "modexp", "cached", bits,
           SecondsPerOp([&] { mont.MontExp(base, exp); }, window, min_iters));
    // Fixed-base: per-base window table amortized over many exponentiations
    // of one base (the weighting loop's shape), vs the sliding-window
    // cached path above. The table build is reported separately so the
    // amortization break-even is visible in the artifact.
    FixedBaseTable fb_table(mont, base, bits, /*expected_uses=*/1024);
    if (FixedBaseExp(fb_table, exp) != mont.MontExp(base, exp)) {
      std::cerr << "BUG: fixed-base modexp disagrees with sliding window\n";
      return 1;
    }
    RecordOp(table, json, rows, "modexp", "fixed_base", bits,
           SecondsPerOp([&] { FixedBaseExp(fb_table, exp); }, window,
                        min_iters));
    RecordOp(table, json, rows, "fixed_base_table_build", "cached", bits,
           SecondsPerOp(
               [&] { FixedBaseTable t(mont, base, bits, 1024); }, window,
               min_iters));
    {
      double sliding = Find(rows, "modexp", "cached", bits);
      double fixed = Find(rows, "modexp", "fixed_base", bits);
      if (sliding > 0.0 && fixed > 0.0) {
        json.Add("speedup_fixed_base_vs_sliding_window", sliding / fixed,
                 {{"op", "modexp"}, {"bits", std::to_string(bits)}});
      }
    }

    // -- Paillier operations ---------------------------------------------
    PaillierPublicKey pk;
    PaillierSecretKey sk;
    Rng keyrng(42);
    if (!Paillier::GenerateKeyPair(bits, keyrng, &pk, &sk).ok()) {
      std::cerr << "keygen failed at " << bits << " bits\n";
      return 1;
    }
    PaillierContext ctx(pk, sk);
    BigInt msg = BigInt::RandomBelow(pk.n, rng);
    BigInt cipher = ctx.Encrypt(msg, rng).value();
    if (ctx.Decrypt(cipher).value() != Paillier::Decrypt(pk, sk, cipher).value()) {
      std::cerr << "BUG: CRT decryption disagrees with classic\n";
      return 1;
    }

    RecordOp(table, json, rows, "encrypt", "cold", bits,
           SecondsPerOp([&] { Paillier::Encrypt(pk, msg, rng).value(); },
                        window, min_iters));
    RecordOp(table, json, rows, "encrypt", "cached", bits,
           SecondsPerOp([&] { ctx.Encrypt(msg, rng).value(); }, window,
                        min_iters));
    // Randomizer pipeline: the plaintext-independent r^n precompute, and
    // the one-multiply hot path that consumes it.
    RecordOp(table, json, rows, "randomizer_precompute", "cached", bits,
           SecondsPerOp([&] { ctx.ComputeRandomizer(rng); }, window,
                        min_iters));
    BigInt r_n = ctx.ComputeRandomizer(rng);
    RecordOp(table, json, rows, "encrypt", "cached_pipeline", bits,
           SecondsPerOp([&] { ctx.EncryptWithRandomizer(msg, r_n).value(); },
                        window, min_iters));

    RecordOp(table, json, rows, "decrypt", "cold", bits,
           SecondsPerOp([&] { Paillier::Decrypt(pk, sk, cipher).value(); },
                        window, min_iters));
    RecordOp(table, json, rows, "decrypt", "cached", bits,
           SecondsPerOp([&] { ctx.Decrypt(cipher).value(); }, window,
                        min_iters));

    BigInt k = BigInt::RandomBelow(pk.n, rng);
    RecordOp(table, json, rows, "mul_plaintext", "cold", bits,
           SecondsPerOp([&] { Paillier::MulPlaintext(pk, cipher, k); },
                        window, min_iters));
    RecordOp(table, json, rows, "mul_plaintext", "cached", bits,
           SecondsPerOp([&] { ctx.MulPlaintext(cipher, k); }, window,
                        min_iters));
    FixedBaseTable mul_table =
        ctx.MakeMulPlaintextTable(cipher, /*expected_uses=*/1024);
    RecordOp(table, json, rows, "mul_plaintext", "fixed_base", bits,
           SecondsPerOp([&] { ctx.MulPlaintextWithTable(mul_table, k); },
                        window, min_iters));
    {
      double sliding = Find(rows, "mul_plaintext", "cached", bits);
      double fixed = Find(rows, "mul_plaintext", "fixed_base", bits);
      if (sliding > 0.0 && fixed > 0.0) {
        json.Add("speedup_fixed_base_vs_sliding_window", sliding / fixed,
                 {{"op", "mul_plaintext"}, {"bits", std::to_string(bits)}});
      }
    }

    // Headline speedups. Encryption is reported both ways: the consume
    // path (the one-multiply hot path Protocol 1 runs after the
    // randomizer pipeline fills, which overlaps other work on the pool)
    // and the amortized cost including the mandatory r^n precompute.
    for (const auto& [op, cached_mode] :
         std::vector<std::pair<std::string, std::string>>{
             {"modexp", "cached"},
             {"decrypt", "cached"},
             {"mul_plaintext", "cached"}}) {
      double cold = Find(rows, op, "cold", bits);
      double cached = Find(rows, op, cached_mode, bits);
      if (cold > 0.0 && cached > 0.0) {
        json.Add("speedup_cached_vs_cold", cold / cached,
                 {{"op", op}, {"bits", std::to_string(bits)}});
      }
    }
    double cold_enc = Find(rows, "encrypt", "cold", bits);
    double consume = Find(rows, "encrypt", "cached_pipeline", bits);
    double precompute = Find(rows, "randomizer_precompute", "cached", bits);
    if (cold_enc > 0.0 && consume > 0.0 && precompute > 0.0) {
      json.Add("speedup_cached_vs_cold", cold_enc / consume,
               {{"op", "encrypt_consume"}, {"bits", std::to_string(bits)}});
      json.Add("speedup_cached_vs_cold", cold_enc / (consume + precompute),
               {{"op", "encrypt_amortized"},
                {"bits", std::to_string(bits)}});
    }
  }
  // -- Substrate unit costs (the non-Paillier pieces of Figures 10/11) ----
  {
    Rng rng(7);
    BigInt a = BigInt::RandomBits(1024, rng);
    BigInt b = BigInt::RandomBits(1024, rng);
    BigInt wide = BigInt::RandomBits(2048, rng);
    RecordOp(table, json, rows, "bigint_mul", "-", 1024,
             SecondsPerOp([&] { a * b; }, window, min_iters));
    RecordOp(table, json, rows, "bigint_div", "-", 1024,
             SecondsPerOp([&] { wide % a; }, window, min_iters));

    BigInt q = GeneratePrime(256, rng);
    const int parties = 5;
    SecureAggregator agg(q, parties);
    std::vector<ChaChaRng::Key> keys(parties);
    for (int j = 0; j < parties; ++j) {
      keys[j] = ChaChaRng::DeriveKey("bench" + std::to_string(j));
    }
    RecordOp(table, json, rows, "secure_agg_mask_dim64", "-", 256,
             SecondsPerOp([&] { agg.MaskVector(0, keys, 1, 64); }, window,
                          min_iters));
    // Mask generation serial vs pooled (per-peer PRF streams on the global
    // pool; bitwise identical output).
    RecordOp(table, json, rows, "secure_agg_mask_dim256", "serial", 256,
             SecondsPerOp([&] { agg.MaskVector(0, keys, 2, 256); }, window,
                          min_iters));
    RecordOp(table, json, rows, "secure_agg_mask_dim256", "pooled", 256,
             SecondsPerOp(
                 [&] {
                   agg.MaskVector(0, keys, 2, 256, &ThreadPool::Global());
                 },
                 window, min_iters));

    std::string data(4096, 'x');
    RecordOp(table, json, rows, "sha256_4096B", "-", 0,
             SecondsPerOp([&] { Sha256(data); }, window, min_iters));
    ChaChaRng stream(ChaChaRng::DeriveKey("bench"), ChaChaRng::MakeNonce(1));
    RecordOp(table, json, rows, "chacha_u64", "-", 0,
             SecondsPerOp([&] { stream.NextUint64(); }, window, min_iters));
    RecordOp(table, json, rows, "lcm_up_to_100", "-", 0,
             SecondsPerOp([&] { LcmUpTo(100); }, window, min_iters));
  }

  // -- Silo fold per user: short exponents vs full-width tables ----------
  // The two P1 shapes at their 1024-bit key (smoke mode too: at 512 bits
  // a packed exponent is most of the modulus width): dim 4 unpacked
  // (~35-bit exponents) and 48 ciphertext coordinates at pack_slots 4
  // (~350-bit exponents), each in an 8-user chunk.
  {
    const int fold_bits = 1024;
    bool equal = true;
    for (const auto& [shape, dim, pack] :
         std::vector<std::tuple<std::string, int, int>>{
             {"dim4", 4, 1}, {"packed48", 192, 4}}) {
      const ShortFoldResult r =
          ShortFoldSeries(fold_bits, 8, dim, pack, window, min_iters);
      if (r.short_s <= 0.0 || r.reference_s <= 0.0) {
        std::cerr << "short-fold series failed at shape " << shape << "\n";
        return 1;
      }
      const std::string op = "silo_fold_per_user_" + shape;
      RecordOp(table, json, rows, op, "full_width_table", fold_bits,
               r.reference_s);
      RecordOp(table, json, rows, op, "short_exponent", fold_bits,
               r.short_s);
      json.Add("speedup_short_fold_vs_table", r.speedup,
               {{"shape", shape}, {"bits", std::to_string(fold_bits)}});
      equal = equal && r.plaintext_equal;
    }
    json.Add("short_fold_plaintext_equal", equal ? 1.0 : 0.0);
    if (!equal) {
      std::cerr << "BUG: short-exponent fold changed a plaintext\n";
      return 1;
    }
  }

  // -- Lim-Lee comb vs radix fixed-base layout ----------------------------
  // Same reuse budget, same base: the comb trades a few per-use squarings
  // for a much smaller table.
  {
    Rng rng(79);
    BigInt m = GeneratePrime(512, rng);
    Montgomery mont(m);
    BigInt base = BigInt::RandomBelow(m, rng);
    FixedBaseTable radix(mont, base, 512, 100000,
                         FixedBaseTable::Strategy::kRadix);
    FixedBaseTable comb(mont, base, 512, 100000,
                        FixedBaseTable::Strategy::kComb);
    BigInt exp = BigInt::RandomBits(512, rng);
    const BigInt want = mont.MontExp(base, exp);
    const bool comb_ok = radix.Exp(exp) == want && comb.Exp(exp) == want;
    RecordOp(table, json, rows, "modexp", "fixed_base_radix", 512,
             SecondsPerOp([&] { radix.Exp(exp); }, window, min_iters));
    RecordOp(table, json, rows, "modexp", "fixed_base_comb", 512,
             SecondsPerOp([&] { comb.Exp(exp); }, window, min_iters));
    const double radix_s = Find(rows, "modexp", "fixed_base_radix", 512);
    const double comb_s = Find(rows, "modexp", "fixed_base_comb", 512);
    json.Add("fixed_base_entries", static_cast<double>(radix.entries()),
             {{"layout", "radix"}, {"bits", "512"}});
    json.Add("fixed_base_entries", static_cast<double>(comb.entries()),
             {{"layout", "comb"}, {"bits", "512"}});
    json.Add("fixed_base_entries_ratio_radix_vs_comb",
             static_cast<double>(radix.entries()) /
                 static_cast<double>(comb.entries()),
             {{"bits", "512"}});
    json.Add("comb_vs_radix_speed_ratio", radix_s / comb_s,
             {{"bits", "512"}});
    json.Add("comb_bitwise_identical", comb_ok ? 1.0 : 0.0);
    if (!comb_ok) {
      std::cerr << "BUG: comb/radix fixed-base outputs diverge\n";
      return 1;
    }
  }
  table.Print(std::cout);

  // -- Protocol rounds (fig11-style, 3 silos): pack_slots 1 vs 2 vs 4 vs 8
  const int users = smoke ? 6 : 12;
  const int dim = smoke ? 12 : 48;
  std::cout << "\n=== Protocol round with ciphertext packing (pack-feasible "
               "config: n_max 8, precision 1e-6, clip 8) ===\n";
  // Each pack factor's time is its fastest of kGateReps rounds, the
  // factors interleaved within every repetition; every round's aggregate
  // must equal the first unpacked one.
  const std::vector<int> packs = {1, 2, 4, 8};
  std::vector<double> best_s(packs.size(),
                             std::numeric_limits<double>::infinity());
  std::vector<bool> same(packs.size(), true);
  Vec packed_ref;
  for (int rep = 0; rep < kGateReps; ++rep) {
    for (size_t i = 0; i < packs.size(); ++i) {
      Vec out;
      const double s = TimedPackedRound(packs[i], users, dim, &out);
      if (s < 0.0) {
        std::cerr << "packed protocol round failed at pack_slots "
                  << packs[i] << "\n";
        return 1;
      }
      if (rep == 0 && i == 0) packed_ref = out;
      same[i] = same[i] && out == packed_ref;
      best_s[i] = std::min(best_s[i], s);
    }
  }
  Table packed({"pack_slots", "round_seconds", "speedup",
                "bitwise_identical"});
  bool packed_identical = true;
  for (size_t i = 0; i < packs.size(); ++i) {
    const std::string ks = std::to_string(packs[i]);
    packed_identical = packed_identical && same[i];
    packed.AddRow({ks, FormatG(best_s[i], 4),
                   FormatG(best_s[0] / best_s[i], 3),
                   i == 0 ? "ref" : same[i] ? "yes" : "NO (BUG)"});
    json.Add("round_seconds_packed", best_s[i], {{"pack_slots", ks}});
    if (i > 0) {
      json.Add("packed_round_speedup", best_s[0] / best_s[i],
               {{"pack_slots", ks}});
    }
  }
  packed.Print(std::cout);
  json.Add("packed_bitwise_identical", packed_identical ? 1.0 : 0.0);
  if (!packed_identical) {
    std::cerr << "BUG: packing changed the round output\n";
    return 1;
  }

  std::cout << "\nThe fast path reuses per-key Montgomery contexts, "
               "decrypts via CRT, and consumes precomputed randomizers; the "
               "silo fold tables each user's short per-coordinate powers.\n";
  return 0;
}
