// Figure 11: private-weighting-protocol execution time vs model size
// (top row of the paper's figure) and vs number of users (bottom row),
// with 3 silos, 20 users, 16 parameters as the default point.
//
// The dominant cost — the silos' encrypted weighting — grows linearly in
// parameters x users, exactly the paper's observation. Quick scale:
// 512-bit keys, parameter sweep to 1024; full scale: 3072-bit keys and
// larger sweeps.
//
// This bench also measures the round engine's thread scaling: the same
// protocol round at 1 thread vs 4+ threads, asserting the outputs are
// bitwise identical (the engine's determinism contract) and reporting the
// wall-clock speedup. Results land in BENCH_fig11_protocol_scaling.json.

#include <chrono>
#include <iostream>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/table.h"
#include "core/private_weighting.h"

namespace {

using namespace uldp;
using namespace uldp::bench;

struct PhaseSeconds {
  double key_exchange;
  double histogram;
  double encrypt;
  double weighting;
  double aggregation;
  double decryption;
};

bool BuildWorkload(int silos, int users, int dim, uint64_t seed,
                   PrivateWeightingProtocol* protocol,
                   std::vector<std::vector<Vec>>* deltas,
                   std::vector<Vec>* noise) {
  Rng rng(seed);
  // Synthetic histograms: every user holds records in 1-2 silos.
  std::vector<std::vector<int>> hist(silos, std::vector<int>(users, 0));
  for (int u = 0; u < users; ++u) {
    int primary = static_cast<int>(rng.UniformInt(silos));
    hist[primary][u] = 1 + static_cast<int>(rng.UniformInt(20));
    int secondary = static_cast<int>(rng.UniformInt(silos));
    if (secondary != primary) {
      hist[secondary][u] = 1 + static_cast<int>(rng.UniformInt(10));
    }
  }
  if (!protocol->Setup(hist).ok()) return false;
  deltas->assign(silos, std::vector<Vec>(users));
  noise->assign(silos, Vec(dim));
  for (int s = 0; s < silos; ++s) {
    for (int u = 0; u < users; ++u) {
      if (hist[s][u] == 0) continue;
      (*deltas)[s][u].resize(dim);
      for (double& v : (*deltas)[s][u]) v = rng.Gaussian(0.0, 0.1);
    }
    for (double& v : (*noise)[s]) v = rng.Gaussian(0.0, 0.1);
  }
  return true;
}

bool RunOnce(int silos, int users, int dim, uint64_t seed, PhaseSeconds* out) {
  ProtocolConfig pc;
  pc.paillier_bits = Scaled(512, 3072);
  pc.n_max = 64;
  pc.seed = seed;
  PrivateWeightingProtocol protocol(pc, silos, users);
  std::vector<std::vector<Vec>> deltas;
  std::vector<Vec> noise;
  if (!BuildWorkload(silos, users, dim, seed, &protocol, &deltas, &noise)) {
    return false;
  }
  std::vector<bool> sampled(users, true);
  if (!protocol.WeightingRound(0, deltas, noise, sampled).ok()) return false;
  const ProtocolTimings& t = protocol.timings();
  *out = {t.key_exchange_s, t.histogram_s,    t.encrypt_weights_s,
          t.silo_weighting_s / silos,  // paper reports per-silo average
          t.aggregation_s,   t.decryption_s};
  return true;
}

void AddRows(Table& table, BenchJson& json, const std::string& sweep,
             const std::string& x, const PhaseSeconds& p) {
  auto row = [&](const char* phase, double seconds) {
    table.AddRow({sweep, x, phase, FormatG(seconds, 4)});
    json.Add("phase_seconds", seconds,
             {{"sweep", sweep}, {"x", x}, {"phase", phase}});
  };
  row("key_exchange", p.key_exchange);
  row("blinded_histograms", p.histogram);
  row("weight_encryption", p.encrypt);
  row("silo_weighting(avg/silo)", p.weighting);
  row("aggregation", p.aggregation);
  row("decryption", p.decryption);
}

/// One full weighting round (all phases) at the given thread count;
/// returns wall-clock seconds and the round output for the bitwise check.
double TimedRound(int silos, int users, int dim, uint64_t seed, int threads,
                  Vec* out) {
  ProtocolConfig pc;
  pc.paillier_bits = Scaled(512, 3072);
  pc.n_max = 64;
  pc.seed = seed;
  pc.num_threads = threads;
  PrivateWeightingProtocol protocol(pc, silos, users);
  std::vector<std::vector<Vec>> deltas;
  std::vector<Vec> noise;
  if (!BuildWorkload(silos, users, dim, seed, &protocol, &deltas, &noise)) {
    return -1.0;
  }
  std::vector<bool> sampled(users, true);
  auto start = std::chrono::steady_clock::now();
  auto result = protocol.WeightingRound(0, deltas, noise, sampled);
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (!result.ok()) return -1.0;
  *out = std::move(result.value());
  return seconds;
}

}  // namespace

int main() {
  std::cout << "=== Figure 11: protocol scaling (3 silos, Paillier "
            << Scaled(512, 3072) << "-bit) ===\n";
  BenchJson json("fig11_protocol_scaling");
  Table table({"sweep", "x", "phase", "seconds"});

  // Top: parameter-size sweep at 20 users.
  std::vector<int> dims = Scaled(0, 1) != 0
                              ? std::vector<int>{16, 64, 256, 1024, 4096}
                              : std::vector<int>{16, 64, 256, 1024};
  for (int dim : dims) {
    PhaseSeconds p{};
    if (RunOnce(3, 20, dim, 1100 + dim, &p)) {
      AddRows(table, json, "params(users=20)", std::to_string(dim), p);
    }
  }
  // Bottom: user-count sweep at 16 parameters.
  for (int users : {10, 20, 30, 40}) {
    PhaseSeconds p{};
    if (RunOnce(3, users, 16, 1200 + users, &p)) {
      AddRows(table, json, "users(params=16)", std::to_string(users), p);
    }
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape (paper): silo weighting time grows "
               "linearly with parameter count and with users; aggregation "
               "grows with parameters; key exchange is constant.\n";

  // --- Thread scaling of one full protocol round ---------------------------
  // 4 silos so the silo-parallel phases have 4-way work; dim large enough
  // that the encrypted weighting dominates.
  const int silos = 4, users = Scaled(12, 20), dim = Scaled(192, 1024);
  const int cores = ThreadPool::DefaultThreadCount();
  const int parallel_threads = cores < 4 ? 4 : cores;
  std::cout << "\n=== Protocol round thread scaling (silos=" << silos
            << ", users=" << users << ", params=" << dim
            << ", hardware threads=" << cores << ") ===\n";
  Table scaling({"threads", "round_seconds", "speedup_vs_serial",
                 "bitwise_identical"});
  Vec serial_out;
  double serial_s = TimedRound(silos, users, dim, 4242, 1, &serial_out);
  if (serial_s >= 0.0) {
    scaling.AddRow({"1", FormatG(serial_s, 4), "1.0", "ref"});
    json.Add("round_seconds", serial_s, {{"threads", "1"}});
    for (int threads : {2, parallel_threads}) {
      Vec parallel_out;
      double par_s = TimedRound(silos, users, dim, 4242, threads,
                                &parallel_out);
      if (par_s < 0.0) continue;
      bool identical = parallel_out == serial_out;
      scaling.AddRow({std::to_string(threads), FormatG(par_s, 4),
                      FormatG(serial_s / par_s, 3),
                      identical ? "yes" : "NO (BUG)"});
      json.Add("round_seconds", par_s,
               {{"threads", std::to_string(threads)}});
      json.Add("speedup_vs_serial", serial_s / par_s,
               {{"threads", std::to_string(threads)}});
      json.Add("bitwise_identical", identical ? 1.0 : 0.0,
               {{"threads", std::to_string(threads)}});
    }
  }
  scaling.Print(std::cout);
  std::cout << "\nSpeedup tracks physical cores (silos and coordinates "
               "claimed one index at a time by every pool thread); "
               "identical outputs are the engine's determinism contract, "
               "not an accident of scheduling.\n";
  return 0;
}
