// Streaming-round scaling bench: runs the distributed Protocol 1 over
// ChannelTransport with every user in one enc-weight chunk and with
// bounded chunks at two user counts and reports, per configuration, the
// process's peak RSS, the largest wire frame of the weighting rounds, and
// a hash of the round aggregates. The firm gates
// (bench/baselines/stream_scaling.json):
//
//   - stream_bitwise_divergence == 0: chunked aggregates are bitwise
//     identical to one-chunk rounds at every user count;
//   - round_frame_bytes{mode=streamed} stays under the chunk ceiling at
//     every user count — no silo-cipher or enc-weight frame ever grows
//     with the cohort (the one_chunk rows grow linearly, for contrast);
//   - peak_rss_bytes ceilings (lower-is-better; loose at smoke scale,
//     where the process baseline dwarfs the per-user ciphertext pool).
//
// VmHWM is monotone within a process, so each configuration runs in a
// forked child that reports its own peak through a pipe; the parent only
// orchestrates and never touches protocol state.
//
// Emits BENCH_stream_scaling.json. ULDP_BENCH_SMOKE=1 shrinks the scale
// for CI; ULDP_BENCH_SCALE=full grows the user counts to where the RSS
// contrast is macroscopic.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define ULDP_HAS_FORK 1
#endif

#include "bench_common.h"
#include "net/demo.h"
#include "net/protocol_node.h"
#include "net/transport.h"

namespace uldp {
namespace {

using net::ChannelTransport;
using net::ProtocolServer;
using net::Transport;

constexpr uint64_t kInputSeed = 2026;

struct BenchScale {
  int silos = 2;
  int dim = 16;
  int rounds = 1;
  int paillier_bits = 512;
  int chunk_users = 16;
  int chunk_coords = 8;
  std::vector<int> user_counts;
};

/// What one forked configuration run reports back through the pipe.
struct ChildReport {
  uint64_t peak_rss = 0;       // VmHWM after the run, bytes
  uint64_t hash = 0;           // FNV-1a over the aggregate doubles
  uint64_t round_frame = 0;    // largest round-phase frame, wire bytes
  int32_t failed = 0;
};

ProtocolConfig MakeConfig(const BenchScale& scale, bool streamed) {
  ProtocolConfig config;
  config.paillier_bits = scale.paillier_bits;
  config.n_max = 30;
  config.seed = 99;
  if (streamed) {
    config.stream_chunk_users = scale.chunk_users;
    config.stream_chunk_coords = scale.chunk_coords;
  }
  return config;
}

uint64_t HashDoubles(uint64_t h, const Vec& values) {
  for (double v : values) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

/// One full protocol run over channel transports; fills `report`.
void RunConfig(const BenchScale& scale, int users, bool streamed,
               ChildReport* report) {
  ProtocolConfig config = MakeConfig(scale, streamed);
  std::vector<std::unique_ptr<Transport>> server_ends, silo_ends;
  for (int s = 0; s < scale.silos; ++s) {
    auto [a, b] = ChannelTransport::CreatePair();
    server_ends.push_back(std::move(a));
    silo_ends.push_back(std::move(b));
  }
  std::vector<std::thread> threads;
  std::vector<Status> silo_status(scale.silos, Status::Ok());
  for (int s = 0; s < scale.silos; ++s) {
    threads.emplace_back([&, s] {
      silo_status[s] = net::RunDemoSilo(config, s, scale.silos, users,
                                        scale.dim, kInputSeed, *silo_ends[s]);
    });
  }

  ProtocolServer server(config, scale.silos, users);
  // Every server-sent frame is received (and noted) by a silo end and
  // vice versa, so the silo-side transports see every frame of the run.
  std::vector<Transport*> taps;
  for (auto& end : silo_ends) taps.push_back(end.get());

  auto fail = [&](const Status& status) {
    std::cerr << "stream_scaling child (users " << users << ", "
              << (streamed ? "streamed" : "one_chunk")
              << "): " << status.ToString() << "\n";
    report->failed = 1;
  };
  for (auto& end : server_ends) {
    Status added = server.AddConnection(std::move(end));
    if (!added.ok()) return fail(added);
  }
  Status setup = server.RunSetup();
  if (!setup.ok()) return fail(setup);
  // Close the setup-phase frame window (join frames, DH directory,
  // blinded histograms — all legitimately O(users) or O(silos)); from
  // here on the largest-frame counters see only round traffic.
  for (Transport* tap : taps) tap->TakeLargestFrame();

  std::vector<bool> mask(users, true);
  uint64_t hash = 0xcbf29ce484222325ull;
  for (int r = 0; r < scale.rounds; ++r) {
    auto out = server.RunRound(static_cast<uint64_t>(r), mask);
    if (!out.ok()) return fail(out.status());
    hash = HashDoubles(hash, out.value());
  }
  Status shutdown = server.Shutdown();
  if (!shutdown.ok()) return fail(shutdown);
  for (auto& t : threads) t.join();
  for (const Status& s : silo_status) {
    if (!s.ok()) return fail(s);
  }
  report->hash = hash;
  for (Transport* tap : taps) {
    report->round_frame = std::max(report->round_frame,
                                   tap->TakeLargestFrame());
  }
  report->peak_rss = bench::PeakRssBytes();
}

/// Runs one configuration in a forked child so its VmHWM is its own.
/// Falls back to in-process (monotone RSS, still-correct hashes and frame
/// sizes) where fork is unavailable.
ChildReport RunConfigIsolated(const BenchScale& scale, int users,
                              bool streamed) {
  ChildReport report;
#if ULDP_HAS_FORK
  int fds[2];
  if (pipe(fds) == 0) {
    pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      RunConfig(scale, users, streamed, &report);
      ssize_t wrote = write(fds[1], &report, sizeof(report));
      _exit(wrote == static_cast<ssize_t>(sizeof(report)) ? 0 : 1);
    }
    if (pid > 0) {
      close(fds[1]);
      ssize_t got = read(fds[0], &report, sizeof(report));
      close(fds[0]);
      int wstatus = 0;
      waitpid(pid, &wstatus, 0);
      if (got != static_cast<ssize_t>(sizeof(report)) ||
          !WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
        report.failed = 1;
      }
      return report;
    }
    close(fds[0]);
    close(fds[1]);
  }
#endif
  RunConfig(scale, users, streamed, &report);
  return report;
}

int Run() {
  const bool smoke = std::getenv("ULDP_BENCH_SMOKE") != nullptr;
  BenchScale scale;
  scale.silos = 2;
  scale.dim = smoke ? 16 : bench::Scaled(32, 64);
  scale.rounds = 1;
  scale.paillier_bits = 512;
  scale.chunk_users = smoke ? 16 : bench::Scaled(32, 64);
  scale.chunk_coords = smoke ? 8 : bench::Scaled(16, 32);
  scale.user_counts = smoke ? std::vector<int>{32, 256}
                     : bench::FullScale() ? std::vector<int>{4096, 32768}
                                          : std::vector<int>{256, 2048};

  std::cout << "stream_scaling bench: " << scale.silos << " silos, dim "
            << scale.dim << ", " << scale.paillier_bits
            << "-bit Paillier, chunk " << scale.chunk_users << " users / "
            << scale.chunk_coords << " coords, users {";
  for (size_t i = 0; i < scale.user_counts.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << scale.user_counts[i];
  }
  std::cout << "}\n";

  bench::BenchJson json("stream_scaling");
  bool all_bitwise = true;
  std::vector<uint64_t> streamed_rss;
  for (int users : scale.user_counts) {
    ChildReport one_chunk = RunConfigIsolated(scale, users, false);
    ChildReport streamed = RunConfigIsolated(scale, users, true);
    if (one_chunk.failed != 0 || streamed.failed != 0) {
      std::cerr << "FATAL: a configuration run failed\n";
      return 1;
    }
    const bool bitwise = one_chunk.hash == streamed.hash;
    all_bitwise = all_bitwise && bitwise;
    streamed_rss.push_back(streamed.peak_rss);
    const std::string us = std::to_string(users);
    struct Row {
      const char* mode;
      const ChildReport* r;
    } rows[] = {{"one_chunk", &one_chunk}, {"streamed", &streamed}};
    for (const Row& row : rows) {
      json.Add("peak_rss_bytes", static_cast<double>(row.r->peak_rss),
               {{"mode", row.mode}, {"users", us}});
      json.Add("round_frame_bytes", static_cast<double>(row.r->round_frame),
               {{"mode", row.mode}, {"users", us}});
      std::cout << "  users " << users << " " << row.mode << ": peak RSS "
                << row.r->peak_rss / (1024.0 * 1024.0) << " MiB, largest "
                << "round frame " << row.r->round_frame << " B\n";
    }
    std::cout << "  users " << users << ": streamed aggregates "
              << (bitwise ? "bitwise-match" : "DIVERGE FROM")
              << " the one-chunk rounds\n";
  }
  json.Add("stream_bitwise_divergence", all_bitwise ? 0.0 : 1.0);
  if (streamed_rss.size() >= 2 && streamed_rss.front() > 0) {
    const double growth = static_cast<double>(streamed_rss.back()) /
                          static_cast<double>(streamed_rss.front());
    json.Add("rss_growth_ratio", growth, {{"mode", "streamed"}});
    std::cout << "  streamed peak RSS growth over "
              << scale.user_counts.back() / scale.user_counts.front()
              << "x users: " << growth << "x\n";
  }
  if (!all_bitwise) {
    std::cerr << "FATAL: streamed aggregates diverge from the "
                 "one-chunk rounds\n";
    return 1;
  }
  json.Write();
  std::cout << "wrote BENCH_stream_scaling.json\n";
  return 0;
}

}  // namespace
}  // namespace uldp

int main() { return uldp::Run(); }
