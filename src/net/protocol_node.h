// Message-driven Protocol 1 endpoints: a ProtocolServer that drives setup
// and weighting rounds over one Transport per silo, and a SiloClient that
// serves a silo's side of the protocol until shutdown. Both are thin
// drivers over the same ServerCore/SiloCore phase logic the in-process
// simulation uses (core/protocol_party.h), so a distributed run on any
// transport produces bitwise-identical aggregates to
// PrivateWeightingProtocol on the same seed and inputs.
//
// Message flow (client perspective):
//
//   -> Join                      (silo id, cohort shape, config digest)
//   <- SetupParams               (Paillier n; OT group)
//   -> DhPublicKey               <- DhDirectory
//   silo 0: -> SeedShare x(N-1)  others: <- SeedShare   (server relays)
//   -> BlindedHistogram          <- SetupAck
//   per round:
//     OT off:  <- StreamBegin{kEncWeights}
//              (<- StreamChunk  -> StreamAck) per user chunk
//     OT on:   silo 0: <- OtSender -> OtReceiver <- OtSlots
//                      -> WeightRelay x(N-1)
//              others: <- WeightRelay               (server relays)
//     -> StreamBegin{kSiloCipher}
//     (-> StreamChunk  <- StreamAck) per coordinate chunk
//     <- RoundResult
//   <- Shutdown
//
// Every round streams through chunked frames with windowed-credit flow
// control (net/stream.h). The server encrypts weights one user chunk at a
// time (config.stream_chunk_users; 0 = one chunk holding every user) and
// discards each chunk once acked; silos fold each chunk into their cipher
// accumulator on arrival (SiloCore::AccumulateUsersChunk; an OT round's
// fetched vector folds as one chunk) and upload the masked cipher in
// coordinate chunks the server folds straight into the aggregate product
// — so a round's peak resident ciphertexts are O(chunk), independent of
// the user count, and any chunking yields bitwise-identical aggregates.
//
// All server-side receives run through a FrameMux (net/mux.h): over TCP
// a few epoll event-loop threads serve every connection, and mux
// shutdown interrupts all transports and joins its threads, so a silo
// hanging mid-stream can never leave a reader blocked after FailAll.
//
// Fatal errors travel as Error frames in either direction, so the peer
// reports the real Status instead of hanging up.

#ifndef ULDP_NET_PROTOCOL_NODE_H_
#define ULDP_NET_PROTOCOL_NODE_H_

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "core/protocol_party.h"
#include "fl/session.h"
#include "net/messages.h"
#include "net/mux.h"
#include "net/transport.h"
#include "nn/tensor.h"

namespace uldp {
namespace net {

/// Wire traffic and wall time of one server-side protocol phase,
/// accumulated across rounds (the bench's bytes-on-the-wire source).
struct NetPhaseStats {
  std::string phase;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  double seconds = 0.0;
};

class ProtocolServer {
 public:
  ProtocolServer(const ProtocolConfig& config, int num_silos, int num_users);
  ~ProtocolServer();

  /// Performs the Join handshake on a freshly connected transport and
  /// registers it under the silo id the client announced. Rejects
  /// duplicate ids, out-of-range ids, and config-digest mismatches (the
  /// client receives an Error frame explaining why). Blocks until the
  /// join frame arrives; to keep a connected-but-silent peer from
  /// stalling the accept loop, set a recv deadline on the transport first
  /// (TcpTransport::SetRecvTimeout — the CLI's --net-timeout does this)
  /// so the handshake fails with DeadlineExceeded instead of hanging.
  Status AddConnection(std::unique_ptr<Transport> transport);
  int connected_silos() const;

  /// Drives setup (a)-(f) over the registered transports. Requires every
  /// silo connected. On failure every silo is told (Error frame) so no
  /// client is left blocked in Recv.
  Status RunSetup();

  /// Drives one weighting round; returns the decrypted aggregate (which
  /// is also broadcast to the silos). `user_sampled` is ignored in OT
  /// mode, exactly like the in-process WeightingRound. On failure every
  /// silo is told (Error frame) so no client is left blocked in Recv.
  ///
  /// With config.pipeline set (and OT off), round r+1's first enc-weight
  /// chunk is precomputed on a background thread while round r's silo
  /// ciphers are gathered and aggregated — the randomizers come from the
  /// same Fork(round, user) substreams either way, so pipelined and
  /// lockstep runs are bitwise identical, and only one chunk of
  /// ciphertexts is ever resident ahead. The prefetch assumes the sampling
  /// mask is unchanged; RunRound discards a mismatched prefetch, encrypts
  /// inline, and stops speculating after repeated misses (a driver that
  /// re-samples every round would otherwise waste an encryption sweep per
  /// round).
  ///
  /// The server reads the silos' cipher streams in a plain loop (the
  /// FrameMux receives from all of them concurrently) and folds each
  /// streamed chunk into one running product as it is read
  /// (ServerCore::AccumulateSiloCipherRange). The product is exact, so the
  /// fold order never changes the aggregate.
  Result<Vec> RunRound(uint64_t round, const std::vector<bool>& user_sampled);

  /// Encrypted-weight rounds served from the pipeline prefetch.
  uint64_t prefetch_hits() const { return prefetch_hits_.value(); }

  /// Tells every silo the run is over; their Run() loops return Ok.
  Status Shutdown();

  const std::vector<NetPhaseStats>& phase_stats() const { return stats_; }
  uint64_t total_bytes_sent() const;
  uint64_t total_bytes_received() const;

  /// The server's session view (fl/session.h): the fixed cohort's
  /// membership rows and the weighting-round counter. Protocol 1 keeps a
  /// static membership, so rows activate at registration and never churn.
  const SessionState& session() const { return session_; }

 private:
  Status RunSetupInternal();
  Result<Vec> RunRoundInternal(uint64_t round,
                               const std::vector<bool>& user_sampled);
  /// Enc-weight distribution (OT off): encrypts one user chunk at a time
  /// (chunk 0 from the pipeline prefetch when it matches), broadcasts it,
  /// and keeps at most StreamWindow(config) chunks unacknowledged per silo
  /// before the chunk buffer is dropped. A pipelined server starts the
  /// next round's prefetch once the last chunk is out.
  Status StreamEncWeights(uint64_t round,
                          const std::vector<bool>& user_sampled);
  /// Reads one silo's masked cipher stream, acking each coordinate chunk,
  /// and folds it into `product`. Silo 0 fixes `*dim` and sizes
  /// `product`; later silos must announce the same model dimension.
  Status GatherSiloCipher(int silo, uint64_t round,
                          std::vector<BigInt>* product, uint32_t* dim);
  /// Joins a pending first-chunk prefetch; returns its ciphertexts when it
  /// matches (round, mask) and was clean, null otherwise.
  std::unique_ptr<std::vector<BigInt>> TakePrefetch(
      uint64_t round, const std::vector<bool>& user_sampled);
  /// Starts encrypting round `round`'s first enc-weight chunk on a
  /// background thread (runs serially there — the main pool keeps driving
  /// the live round).
  void StartPrefetch(uint64_t round, const std::vector<bool>& user_sampled);
  Status SendTo(int silo, const Frame& frame);
  /// Receives the next frame from `silo`, turning Error frames into the
  /// Status they carry.
  Result<Frame> RecvFrom(int silo);
  Status Broadcast(const Frame& frame);
  /// Best-effort: tell every silo the run failed so their loops exit.
  void FailAll(const Status& status);
  void BeginPhase();
  void EndPhase(const std::string& name);

  ProtocolConfig config_;
  int num_silos_;
  int num_users_;
  ServerCore core_;
  SessionState session_;
  PoolHandle pool_;
  std::vector<std::unique_ptr<Transport>> conns_;  // [silo id]
  /// Receive front end over all connections, created when RunSetup first
  /// sees the full cohort (join handshakes use blocking Recv before
  /// that). FailAll and Shutdown tear it down — interrupt + join — so no
  /// receive thread outlives a failed run.
  std::unique_ptr<FrameMux> mux_;
  bool setup_done_ = false;
  std::vector<NetPhaseStats> stats_;
  uint64_t phase_sent_start_ = 0;
  uint64_t phase_received_start_ = 0;
  double phase_time_start_ = 0.0;

  // Pipeline prefetch state (config_.pipeline). The prefetch thread runs
  // EncryptWeightsRange on pool_, touching only plaintext-independent
  // randomizer state, while the main thread's concurrent work on the
  // round is read-only w.r.t. that state; the join in TakePrefetch is the
  // happens-before edge before anyone reads the result.
  std::thread prefetch_thread_;
  uint64_t prefetch_round_ = 0;
  std::vector<bool> prefetch_mask_;
  Status prefetch_status_ = Status::Ok();
  std::vector<BigInt> prefetch_enc_;
  /// Registry-backed (net.server.prefetch_hits) so metrics snapshots
  /// report it; prefetch_hits() reads this instance exactly as before.
  obs::Counter prefetch_hits_{"net.server.prefetch_hits"};
  /// Consecutive discarded prefetches; at the cap the speculation is
  /// disabled (a per-round-resampling driver can never hit it).
  static constexpr int kMaxPrefetchMisses = 2;
  int prefetch_misses_ = 0;
};

class SiloClient {
 public:
  /// `histogram[u]` = n_{silo_id, u}: this silo's private input.
  SiloClient(const ProtocolConfig& config, int silo_id, int num_silos,
             int num_users, std::vector<int> histogram);

  /// Provides the round inputs: `deltas` (one Vec per user, empty when the
  /// user has no records here) and this silo's noise vector.
  using RoundInput = std::function<Status(
      uint64_t round, std::vector<Vec>* deltas, Vec* noise)>;
  /// Observes each round's broadcast aggregate (the global model update).
  using RoundResultFn =
      std::function<void(uint64_t round, const Vec& aggregate)>;

  /// Serves the protocol over `transport` until Shutdown (returns Ok) or a
  /// fatal error (returned; also reported to the server as an Error frame
  /// on a best-effort basis).
  Status Run(Transport& transport, const RoundInput& input,
             const RoundResultFn& on_result = nullptr);

 private:
  Status RunLoop(Transport& transport, const RoundInput& input,
                 const RoundResultFn& on_result);
  /// OT weight delivery, receiver silo: runs the OT exchange, relays the
  /// fetched vector to the peers, and returns it.
  Result<std::vector<BigInt>> HandleOtRound(Transport& transport,
                                            uint64_t round,
                                            const OtSenderMsg& sender_msg);
  /// OT weight delivery, other silos: decrypts the relayed vector.
  Result<std::vector<BigInt>> HandleWeightRelay(const WeightRelayMsg& relay);
  /// One weighting round from its first frame: folds the enc-weight
  /// chunks of a kEncWeights stream as they arrive (or, in OT mode, the
  /// fetched vector as one chunk), then FinishRound, the cipher upload and
  /// the round result. Joins the premask prefetch on `*premask` before
  /// FinishRound and, when pipelining, starts the next round's right
  /// after it.
  Status HandleRound(Transport& transport, const Frame& first,
                     const RoundInput& input, const RoundResultFn& on_result,
                     std::thread* premask);
  /// Uploads this silo's masked cipher as a chunked kSiloCipher stream.
  Status UploadCipherStream(Transport& transport, uint64_t round,
                            size_t model_dim, std::vector<BigInt> cipher);

  ProtocolConfig config_;
  int silo_id_;
  int num_silos_;
  int num_users_;
  std::vector<int> histogram_;
  /// Runs the fold and FinishRound, and also the pipeline prefetch, whose
  /// thread calls PrecomputeRoundMasks concurrently with the main
  /// thread's fold. Each ParallelFor caller runs only its own call's
  /// items, so neither call waits on the other, and the next round's
  /// Enc(0)s spread over every worker the fold leaves idle.
  PoolHandle pool_;
  std::unique_ptr<SiloCore> core_;  // built after SetupParams arrives
};

}  // namespace net
}  // namespace uldp

#endif  // ULDP_NET_PROTOCOL_NODE_H_
