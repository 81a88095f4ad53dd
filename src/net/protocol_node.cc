#include "net/protocol_node.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "net/stream.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace uldp {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

double NowSeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Static trace-span names for the server's wire phases (the trace buffer
/// stores pointers, not copies).
const char* PhaseSpanName(const std::string& name) {
  if (name == "setup") return "proto.phase.setup";
  if (name == "enc_weights") return "proto.phase.enc_weights";
  if (name == "silo_ciphers") return "proto.phase.silo_ciphers";
  if (name == "aggregate") return "proto.phase.aggregate";
  return "proto.phase";
}

/// Joins an owned prefetch thread on every exit path.
struct ThreadJoiner {
  std::thread t;
  ~ThreadJoiner() { Join(); }
  void Join() {
    if (t.joinable()) t.join();
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// ProtocolServer

ProtocolServer::ProtocolServer(const ProtocolConfig& config, int num_silos,
                               int num_users)
    : config_(config),
      num_silos_(num_silos),
      num_users_(num_users),
      core_(config, num_silos, num_users),
      pool_(config.num_threads),
      conns_(num_silos) {}

ProtocolServer::~ProtocolServer() {
  if (prefetch_thread_.joinable()) prefetch_thread_.join();
  if (mux_ != nullptr) mux_->Shutdown();
}

std::unique_ptr<std::vector<BigInt>> ProtocolServer::TakePrefetch(
    uint64_t round, const std::vector<bool>& user_sampled) {
  if (!prefetch_thread_.joinable()) return nullptr;
  prefetch_thread_.join();
  if (!prefetch_status_.ok() || prefetch_round_ != round ||
      prefetch_mask_ != user_sampled) {
    // A failed or mismatched prefetch is discarded, never an error: the
    // caller recomputes inline with the identical substreams. Repeated
    // mask mismatches mean the driver re-samples every round (Algorithm 4
    // Poisson sampling) — the same-mask speculation can never hit, so
    // StartPrefetch stops speculating instead of burning an encryption
    // sweep per round.
    ++prefetch_misses_;
    return nullptr;
  }
  prefetch_misses_ = 0;
  prefetch_hits_.Add(1);
  return std::make_unique<std::vector<BigInt>>(std::move(prefetch_enc_));
}

void ProtocolServer::StartPrefetch(uint64_t round,
                                   const std::vector<bool>& user_sampled) {
  ULDP_CHECK(!prefetch_thread_.joinable());
  if (prefetch_misses_ >= kMaxPrefetchMisses) return;
  prefetch_round_ = round;
  prefetch_mask_ = user_sampled;
  prefetch_thread_ = std::thread([this] {
    obs::TraceSpan span("proto.prefetch_enc", "round",
                        static_cast<int64_t>(prefetch_round_));
    auto enc = core_.EncryptWeightsRange(
        prefetch_round_, prefetch_mask_, 0,
        StreamChunkUsers(config_, num_users_), *pool_);
    if (enc.ok()) {
      prefetch_enc_ = std::move(enc.value());
      prefetch_status_ = Status::Ok();
    } else {
      prefetch_status_ = enc.status();
    }
  });
}

int ProtocolServer::connected_silos() const {
  int n = 0;
  for (const auto& c : conns_) n += c != nullptr ? 1 : 0;
  return n;
}

Status ProtocolServer::SendTo(int silo, const Frame& frame) {
  return conns_[silo]->Send(frame);
}

Result<Frame> ProtocolServer::RecvFrom(int silo) {
  if (mux_ == nullptr) {
    return Status::FailedPrecondition("receive mux not started");
  }
  auto frame = mux_->RecvFrom(silo);
  if (!frame.ok()) return frame.status();
  if (frame.value().type == static_cast<uint16_t>(MessageType::kError)) {
    return StatusFromErrorFrame(frame.value(),
                                "silo " + std::to_string(silo));
  }
  return frame;
}

Status ProtocolServer::Broadcast(const Frame& frame) {
  // Every silo gets the frame even after a failed send; the first error
  // wins. Sends run in this plain loop: on the pool a send blocked on a
  // slow peer would only hold a worker idle (a ParallelFor caller never
  // runs another call's items), with nothing to parallelize.
  Status first = Status::Ok();
  for (const auto& conn : conns_) {
    Status status = conn->Send(frame);
    if (first.ok()) first = status;
  }
  return first;
}

void ProtocolServer::FailAll(const Status& status) {
  obs::MetricsRegistry::Global().AddCounter("net.server.fail_all", 1);
  Frame frame = MakeErrorFrame(status);
  for (const auto& conn : conns_) {
    if (conn != nullptr) conn->Send(frame);  // best effort
  }
  // Interrupt every connection and join the receive threads: a silo that
  // hangs mid-stream must not leave a reader blocked past the failure.
  if (mux_ != nullptr) mux_->Shutdown();
}

uint64_t ProtocolServer::total_bytes_sent() const {
  uint64_t total = 0;
  for (const auto& c : conns_) {
    if (c != nullptr) total += c->bytes_sent();
  }
  return total;
}

uint64_t ProtocolServer::total_bytes_received() const {
  uint64_t total = 0;
  for (const auto& c : conns_) {
    if (c != nullptr) total += c->bytes_received();
  }
  return total;
}

void ProtocolServer::BeginPhase() {
  phase_sent_start_ = total_bytes_sent();
  phase_received_start_ = total_bytes_received();
  phase_time_start_ = NowSeconds();
}

void ProtocolServer::EndPhase(const std::string& name) {
  NetPhaseStats* entry = nullptr;
  for (auto& s : stats_) {
    if (s.phase == name) {
      entry = &s;
      break;
    }
  }
  if (entry == nullptr) {
    stats_.push_back(NetPhaseStats{name, 0, 0, 0.0});
    entry = &stats_.back();
  }
  entry->bytes_sent += total_bytes_sent() - phase_sent_start_;
  entry->bytes_received += total_bytes_received() - phase_received_start_;
  const double seconds = NowSeconds() - phase_time_start_;
  entry->seconds += seconds;
  // Mirror each phase into the telemetry layer: a latency histogram in the
  // registry and one complete trace event spanning the phase (BeginPhase /
  // EndPhase are not lexically scoped, so no TraceSpan here).
  const uint64_t dur_ns = static_cast<uint64_t>(seconds * 1e9);
  obs::MetricsRegistry::Global().RecordHistogram(
      "net.server.phase_ns." + name, dur_ns);
  obs::TraceBuffer& trace = obs::TraceBuffer::Global();
  if (trace.enabled()) {
    trace.Record(PhaseSpanName(name), obs::NowNs() - dur_ns, dur_ns);
  }
}

Status ProtocolServer::AddConnection(std::unique_ptr<Transport> transport) {
  auto frame = transport->Recv();
  if (!frame.ok()) return frame.status();
  if (frame.value().type == static_cast<uint16_t>(MessageType::kError)) {
    return StatusFromErrorFrame(frame.value(), "joining silo");
  }
  auto join_or = FromFrame<JoinMsg>(frame.value());
  if (!join_or.ok()) return join_or.status();
  const JoinMsg& join = join_or.value();

  // All id comparisons stay unsigned: a hostile 2^31-range value must not
  // wrap negative past a ranged check and reach a vector index.
  Status verdict = Status::Ok();
  if (join.num_silos != static_cast<uint32_t>(num_silos_) ||
      join.num_users != static_cast<uint32_t>(num_users_)) {
    verdict = Status::InvalidArgument(
        "silo announced cohort " + std::to_string(join.num_silos) + "x" +
        std::to_string(join.num_users) + ", server expects " +
        std::to_string(num_silos_) + "x" + std::to_string(num_users_));
  } else if (join.config_digest !=
             ProtocolWireDigest(config_, num_silos_, num_users_)) {
    verdict = Status::InvalidArgument(
        "protocol config digest mismatch: silo and server were started "
        "with different parameters");
  } else if (join.silo_id >= static_cast<uint32_t>(num_silos_)) {
    verdict = Status::InvalidArgument("silo id " +
                                      std::to_string(join.silo_id) +
                                      " out of range");
  } else if (conns_[join.silo_id] != nullptr) {
    verdict = Status::InvalidArgument("silo id " +
                                      std::to_string(join.silo_id) +
                                      " already connected");
  }
  if (!verdict.ok()) {
    transport->Send(MakeErrorFrame(verdict));  // tell the client why
    return verdict;
  }
  conns_[join.silo_id] = std::move(transport);
  // Mirror the registration into the session's membership table (Protocol 1
  // keeps a fixed cohort, so members activate immediately).
  SiloMember& row = session_.Upsert(join.silo_id);
  row.status = SiloStatus::kActive;
  row.join_round = 0;
  row.user_count = join.num_users;
  return Status::Ok();
}

Status ProtocolServer::RunSetup() {
  Status status = RunSetupInternal();
  // Any server-side failure ends the run for everyone: without this, a
  // client blocked in Recv on an in-process channel would hang forever.
  if (!status.ok()) FailAll(status);
  return status;
}

Status ProtocolServer::RunSetupInternal() {
  if (connected_silos() != num_silos_) {
    return Status::FailedPrecondition(
        std::to_string(connected_silos()) + " of " +
        std::to_string(num_silos_) + " silos connected");
  }
  if (mux_ == nullptr) {
    // All join handshakes (blocking Recv) are done; from here every
    // server-side receive runs through the shared front end.
    std::vector<Transport*> peers;
    peers.reserve(conns_.size());
    for (const auto& c : conns_) peers.push_back(c.get());
    mux_ = MakeFrameMux(std::move(peers));
    ULDP_RETURN_IF_ERROR(mux_->Start());
  }
  BeginPhase();
  ULDP_RETURN_IF_ERROR(core_.GenerateKeys(*pool_));

  SetupParamsMsg params;
  params.paillier_n = core_.params().public_key.n;
  if (config_.ot_slots > 0) {
    params.ot_p = core_.params().ot_group.p;
    params.ot_g = core_.params().ot_group.g;
  }
  ULDP_RETURN_IF_ERROR(Broadcast(ToFrame(params)));

  // Gather DH public keys, then relay the full directory. The FrameMux
  // receives from every silo concurrently, so a plain loop over the
  // silos reads them as they land.
  DhDirectoryMsg directory;
  directory.public_keys.assign(num_silos_, BigInt(0));
  for (int s = 0; s < num_silos_; ++s) {
    auto frame = RecvFrom(s);
    if (!frame.ok()) return frame.status();
    auto msg = FromFrame<DhPublicKeyMsg>(frame.value());
    if (!msg.ok()) return msg.status();
    if (msg.value().silo_id != static_cast<uint32_t>(s)) {
      return Status::InvalidArgument("DH key from wrong silo id");
    }
    directory.public_keys[s] = std::move(msg.value().public_key);
  }
  ULDP_RETURN_IF_ERROR(Broadcast(ToFrame(directory)));

  // Relay silo 0's encrypted seed shares; the server sees only ciphertext.
  std::vector<bool> share_seen(num_silos_, false);
  for (int i = 0; i < num_silos_ - 1; ++i) {
    auto frame = RecvFrom(0);
    if (!frame.ok()) return frame.status();
    auto msg = FromFrame<SeedShareMsg>(frame.value());
    if (!msg.ok()) return msg.status();
    const SeedShareMsg& share = msg.value();
    if (share.from_silo != 0 || share.to_silo == 0 ||
        share.to_silo >= static_cast<uint32_t>(num_silos_) ||
        share_seen[share.to_silo]) {
      return Status::InvalidArgument("invalid seed share routing");
    }
    share_seen[share.to_silo] = true;
    ULDP_RETURN_IF_ERROR(SendTo(static_cast<int>(share.to_silo),
                                frame.value()));
  }

  // Gather doubly blinded histograms and finish setup.
  for (int s = 0; s < num_silos_; ++s) {
    auto frame = RecvFrom(s);
    if (!frame.ok()) return frame.status();
    auto msg = FromFrame<BlindedHistogramMsg>(frame.value());
    if (!msg.ok()) return msg.status();
    if (msg.value().silo_id != static_cast<uint32_t>(s)) {
      return Status::InvalidArgument("histogram from wrong silo id");
    }
    ULDP_RETURN_IF_ERROR(
        core_.AbsorbBlindedHistogram(s, std::move(msg.value().values)));
  }
  ULDP_RETURN_IF_ERROR(core_.FinalizeSetup());
  ULDP_RETURN_IF_ERROR(Broadcast(ToFrame(SetupAckMsg{})));
  EndPhase("setup");
  setup_done_ = true;
  return Status::Ok();
}

Result<Vec> ProtocolServer::RunRound(uint64_t round,
                                     const std::vector<bool>& user_sampled) {
  auto out = RunRoundInternal(round, user_sampled);
  if (!out.ok()) FailAll(out.status());
  if (out.ok()) {
    session_.round = round + 1;
    session_.stats.steps += 1;
  }
  return out;
}

Result<Vec> ProtocolServer::RunRoundInternal(
    uint64_t round, const std::vector<bool>& user_sampled) {
  if (!setup_done_) {
    return Status::FailedPrecondition("RunSetup() has not completed");
  }
  if (round >= kMaskTagRoundLimit) {
    return Status::OutOfRange("round exceeds the 56-bit tag limit");
  }
  obs::TraceSpan round_span("proto.round", "round",
                            static_cast<int64_t>(round));
  BeginPhase();
  if (config_.ot_slots > 0) {
    obs::TraceSpan ot_span("proto.ot_round", "round",
                           static_cast<int64_t>(round));
    // OT-based private sub-sampling: silo 0 acts as the joint receiver
    // (all silos share the seed that picks the slots) and re-distributes
    // the fetched ciphertexts to its peers, encrypted under pairwise keys
    // so this server only relays opaque bytes.
    auto senders = core_.OtSenderInit(round, *pool_);
    if (!senders.ok()) return senders.status();
    const uint64_t ot_tag = MakeMaskTag(MaskPhase::kOtSlotChoice, round);
    OtSenderMsg sender_msg;
    sender_msg.phase_tag = ot_tag;
    sender_msg.senders = std::move(senders.value());
    ULDP_RETURN_IF_ERROR(SendTo(0, ToFrame(sender_msg)));

    auto reply = RecvFrom(0);
    if (!reply.ok()) return reply.status();
    auto receiver = FromFrame<OtReceiverMsg>(reply.value());
    if (!receiver.ok()) return receiver.status();
    ULDP_RETURN_IF_ERROR(CheckPhaseTag(receiver.value().phase_tag,
                                       MaskPhase::kOtSlotChoice, round));
    auto slots = core_.OtEncryptSlots(round, receiver.value().bs, *pool_);
    if (!slots.ok()) return slots.status();
    OtSlotsMsg slots_msg;
    slots_msg.phase_tag = ot_tag;
    slots_msg.slots = std::move(slots.value());
    ULDP_RETURN_IF_ERROR(SendTo(0, ToFrame(slots_msg)));

    // Relay the encrypted weight shares to silos 1..N-1.
    std::vector<bool> relay_seen(num_silos_, false);
    for (int i = 0; i < num_silos_ - 1; ++i) {
      auto frame = RecvFrom(0);
      if (!frame.ok()) return frame.status();
      auto msg = FromFrame<WeightRelayMsg>(frame.value());
      if (!msg.ok()) return msg.status();
      const WeightRelayMsg& relay = msg.value();
      Status tag_ok = CheckPhaseTag(relay.phase_tag,
                                    MaskPhase::kOtWeightRelay, round);
      if (!tag_ok.ok()) return tag_ok;
      if (relay.from_silo != 0 || relay.to_silo == 0 ||
          relay.to_silo >= static_cast<uint32_t>(num_silos_) ||
          relay_seen[relay.to_silo]) {
        return Status::InvalidArgument("invalid weight relay routing");
      }
      relay_seen[relay.to_silo] = true;
      ULDP_RETURN_IF_ERROR(SendTo(static_cast<int>(relay.to_silo),
                                  frame.value()));
    }
  } else {
    ULDP_RETURN_IF_ERROR(StreamEncWeights(round, user_sampled));
  }
  EndPhase("enc_weights");

  // Gather the masked silo ciphertexts, folding each streamed coordinate
  // chunk into one running product as it is read.
  // The product is exact modular arithmetic, so the fold order never
  // changes a bit, and the server keeps one running aggregate instead of
  // a cipher vector per silo.
  BeginPhase();
  std::vector<BigInt> product;
  uint32_t dim = 0;
  for (int s = 0; s < num_silos_; ++s) {
    ULDP_RETURN_IF_ERROR(GatherSiloCipher(s, round, &product, &dim));
  }
  EndPhase("silo_ciphers");

  BeginPhase();
  auto out = core_.DecryptAggregate(product, *pool_, dim);
  if (!out.ok()) return out.status();
  RoundResultMsg result;
  result.phase_tag = MakeMaskTag(MaskPhase::kRoundWeighting, round);
  result.aggregate = out.value();
  ULDP_RETURN_IF_ERROR(Broadcast(ToFrame(result)));
  EndPhase("aggregate");
  return out;
}

Status ProtocolServer::StreamEncWeights(
    uint64_t round, const std::vector<bool>& user_sampled) {
  obs::TraceSpan span("proto.stream_enc_weights", "round",
                      static_cast<int64_t>(round));
  const uint64_t tag = MakeMaskTag(MaskPhase::kRoundWeighting, round);
  const int chunk_users = StreamChunkUsers(config_, num_users_);
  const int window = StreamWindow(config_);

  StreamBeginMsg begin;
  begin.phase_tag = tag;
  begin.kind = static_cast<uint8_t>(StreamKind::kEncWeights);
  begin.sender_id = 0;
  begin.total_count = static_cast<uint32_t>(num_users_);
  begin.chunk_elems = static_cast<uint32_t>(chunk_users);
  begin.dim = 0;  // silos size the fold from their own round inputs
  ULDP_RETURN_IF_ERROR(Broadcast(ToFrame(begin)));

  std::vector<int> in_flight(num_silos_, 0);
  auto drain_ack = [&](int s) -> Status {
    auto frame = RecvFrom(s);
    if (!frame.ok()) return frame.status();
    auto ack = FromFrame<StreamAckMsg>(frame.value());
    if (!ack.ok()) return ack.status();
    if (ack.value().phase_tag != tag ||
        ack.value().kind != static_cast<uint8_t>(StreamKind::kEncWeights)) {
      return Status::InvalidArgument(
          "stream: enc-weight ack for a different stream");
    }
    const int credits =
        static_cast<int>(std::max(1u, ack.value().credits));
    in_flight[s] -= std::min(in_flight[s], credits);
    return Status::Ok();
  };

  uint32_t index = 0;
  for (int u0 = 0; u0 < num_users_; u0 += chunk_users, ++index) {
    const int u1 = std::min(num_users_, u0 + chunk_users);
    for (int s = 0; s < num_silos_; ++s) {
      while (in_flight[s] >= window) {
        ULDP_RETURN_IF_ERROR(drain_ack(s));
      }
    }
    StreamChunkMsg chunk;
    chunk.phase_tag = tag;
    chunk.kind = static_cast<uint8_t>(StreamKind::kEncWeights);
    chunk.index = index;
    // A pipelined server serves chunk 0 from the round-ahead prefetch when
    // it matches.
    std::unique_ptr<std::vector<BigInt>> prefetched =
        index == 0 && config_.pipeline ? TakePrefetch(round, user_sampled)
                                       : nullptr;
    if (prefetched != nullptr) {
      chunk.values = std::move(*prefetched);
    } else {
      auto enc = core_.EncryptWeightsRange(round, user_sampled, u0, u1,
                                           *pool_);
      if (!enc.ok()) return enc.status();
      chunk.values = std::move(enc.value());
    }
    ULDP_RETURN_IF_ERROR(Broadcast(ToFrame(chunk)));
    // `chunk` (the only copy of these ciphertexts) dies here: peak
    // resident enc weights are one chunk regardless of num_users.
    for (int s = 0; s < num_silos_; ++s) ++in_flight[s];
  }
  // Every chunk is out: encrypt the next round's first chunk in the
  // background while the silos fold and upload — the prefetch overlaps
  // their weighting compute and this round's aggregation.
  if (config_.pipeline && round + 1 < kMaskTagRoundLimit) {
    StartPrefetch(round + 1, user_sampled);
  }
  for (int s = 0; s < num_silos_; ++s) {
    while (in_flight[s] > 0) {
      ULDP_RETURN_IF_ERROR(drain_ack(s));
    }
  }
  return Status::Ok();
}

Status ProtocolServer::GatherSiloCipher(int silo, uint64_t round,
                                        std::vector<BigInt>* product,
                                        uint32_t* dim) {
  obs::TraceSpan span("proto.gather_silo_cipher", "silo", silo);
  const uint64_t tag = MakeMaskTag(MaskPhase::kRoundWeighting, round);
  auto frame = RecvFrom(silo);
  if (!frame.ok()) return frame.status();
  auto begin = FromFrame<StreamBeginMsg>(frame.value());
  if (!begin.ok()) return begin.status();
  if (begin.value().sender_id != static_cast<uint32_t>(silo)) {
    return Status::InvalidArgument("cipher from wrong silo id");
  }
  ULDP_RETURN_IF_ERROR(CheckPhaseTag(begin.value().phase_tag,
                                     MaskPhase::kRoundWeighting, round));
  // The advertised model dimension must match the packed cipher count; a
  // mismatch means the peer runs a different slot layout.
  const uint32_t model_dim = begin.value().dim;
  const size_t cdim = core_.params().packed.PackedDim(model_dim);
  if (begin.value().total_count != cdim) {
    return Status::InvalidArgument(
        "silo cipher count inconsistent with model dimension");
  }
  if (silo == 0) {
    *dim = model_dim;
    product->assign(cdim, BigInt(1));
  } else if (model_dim != *dim) {
    return Status::InvalidArgument("silos disagree on the model dimension");
  }

  auto receiver_or = ChunkStreamReceiver::Create(
      begin.value(), StreamKind::kSiloCipher, tag, cdim,
      static_cast<uint32_t>(StreamChunkCoords(config_)));
  if (!receiver_or.ok()) return receiver_or.status();
  ChunkStreamReceiver receiver = std::move(receiver_or.value());
  while (!receiver.Done()) {
    frame = RecvFrom(silo);
    if (!frame.ok()) return frame.status();
    auto chunk = FromFrame<StreamChunkMsg>(frame.value());
    if (!chunk.ok()) return chunk.status();
    auto ack = receiver.Feed(
        std::move(chunk.value()),
        [&](std::vector<BigInt>&& values, size_t offset) -> Status {
          return core_.AccumulateSiloCipherRange(values, offset, product);
        });
    if (!ack.ok()) return ack.status();
    ULDP_RETURN_IF_ERROR(SendTo(silo, ToFrame(ack.value())));
  }
  return Status::Ok();
}

Status ProtocolServer::Shutdown() {
  Status status = Broadcast(ToFrame(ShutdownMsg{}));
  // The broadcast is already queued/flushed per connection; interrupting
  // afterwards only stops the receive side, so clients still read the
  // Shutdown frame before seeing EOF.
  if (mux_ != nullptr) mux_->Shutdown();
  return status;
}

// ---------------------------------------------------------------------------
// SiloClient

SiloClient::SiloClient(const ProtocolConfig& config, int silo_id,
                       int num_silos, int num_users,
                       std::vector<int> histogram)
    : config_(config),
      silo_id_(silo_id),
      num_silos_(num_silos),
      num_users_(num_users),
      histogram_(std::move(histogram)),
      pool_(config.num_threads) {
  ULDP_CHECK_GE(silo_id_, 0);
  ULDP_CHECK_LT(silo_id_, num_silos_);
  ULDP_CHECK_EQ(histogram_.size(), static_cast<size_t>(num_users_));
}

Status SiloClient::Run(Transport& transport, const RoundInput& input,
                       const RoundResultFn& on_result) {
  Status status = RunLoop(transport, input, on_result);
  if (!status.ok()) {
    transport.Send(MakeErrorFrame(status));  // best effort
  }
  return status;
}

Result<std::vector<BigInt>> SiloClient::HandleOtRound(
    Transport& transport, uint64_t round, const OtSenderMsg& sender_msg) {
  obs::TraceSpan span("silo.ot_round", "round", static_cast<int64_t>(round));
  // Receiver commitments, then the encrypted slots.
  auto bs = core_->OtReceiverChoose(round, sender_msg.senders, *pool_);
  if (!bs.ok()) return bs.status();
  OtReceiverMsg receiver;
  receiver.phase_tag = MakeMaskTag(MaskPhase::kOtSlotChoice, round);
  receiver.bs = std::move(bs.value());
  ULDP_RETURN_IF_ERROR(transport.Send(ToFrame(receiver)));

  auto frame = transport.Recv();
  if (!frame.ok()) return frame.status();
  if (frame.value().type == static_cast<uint16_t>(MessageType::kError)) {
    return StatusFromErrorFrame(frame.value(), "server");
  }
  auto slots = FromFrame<OtSlotsMsg>(frame.value());
  if (!slots.ok()) return slots.status();
  ULDP_RETURN_IF_ERROR(CheckPhaseTag(slots.value().phase_tag,
                                     MaskPhase::kOtSlotChoice, round));
  auto enc = core_->OtReceiverDecrypt(round, sender_msg.senders,
                                      slots.value().slots, *pool_);
  if (!enc.ok()) return enc.status();

  // Re-distribute the fetched ciphertexts to the peers, encrypted under
  // the pairwise keys so the relaying server cannot match them to slots.
  WireWriter w;
  w.BigVec(enc.value());
  const std::vector<uint8_t> plain = w.Take();
  const uint64_t relay_tag = MakeMaskTag(MaskPhase::kOtWeightRelay, round);
  for (int to = 1; to < num_silos_; ++to) {
    auto ct = core_->PairStreamXor(to, relay_tag,
                                   static_cast<uint32_t>(to), plain);
    if (!ct.ok()) return ct.status();
    WeightRelayMsg relay;
    relay.phase_tag = relay_tag;
    relay.from_silo = 0;
    relay.to_silo = static_cast<uint32_t>(to);
    relay.ciphertext = std::move(ct.value());
    ULDP_RETURN_IF_ERROR(transport.Send(ToFrame(relay)));
  }
  return enc;
}

Status SiloClient::UploadCipherStream(Transport& transport, uint64_t round,
                                      size_t model_dim,
                                      std::vector<BigInt> cipher) {
  obs::TraceSpan span("silo.upload_cipher", "round",
                      static_cast<int64_t>(round));
  StreamSendOptions opts;
  opts.phase_tag = MakeMaskTag(MaskPhase::kRoundWeighting, round);
  opts.kind = StreamKind::kSiloCipher;
  opts.sender_id = static_cast<uint32_t>(silo_id_);
  opts.dim = static_cast<uint32_t>(model_dim);
  opts.chunk_elems = StreamChunkCoords(config_);
  opts.window = StreamWindow(config_);
  return SendChunkedBigVec(
      cipher, opts, [&](const Frame& f) { return transport.Send(f); },
      [&]() { return transport.Recv(); });
}

Result<std::vector<BigInt>> SiloClient::HandleWeightRelay(
    const WeightRelayMsg& relay) {
  if (relay.from_silo != 0 ||
      static_cast<int>(relay.to_silo) != silo_id_) {
    return Status::InvalidArgument("misrouted weight relay");
  }
  auto plain = core_->PairStreamXor(0, relay.phase_tag,
                                    static_cast<uint32_t>(silo_id_),
                                    relay.ciphertext);
  if (!plain.ok()) return plain.status();
  WireReader r(plain.value());
  std::vector<BigInt> enc_weights;
  ULDP_RETURN_IF_ERROR(r.BigVec(&enc_weights));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in weight relay");
  }
  return enc_weights;
}

Status SiloClient::HandleRound(Transport& transport, const Frame& first,
                               const RoundInput& input,
                               const RoundResultFn& on_result,
                               std::thread* premask) {
  // The weight delivery's first frame fixes the round: a kEncWeights
  // stream begin, or (OT mode) the OT sender message or a weight relay.
  uint64_t round = 0;
  StreamBeginMsg begin;
  std::vector<BigInt> ot_weights;
  const uint16_t type = first.type;
  if (type == static_cast<uint16_t>(MessageType::kStreamBegin)) {
    if (config_.ot_slots > 0) {
      return Status::InvalidArgument("unexpected enc-weight stream in OT mode");
    }
    auto msg = FromFrame<StreamBeginMsg>(first);
    if (!msg.ok()) return msg.status();
    begin = std::move(msg.value());
    if (MaskTagPhase(begin.phase_tag) != MaskPhase::kRoundWeighting) {
      return Status::InvalidArgument("stream begin with wrong phase tag");
    }
    round = MaskTagRound(begin.phase_tag);
  } else if (type == static_cast<uint16_t>(MessageType::kOtSender)) {
    if (config_.ot_slots <= 0 || silo_id_ != 0) {
      return Status::InvalidArgument(
          "unexpected OT sender message for this silo");
    }
    auto sender = FromFrame<OtSenderMsg>(first);
    if (!sender.ok()) return sender.status();
    if (MaskTagPhase(sender.value().phase_tag) != MaskPhase::kOtSlotChoice) {
      return Status::InvalidArgument("OT sender with wrong phase tag");
    }
    round = MaskTagRound(sender.value().phase_tag);
    auto enc = HandleOtRound(transport, round, sender.value());
    if (!enc.ok()) return enc.status();
    ot_weights = std::move(enc.value());
  } else if (type == static_cast<uint16_t>(MessageType::kWeightRelay)) {
    if (config_.ot_slots <= 0 || silo_id_ == 0) {
      return Status::InvalidArgument("unexpected weight relay for this silo");
    }
    auto relay = FromFrame<WeightRelayMsg>(first);
    if (!relay.ok()) return relay.status();
    if (MaskTagPhase(relay.value().phase_tag) != MaskPhase::kOtWeightRelay) {
      return Status::InvalidArgument("weight relay with wrong phase tag");
    }
    round = MaskTagRound(relay.value().phase_tag);
    auto enc = HandleWeightRelay(relay.value());
    if (!enc.ok()) return enc.status();
    ot_weights = std::move(enc.value());
  } else {
    return Status::InvalidArgument("unexpected message type " +
                                   std::to_string(type) + " in round loop");
  }
  obs::TraceSpan span("silo.round", "round", static_cast<int64_t>(round));

  // Round inputs first: the fold needs this silo's deltas and the model
  // dimension before the first chunk lands.
  std::vector<Vec> deltas;
  Vec noise;
  ULDP_RETURN_IF_ERROR(input(round, &deltas, &noise));
  const size_t dim = noise.size();
  std::vector<BigInt> cipher = SiloCore::NewCipherAccumulator(
      core_->params().packed.PackedDim(dim));
  if (config_.ot_slots > 0) {
    // The OT exchange delivers the whole fetched vector: one chunk.
    ULDP_RETURN_IF_ERROR(core_->AccumulateUsersChunk(
        ot_weights, 0, num_users_, deltas, dim, &cipher, *pool_));
  } else {
    auto receiver_or = ChunkStreamReceiver::Create(
        begin, StreamKind::kEncWeights, begin.phase_tag,
        static_cast<size_t>(num_users_),
        static_cast<uint32_t>(StreamChunkUsers(config_, num_users_)));
    if (!receiver_or.ok()) return receiver_or.status();
    ChunkStreamReceiver receiver = std::move(receiver_or.value());
    while (!receiver.Done()) {
      auto frame = transport.Recv();
      if (!frame.ok()) return frame.status();
      if (frame.value().type == static_cast<uint16_t>(MessageType::kError)) {
        return StatusFromErrorFrame(frame.value(), "server");
      }
      auto chunk = FromFrame<StreamChunkMsg>(frame.value());
      if (!chunk.ok()) return chunk.status();
      auto ack = receiver.Feed(
          std::move(chunk.value()),
          [&](std::vector<BigInt>&& values, size_t offset) -> Status {
            return core_->AccumulateUsersChunk(
                values, static_cast<int>(offset),
                static_cast<int>(offset + values.size()), deltas, dim,
                &cipher, *pool_);
          });
      if (!ack.ok()) return ack.status();
      ULDP_RETURN_IF_ERROR(transport.Send(ToFrame(ack.value())));
    }
  }
  if (premask->joinable()) premask->join();  // see RunLoop
  ULDP_RETURN_IF_ERROR(core_->FinishRound(round, noise, &cipher, *pool_));
  // Start the next round's premask before the upload: the streamed upload
  // waits for the server's acks, which would otherwise delay it.
  if (config_.pipeline && config_.ot_slots <= 0 &&
      round + 1 < kMaskTagRoundLimit) {
    *premask = std::thread([this, round, dim] {
      // Best-effort: the only failure mode (missing pair keys) is
      // impossible here, and FinishRound recomputes inline on a miss.
      core_->PrecomputeRoundMasks(round + 1, dim, *pool_).ok();
    });
  }
  ULDP_RETURN_IF_ERROR(
      UploadCipherStream(transport, round, dim, std::move(cipher)));

  auto frame = transport.Recv();
  if (!frame.ok()) return frame.status();
  if (frame.value().type == static_cast<uint16_t>(MessageType::kError)) {
    return StatusFromErrorFrame(frame.value(), "server");
  }
  auto result = FromFrame<RoundResultMsg>(frame.value());
  if (!result.ok()) return result.status();
  ULDP_RETURN_IF_ERROR(CheckPhaseTag(result.value().phase_tag,
                                     MaskPhase::kRoundWeighting, round));
  if (on_result) on_result(round, result.value().aggregate);
  return Status::Ok();
}

Status SiloClient::RunLoop(Transport& transport, const RoundInput& input,
                           const RoundResultFn& on_result) {
  const uint64_t setup_start_ns = obs::NowNs();
  // -- Join handshake ------------------------------------------------------
  JoinMsg join;
  join.silo_id = static_cast<uint32_t>(silo_id_);
  join.num_silos = static_cast<uint32_t>(num_silos_);
  join.num_users = static_cast<uint32_t>(num_users_);
  join.config_digest = ProtocolWireDigest(config_, num_silos_, num_users_);
  ULDP_RETURN_IF_ERROR(transport.Send(ToFrame(join)));

  auto frame = transport.Recv();
  if (!frame.ok()) return frame.status();
  if (frame.value().type == static_cast<uint16_t>(MessageType::kError)) {
    return StatusFromErrorFrame(frame.value(), "server");
  }
  auto setup = FromFrame<SetupParamsMsg>(frame.value());
  if (!setup.ok()) return setup.status();

  ProtocolParams params;
  params.config = config_;
  params.num_silos = num_silos_;
  params.num_users = num_users_;
  params.public_key.n = setup.value().paillier_n;
  if (config_.ot_slots > 0) {
    params.ot_group.p = setup.value().ot_p;
    params.ot_group.g = setup.value().ot_g;
  }
  ULDP_RETURN_IF_ERROR(params.Derive());
  core_ = std::make_unique<SiloCore>(std::move(params), silo_id_, histogram_);

  // -- DH key exchange -----------------------------------------------------
  DhPublicKeyMsg dh;
  dh.silo_id = static_cast<uint32_t>(silo_id_);
  dh.public_key = core_->dh_key().public_key;
  ULDP_RETURN_IF_ERROR(transport.Send(ToFrame(dh)));
  frame = transport.Recv();
  if (!frame.ok()) return frame.status();
  if (frame.value().type == static_cast<uint16_t>(MessageType::kError)) {
    return StatusFromErrorFrame(frame.value(), "server");
  }
  auto directory = FromFrame<DhDirectoryMsg>(frame.value());
  if (!directory.ok()) return directory.status();
  ULDP_RETURN_IF_ERROR(
      core_->ComputePairKeys(directory.value().public_keys));

  // -- Shared seed R (silo 0 distributes; server relays ciphertext) --------
  const uint64_t seed_tag = MakeMaskTag(MaskPhase::kSeedRelay, 0);
  if (silo_id_ == 0) {
    BigInt r_seed = core_->MakeSharedSeed();
    core_->SetSharedSeed(r_seed);
    WireWriter w;
    w.Big(r_seed);
    const std::vector<uint8_t> plain = w.Take();
    for (int to = 1; to < num_silos_; ++to) {
      auto ct = core_->PairStreamXor(to, seed_tag,
                                     static_cast<uint32_t>(to), plain);
      if (!ct.ok()) return ct.status();
      SeedShareMsg share;
      share.from_silo = 0;
      share.to_silo = static_cast<uint32_t>(to);
      share.ciphertext = std::move(ct.value());
      ULDP_RETURN_IF_ERROR(transport.Send(ToFrame(share)));
    }
  } else {
    frame = transport.Recv();
    if (!frame.ok()) return frame.status();
    if (frame.value().type == static_cast<uint16_t>(MessageType::kError)) {
      return StatusFromErrorFrame(frame.value(), "server");
    }
    auto share = FromFrame<SeedShareMsg>(frame.value());
    if (!share.ok()) return share.status();
    if (share.value().from_silo != 0 ||
        static_cast<int>(share.value().to_silo) != silo_id_) {
      return Status::InvalidArgument("misrouted seed share");
    }
    auto plain = core_->PairStreamXor(0, seed_tag,
                                      static_cast<uint32_t>(silo_id_),
                                      share.value().ciphertext);
    if (!plain.ok()) return plain.status();
    WireReader r(plain.value());
    BigInt r_seed;
    ULDP_RETURN_IF_ERROR(r.Big(&r_seed));
    if (!r.AtEnd()) {
      return Status::InvalidArgument("trailing bytes in seed share");
    }
    core_->SetSharedSeed(r_seed);
  }

  // -- Blinded histogram ---------------------------------------------------
  auto blinded = core_->BlindHistogram(*pool_);
  if (!blinded.ok()) return blinded.status();
  BlindedHistogramMsg histogram;
  histogram.silo_id = static_cast<uint32_t>(silo_id_);
  histogram.values = std::move(blinded.value());
  ULDP_RETURN_IF_ERROR(transport.Send(ToFrame(histogram)));
  frame = transport.Recv();
  if (!frame.ok()) return frame.status();
  if (frame.value().type == static_cast<uint16_t>(MessageType::kError)) {
    return StatusFromErrorFrame(frame.value(), "server");
  }
  auto ack = FromFrame<SetupAckMsg>(frame.value());
  if (!ack.ok()) return ack.status();
  // The setup leg spans the whole straight-line section above, so it is
  // recorded directly rather than via a scoped span.
  obs::TraceBuffer& trace = obs::TraceBuffer::Global();
  if (trace.enabled()) {
    trace.Record("silo.setup", setup_start_ns,
                 obs::NowNs() - setup_start_ns, "silo",
                 static_cast<int64_t>(silo_id_));
  }

  // -- Round loop ----------------------------------------------------------
  // Pipelining: from its round-r FinishRound on, this silo precomputes its
  // round-r+1 pairwise masks and Enc(0)s on a side thread (the same PRF
  // evaluations and Fork substreams FinishRound would use inline —
  // bitwise identical), overlapping its upload, the server's aggregation
  // and this silo's next fold, which reads none of that state. Joining
  // right before FinishRound is the happens-before edge before it is read.
  ThreadJoiner premask;
  for (;;) {
    frame = transport.Recv();
    if (!frame.ok()) return frame.status();
    const uint16_t type = frame.value().type;
    if (type == static_cast<uint16_t>(MessageType::kShutdown)) {
      return Status::Ok();
    }
    if (type == static_cast<uint16_t>(MessageType::kError)) {
      return StatusFromErrorFrame(frame.value(), "server");
    }
    ULDP_RETURN_IF_ERROR(
        HandleRound(transport, frame.value(), input, on_result, &premask.t));
  }
}

}  // namespace net
}  // namespace uldp
