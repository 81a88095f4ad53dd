#include <gtest/gtest.h>

#include "net/messages.h"
#include "net/wire.h"

namespace uldp {
namespace net {
namespace {

// Boundary BigInt values: zero, one, a value whose low limb is zero (the
// high-zero-limb shape that broke the original OT serialization), a
// 64-bit boundary, a max-width 2048-bit value, and negatives.
std::vector<BigInt> BoundaryBigInts() {
  std::vector<BigInt> values;
  values.push_back(BigInt(0));
  values.push_back(BigInt(1));
  values.push_back(BigInt(1) << 64);                  // low limb zero
  values.push_back((BigInt(1) << 64) - BigInt(1));    // all-ones limb
  values.push_back(BigInt(uint64_t{0xDEADBEEF}));
  BigInt wide = (BigInt(1) << 2048) - BigInt(12345);  // max-width magnitude
  values.push_back(wide);
  values.push_back(-BigInt(7));
  values.push_back(-((BigInt(1) << 192) + BigInt(3)));
  return values;
}

TEST(WirePrimitiveTest, BigIntRoundTripsBoundaryValues) {
  for (const BigInt& v : BoundaryBigInts()) {
    WireWriter w;
    w.Big(v);
    WireReader r(w.buffer());
    BigInt back;
    ASSERT_TRUE(r.Big(&back).ok()) << v.ToHex();
    EXPECT_EQ(back, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(WirePrimitiveTest, ScalarsAndVectorsRoundTrip) {
  WireWriter w;
  w.U8(0xAB);
  w.U16(0xCDEF);
  w.U32(0x12345678u);
  w.U64(0x1122334455667788ull);
  w.F64(-1.25e-10);
  w.Bytes({1, 2, 3});
  w.BigVec(BoundaryBigInts());
  w.F64Vec({0.0, -0.0, 1.5, -2.75});
  w.BytesVec({{}, {9}, {8, 7}});

  WireReader r(w.buffer());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  double f64;
  std::vector<uint8_t> bytes;
  std::vector<BigInt> bigs;
  std::vector<double> doubles;
  std::vector<std::vector<uint8_t>> chunks;
  ASSERT_TRUE(r.U8(&u8).ok());
  ASSERT_TRUE(r.U16(&u16).ok());
  ASSERT_TRUE(r.U32(&u32).ok());
  ASSERT_TRUE(r.U64(&u64).ok());
  ASSERT_TRUE(r.F64(&f64).ok());
  ASSERT_TRUE(r.Bytes(&bytes).ok());
  ASSERT_TRUE(r.BigVec(&bigs).ok());
  ASSERT_TRUE(r.F64Vec(&doubles).ok());
  ASSERT_TRUE(r.BytesVec(&chunks).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xCDEF);
  EXPECT_EQ(u32, 0x12345678u);
  EXPECT_EQ(u64, 0x1122334455667788ull);
  EXPECT_EQ(f64, -1.25e-10);
  EXPECT_EQ(bytes, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(bigs, BoundaryBigInts());
  EXPECT_EQ(doubles, (std::vector<double>{0.0, -0.0, 1.5, -2.75}));
  EXPECT_EQ(chunks, (std::vector<std::vector<uint8_t>>{{}, {9}, {8, 7}}));
}

TEST(WirePrimitiveTest, TruncatedReadsFailAndPoisonTheReader) {
  WireWriter w;
  w.U32(7);
  WireReader r(w.buffer());
  uint64_t u64;
  EXPECT_FALSE(r.U64(&u64).ok());  // only 4 bytes available
  uint8_t u8;
  EXPECT_FALSE(r.U8(&u8).ok());  // poisoned: even a fitting read fails
}

TEST(WirePrimitiveTest, HostileCountsAreRejectedBeforeAllocation) {
  // A BigInt vector claiming 2^31 elements inside a 12-byte payload.
  WireWriter w;
  w.U32(0x80000000u);
  w.U64(0);
  WireReader r(w.buffer());
  std::vector<BigInt> bigs;
  EXPECT_FALSE(r.BigVec(&bigs).ok());

  WireWriter w2;
  w2.U32(0xFFFFFFFFu);
  WireReader r2(w2.buffer());
  std::vector<double> doubles;
  EXPECT_FALSE(r2.F64Vec(&doubles).ok());
}

TEST(WireFrameTest, EncodeDecodeRoundTrip) {
  Frame frame;
  frame.type = 42;
  frame.payload = {1, 2, 3, 4, 5};
  auto bytes = EncodeFrame(frame);
  ASSERT_EQ(bytes.size(), kFrameHeaderSize + 5);
  auto back = DecodeFrame(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().type, 42);
  EXPECT_EQ(back.value().payload, frame.payload);
}

TEST(WireFrameTest, CorruptedFramesAreRejected) {
  Frame frame;
  frame.type = 7;
  frame.payload = {9, 9, 9};
  auto good = EncodeFrame(frame);

  // Truncated header.
  std::vector<uint8_t> short_header(good.begin(), good.begin() + 6);
  EXPECT_FALSE(DecodeFrame(short_header).ok());
  // Truncated payload.
  std::vector<uint8_t> short_payload(good.begin(), good.end() - 1);
  EXPECT_FALSE(DecodeFrame(short_payload).ok());
  // Trailing garbage.
  auto trailing = good;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeFrame(trailing).ok());
  // Bad magic.
  auto bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(DecodeFrame(bad_magic).ok());
  // Unsupported version.
  auto bad_version = good;
  bad_version[4] = 99;
  EXPECT_FALSE(DecodeFrame(bad_version).ok());
  // Payload length beyond the cap.
  auto bad_len = good;
  bad_len[8] = 0xFF;
  bad_len[9] = 0xFF;
  bad_len[10] = 0xFF;
  bad_len[11] = 0xFF;
  EXPECT_FALSE(DecodeFrame(bad_len).ok());
}

// ---------------------------------------------------------------------------
// Message round trips: every wire message type.

template <typename M>
M RoundTrip(const M& message) {
  Frame frame = ToFrame(message);
  // Through the full frame codec, as a transport would.
  auto decoded = DecodeFrame(EncodeFrame(frame));
  EXPECT_TRUE(decoded.ok());
  auto back = FromFrame<M>(decoded.value());
  EXPECT_TRUE(back.ok()) << back.status().ToString();
  return back.value();
}

TEST(MessageRoundTripTest, Join) {
  JoinMsg m;
  m.silo_id = 3;
  m.num_silos = 5;
  m.num_users = 1000;
  m.config_digest = 0xFEEDFACECAFEBEEFull;
  auto back = RoundTrip(m);
  EXPECT_EQ(back.silo_id, m.silo_id);
  EXPECT_EQ(back.num_silos, m.num_silos);
  EXPECT_EQ(back.num_users, m.num_users);
  EXPECT_EQ(back.config_digest, m.config_digest);
}

TEST(MessageRoundTripTest, SetupParams) {
  SetupParamsMsg m;
  m.paillier_n = (BigInt(1) << 512) + BigInt(12345);
  m.ot_p = (BigInt(1) << 192) - BigInt(6983);
  m.ot_g = BigInt(5);
  auto back = RoundTrip(m);
  EXPECT_EQ(back.paillier_n, m.paillier_n);
  EXPECT_EQ(back.ot_p, m.ot_p);
  EXPECT_EQ(back.ot_g, m.ot_g);
}

TEST(MessageRoundTripTest, DhMessages) {
  DhPublicKeyMsg key;
  key.silo_id = 2;
  key.public_key = BigInt(1) << 1024;  // high-zero-limb boundary
  auto key_back = RoundTrip(key);
  EXPECT_EQ(key_back.silo_id, 2u);
  EXPECT_EQ(key_back.public_key, key.public_key);

  DhDirectoryMsg dir;
  dir.public_keys = BoundaryBigInts();
  EXPECT_EQ(RoundTrip(dir).public_keys, dir.public_keys);
}

TEST(MessageRoundTripTest, SeedShareAndRelay) {
  SeedShareMsg seed;
  seed.from_silo = 0;
  seed.to_silo = 4;
  seed.ciphertext = {0xDE, 0xAD, 0x00, 0xEF};
  auto seed_back = RoundTrip(seed);
  EXPECT_EQ(seed_back.to_silo, 4u);
  EXPECT_EQ(seed_back.ciphertext, seed.ciphertext);

  WeightRelayMsg relay;
  relay.phase_tag = MakeMaskTag(MaskPhase::kOtWeightRelay, 9);
  relay.from_silo = 0;
  relay.to_silo = 1;
  relay.ciphertext = std::vector<uint8_t>(1000, 0x5A);
  auto relay_back = RoundTrip(relay);
  EXPECT_EQ(relay_back.phase_tag, relay.phase_tag);
  EXPECT_EQ(relay_back.ciphertext, relay.ciphertext);
}

TEST(MessageRoundTripTest, HistogramAndCiphers) {
  BlindedHistogramMsg hist;
  hist.silo_id = 1;
  hist.values = BoundaryBigInts();
  EXPECT_EQ(RoundTrip(hist).values, hist.values);

  StreamBeginMsg begin;
  begin.phase_tag = MakeMaskTag(MaskPhase::kRoundWeighting, 3);
  begin.kind = static_cast<uint8_t>(StreamKind::kSiloCipher);
  begin.sender_id = 2;
  begin.total_count = 8;
  begin.chunk_elems = 3;
  begin.dim = 32;  // model dim; packed streams carry fewer ciphertexts
  auto begin_back = RoundTrip(begin);
  EXPECT_EQ(begin_back.phase_tag, begin.phase_tag);
  EXPECT_EQ(begin_back.kind, begin.kind);
  EXPECT_EQ(begin_back.sender_id, begin.sender_id);
  EXPECT_EQ(begin_back.total_count, begin.total_count);
  EXPECT_EQ(begin_back.chunk_elems, begin.chunk_elems);
  EXPECT_EQ(begin_back.dim, begin.dim);

  StreamChunkMsg chunk;
  chunk.phase_tag = begin.phase_tag;
  chunk.kind = begin.kind;
  chunk.index = 2;
  chunk.values = BoundaryBigInts();
  auto chunk_back = RoundTrip(chunk);
  EXPECT_EQ(chunk_back.index, chunk.index);
  EXPECT_EQ(chunk_back.values, chunk.values);

  StreamAckMsg ack;
  ack.phase_tag = begin.phase_tag;
  ack.kind = begin.kind;
  ack.index = 2;
  ack.credits = 1;
  auto ack_back = RoundTrip(ack);
  EXPECT_EQ(ack_back.index, ack.index);
  EXPECT_EQ(ack_back.credits, ack.credits);

  MaskedVectorMsg masked;
  masked.phase_tag = MakeMaskTag(MaskPhase::kHistogramBlind, 0);
  masked.party_id = 7;
  masked.values = BoundaryBigInts();
  EXPECT_EQ(RoundTrip(masked).values, masked.values);
}

TEST(MessageRoundTripTest, RoundMessages) {
  RoundResultMsg result;
  result.phase_tag = MakeMaskTag(MaskPhase::kRoundWeighting, 17);
  result.aggregate = {1.0, -2.5, 0.0, 3.25e-9};
  EXPECT_EQ(RoundTrip(result).aggregate, result.aggregate);

  EXPECT_TRUE(
      FromFrame<SetupAckMsg>(ToFrame(SetupAckMsg{})).ok());
  EXPECT_TRUE(FromFrame<ShutdownMsg>(ToFrame(ShutdownMsg{})).ok());
}

TEST(MessageRoundTripTest, OtMessages) {
  OtSenderMsg sender;
  sender.phase_tag = MakeMaskTag(MaskPhase::kOtSlotChoice, 5);
  sender.senders.resize(2);
  sender.senders[0].c = {BigInt(11), BigInt(1) << 64, BigInt(13)};
  sender.senders[0].a = BigInt(17);
  sender.senders[1].c = {BigInt(0), BigInt(2), BigInt(3)};
  sender.senders[1].a = (BigInt(1) << 192) + BigInt(1);
  auto sender_back = RoundTrip(sender);
  ASSERT_EQ(sender_back.senders.size(), 2u);
  EXPECT_EQ(sender_back.senders[0].c, sender.senders[0].c);
  EXPECT_EQ(sender_back.senders[1].a, sender.senders[1].a);

  OtReceiverMsg receiver;
  receiver.phase_tag = sender.phase_tag;
  receiver.bs = BoundaryBigInts();
  EXPECT_EQ(RoundTrip(receiver).bs, receiver.bs);

  OtSlotsMsg slots;
  slots.phase_tag = sender.phase_tag;
  slots.slots = {{{1, 2}, {3, 4}}, {{}, {5}}};
  EXPECT_EQ(RoundTrip(slots).slots, slots.slots);
}

TEST(MessageRoundTripTest, Error) {
  ErrorMsg m;
  m.code = static_cast<uint16_t>(StatusCode::kInvalidArgument);
  m.message = "something broke: \xF0\x9F\x94\xA5";
  auto back = RoundTrip(m);
  EXPECT_EQ(back.code, m.code);
  EXPECT_EQ(back.message, m.message);
}

TEST(MessageDecodeTest, WrongTypeAndTrailingBytesRejected) {
  JoinMsg join;
  join.silo_id = 1;
  Frame frame = ToFrame(join);
  // Decoding as a different message type fails.
  EXPECT_FALSE(FromFrame<ShutdownMsg>(frame).ok());
  // Trailing garbage after a well-formed payload fails.
  frame.payload.push_back(0xAA);
  EXPECT_FALSE(FromFrame<JoinMsg>(frame).ok());
  // Truncated payload fails.
  Frame short_frame = ToFrame(join);
  short_frame.payload.pop_back();
  EXPECT_FALSE(FromFrame<JoinMsg>(short_frame).ok());
}

TEST(MessageDecodeTest, CorruptedNestedCountsRejected) {
  OtSlotsMsg slots;
  slots.phase_tag = 1;
  slots.slots = {{{1, 2, 3}}};
  Frame frame = ToFrame(slots);
  // Inflate the user count field (bytes 8..11 after the phase tag).
  frame.payload[8] = 0xFF;
  frame.payload[9] = 0xFF;
  EXPECT_FALSE(FromFrame<OtSlotsMsg>(frame).ok());
}

TEST(MessageDecodeTest, CorruptedStreamChunkFrameRejected) {
  // A silo-cipher chunk whose value count was truncated or inflated must
  // fail at parse time, before any BigInt is half-read or folded.
  StreamChunkMsg chunk;
  chunk.phase_tag = MakeMaskTag(MaskPhase::kRoundWeighting, 1);
  chunk.kind = static_cast<uint8_t>(StreamKind::kSiloCipher);
  chunk.index = 0;
  chunk.values.assign(2, BigInt(1) << 100);
  Frame frame = ToFrame(chunk);
  ASSERT_TRUE(FromFrame<StreamChunkMsg>(frame).ok());

  // Layout: u64 tag (8) + u8 kind (1) + u32 index (4) + u32 count (4).
  constexpr size_t kCountOffset = 13;
  // Truncated count: one value fewer than the payload holds leaves
  // trailing bytes.
  Frame truncated = frame;
  truncated.payload[kCountOffset] = 1;
  EXPECT_FALSE(FromFrame<StreamChunkMsg>(truncated).ok());

  // Inflated count: more values than the payload could ever hold.
  Frame inflated = frame;
  inflated.payload[kCountOffset] = 0xFF;
  inflated.payload[kCountOffset + 1] = 0xFF;
  EXPECT_FALSE(FromFrame<StreamChunkMsg>(inflated).ok());
  Frame one_more = frame;
  one_more.payload[kCountOffset] = 3;
  EXPECT_FALSE(FromFrame<StreamChunkMsg>(one_more).ok());

  // A payload cut mid-vector fails too.
  Frame cut = frame;
  cut.payload.resize(cut.payload.size() - 5);
  EXPECT_FALSE(FromFrame<StreamChunkMsg>(cut).ok());
}

TEST(MessageDigestTest, DigestSeparatesConfigs) {
  ProtocolConfig a;
  uint64_t base = ProtocolWireDigest(a, 3, 10);
  EXPECT_EQ(base, ProtocolWireDigest(a, 3, 10));  // deterministic
  ProtocolConfig b = a;
  b.n_max = a.n_max + 1;
  EXPECT_NE(base, ProtocolWireDigest(b, 3, 10));
  ProtocolConfig c = a;
  c.seed = a.seed + 1;
  EXPECT_NE(base, ProtocolWireDigest(c, 3, 10));
  EXPECT_NE(base, ProtocolWireDigest(a, 4, 10));
  EXPECT_NE(base, ProtocolWireDigest(a, 3, 11));
  // The packing layout is part of the wire contract.
  ProtocolConfig d = a;
  d.pack_slots = 4;
  EXPECT_NE(base, ProtocolWireDigest(d, 3, 10));
  ProtocolConfig e = a;
  e.pack_clip = a.pack_clip * 2;
  EXPECT_NE(base, ProtocolWireDigest(e, 3, 10));
}

TEST(MessageTagTest, CheckPhaseTagValidatesPhaseAndRound) {
  uint64_t tag = MakeMaskTag(MaskPhase::kRoundWeighting, 12);
  EXPECT_TRUE(CheckPhaseTag(tag, MaskPhase::kRoundWeighting, 12).ok());
  EXPECT_FALSE(CheckPhaseTag(tag, MaskPhase::kRoundWeighting, 13).ok());
  EXPECT_FALSE(CheckPhaseTag(tag, MaskPhase::kOtSlotChoice, 12).ok());
}

}  // namespace
}  // namespace net
}  // namespace uldp
