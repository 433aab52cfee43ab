#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "net/bulk.hpp"
#include "net/fault.hpp"
#include "net/frame_reader.hpp"
#include "net/message.hpp"
#include "net/socket.hpp"
#include "util/rng.hpp"

namespace hdcs::net {
namespace {

/// Listener + connected client/server stream pair over loopback.
struct Pair {
  TcpListener listener = TcpListener::bind(0);
  TcpStream client;
  TcpStream server;

  Pair() {
    std::thread t([&] { client = TcpStream::connect("127.0.0.1", listener.port()); });
    auto accepted = listener.accept(2000);
    t.join();
    if (!accepted) throw IoError("accept timed out in test fixture");
    server = std::move(*accepted);
  }
};

TEST(Socket, EphemeralPortAssigned) {
  auto listener = TcpListener::bind(0);
  EXPECT_GT(listener.port(), 0);
}

TEST(Socket, AcceptTimesOutWithoutClient) {
  auto listener = TcpListener::bind(0);
  EXPECT_EQ(listener.accept(50), std::nullopt);
}

TEST(Socket, ConnectRefusedThrows) {
  auto listener = TcpListener::bind(0);
  std::uint16_t port = listener.port();
  listener.close();
  EXPECT_THROW(TcpStream::connect("127.0.0.1", port), IoError);
}

TEST(Socket, SendRecvRoundTrip) {
  Pair p;
  std::string msg = "hello over loopback";
  p.client.send_all(as_bytes(msg));
  std::vector<std::byte> buf(msg.size());
  p.server.recv_all(buf);
  EXPECT_EQ(std::string(reinterpret_cast<char*>(buf.data()), buf.size()), msg);
}

TEST(Socket, RecvAllThrowsConnectionClosedOnEof) {
  Pair p;
  p.client.close();
  std::vector<std::byte> buf(4);
  EXPECT_THROW(p.server.recv_all(buf), ConnectionClosed);
}

TEST(Socket, ReadableReflectsPendingData) {
  Pair p;
  EXPECT_FALSE(p.server.readable(10));
  p.client.send_all(as_bytes("x"));
  EXPECT_TRUE(p.server.readable(500));
}

TEST(Message, RoundTripsFrame) {
  Pair p;
  Message out;
  out.type = MessageType::kRequestWork;
  out.correlation = 77;
  ByteWriter w;
  w.str("payload");
  out.payload = w.take();

  write_message(p.client, out);
  Message in = read_message(p.server);
  EXPECT_EQ(in.type, MessageType::kRequestWork);
  EXPECT_EQ(in.correlation, 77u);
  auto r = in.reader();
  EXPECT_EQ(r.str(), "payload");
}

TEST(Message, EmptyPayloadOk) {
  Pair p;
  Message out;
  out.type = MessageType::kHeartbeatAck;
  out.correlation = 1;
  write_message(p.client, out);
  Message in = read_message(p.server);
  EXPECT_EQ(in.type, MessageType::kHeartbeatAck);
  EXPECT_TRUE(in.payload.empty());
}

TEST(Message, BadMagicThrowsProtocolError) {
  Pair p;
  // A full v2 header's worth of garbage (24 bytes): read_message must
  // reject it on the magic, not block waiting for more header.
  std::vector<std::byte> garbage(kFrameHeaderBytes, std::byte{0x5a});
  p.client.send_all(garbage);
  try {
    read_message(p.server);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    // The offending magic is reported in hex, not decimal.
    EXPECT_NE(std::string(e.what()).find("0x5a5a5a5a"), std::string::npos)
        << e.what();
  }
}

TEST(Message, CorruptedPayloadFailsFrameCrc) {
  Pair p;
  // A well-formed v2 frame whose payload CRC doesn't match its payload:
  // corruption is detected at the frame layer, never delivered.
  ByteWriter w;
  std::string body = "payload-bytes";
  w.u32(kMagic);
  w.u16(kProtocolVersion);
  w.u16(static_cast<std::uint16_t>(MessageType::kHeartbeat));
  w.u64(9);
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.u32(crc32(as_bytes(body)) ^ 0x1u);
  p.client.send_all(w.data());
  p.client.send_all(as_bytes(body));
  EXPECT_THROW(read_message(p.server), ProtocolError);
}

TEST(Message, SequentialFramesPreserved) {
  Pair p;
  for (int i = 0; i < 10; ++i) {
    Message m;
    m.type = MessageType::kHeartbeat;
    m.correlation = static_cast<std::uint64_t>(i);
    write_message(p.client, m);
  }
  for (int i = 0; i < 10; ++i) {
    Message m = read_message(p.server);
    EXPECT_EQ(m.correlation, static_cast<std::uint64_t>(i));
  }
}

TEST(Message, ToStringCoversTypes) {
  EXPECT_STREQ(to_string(MessageType::kHello), "Hello");
  EXPECT_STREQ(to_string(MessageType::kWorkAssignment), "WorkAssignment");
  EXPECT_STREQ(to_string(static_cast<MessageType>(999)), "Unknown");
}

TEST(Bulk, Crc32KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (IEEE reference value).
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Bulk, Crc32MatchesBytewiseReferenceAtEveryAlignment) {
  // The eight-bytes-per-step loop against the textbook bitwise CRC, over
  // every length 0..64 (every tail length and start offset mod 8) and one
  // large buffer.
  auto reference = [](std::span<const std::byte> data) {
    std::uint32_t c = 0xffffffffu;
    for (std::byte b : data) {
      c ^= static_cast<std::uint8_t>(b);
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xffffffffu;
  };
  Rng rng(5);
  std::vector<std::byte> buf(70000);
  for (auto& b : buf) b = static_cast<std::byte>(rng.next_below(256));
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 64; ++len) {
      auto view = std::span<const std::byte>(buf).subspan(off, len);
      ASSERT_EQ(crc32(view), reference(view)) << "off " << off << " len " << len;
    }
  }
  EXPECT_EQ(crc32(buf), reference(buf));
}

TEST(Bulk, RoundTripsLargeBlob) {
  Pair p;
  Rng rng(1);
  std::vector<std::byte> blob(3 * kBulkChunk + 12345);
  for (auto& b : blob) b = static_cast<std::byte>(rng.next_u64() & 0xff);

  std::thread sender([&] { send_blob(p.client, blob); });
  auto received = recv_blob(p.server);
  sender.join();
  EXPECT_EQ(received, blob);
}

TEST(Bulk, EmptyBlobOk) {
  Pair p;
  std::thread sender([&] { send_blob(p.client, {}); });
  auto received = recv_blob(p.server);
  sender.join();
  EXPECT_TRUE(received.empty());
}

TEST(Bulk, OversizeBlobRejected) {
  Pair p;
  std::vector<std::byte> blob(1024);
  std::thread sender([&] {
    try {
      send_blob(p.client, blob);
    } catch (const IoError&) {
      // receiver may close early; ignore
    }
  });
  EXPECT_THROW(recv_blob(p.server, 512), IoError);
  p.server.close();
  sender.join();
}

TEST(Bulk, CorruptedPayloadFailsCrc) {
  Pair p;
  // Hand-craft a blob frame with a wrong CRC.
  ByteWriter header;
  std::string body = "abcdefgh";
  header.u64(body.size());
  header.u32(crc32(as_bytes(body)) ^ 0xffffffffu);
  p.client.send_all(header.data());
  p.client.send_all(as_bytes(body));
  EXPECT_THROW(recv_blob(p.server), ProtocolError);
}

// ---- FrameReader: the incremental parser must match the blocking path ----

/// One message per type the protocol defines, across every accepted frame
/// version, with payload sizes from empty through several-KB random bytes.
std::vector<Message> frame_reader_corpus() {
  const MessageType kTypes[] = {
      MessageType::kHello,          MessageType::kRequestWork,
      MessageType::kSubmitResult,   MessageType::kHeartbeat,
      MessageType::kFetchProblemData, MessageType::kGoodbye,
      MessageType::kFetchStats,     MessageType::kFetchBlobs,
      MessageType::kReplicaHello,   MessageType::kHelloAck,
      MessageType::kWorkAssignment, MessageType::kNoWorkAvailable,
      MessageType::kProblemData,    MessageType::kResultAck,
      MessageType::kHeartbeatAck,   MessageType::kShutdown,
      MessageType::kStatsSnapshot,  MessageType::kBlobData,
      MessageType::kReplicaSnapshot, MessageType::kWalAppend,
      MessageType::kRetryLater,     MessageType::kError,
  };
  Rng rng(2024);
  std::vector<Message> corpus;
  std::uint64_t correlation = 1;
  for (std::uint16_t version = kMinProtocolVersion;
       version <= kProtocolVersion; ++version) {
    for (MessageType type : kTypes) {
      Message m;
      m.type = type;
      m.version = version;
      m.correlation = correlation++;
      std::size_t len = static_cast<std::size_t>(rng.next_u64() % 4096);
      if (correlation % 5 == 0) len = 0;  // empty payloads are legal
      m.payload.resize(len);
      for (auto& b : m.payload) {
        b = static_cast<std::byte>(rng.next_u64() & 0xff);
      }
      corpus.push_back(std::move(m));
    }
  }
  return corpus;
}

std::vector<std::byte> concat_frames(const std::vector<Message>& msgs) {
  std::vector<std::byte> wire;
  for (const auto& m : msgs) {
    auto frame = encode_frame(m);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  return wire;
}

void expect_same_messages(const std::vector<Message>& got,
                          const std::vector<Message>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].type, want[i].type) << "message " << i;
    EXPECT_EQ(got[i].version, want[i].version) << "message " << i;
    EXPECT_EQ(got[i].correlation, want[i].correlation) << "message " << i;
    EXPECT_EQ(got[i].payload, want[i].payload) << "message " << i;
  }
}

TEST(FrameReader, EncodeFrameMatchesWriteMessageBytes) {
  // encode_frame (event-loop write path) and write_message (blocking path)
  // must put identical bytes on the wire for every type and version.
  Pair p;
  for (const auto& m : frame_reader_corpus()) {
    write_message(p.client, m);
    auto encoded = encode_frame(m);
    std::vector<std::byte> sent(encoded.size());
    p.server.recv_all(sent);
    EXPECT_EQ(sent, encoded) << to_string(m.type) << " v" << m.version;
  }
}

TEST(FrameReader, OneByteAtATimeDecodesEveryTypeAndVersion) {
  auto corpus = frame_reader_corpus();
  auto wire = concat_frames(corpus);
  FrameReader reader;
  std::vector<Message> got;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    reader.feed(std::span(&wire[i], 1), got);
  }
  EXPECT_FALSE(reader.mid_frame());
  EXPECT_EQ(reader.pending_bytes(), 0u);
  expect_same_messages(got, corpus);
}

TEST(FrameReader, RandomSplitPointsDecodeIdentically) {
  auto corpus = frame_reader_corpus();
  auto wire = concat_frames(corpus);
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    FrameReader reader;
    std::vector<Message> got;
    std::size_t off = 0;
    while (off < wire.size()) {
      // Mostly small slices (exercising header/payload boundaries), with
      // occasional multi-frame gulps.
      std::size_t n = 1 + static_cast<std::size_t>(
                              rng.next_u64() % (round % 3 == 0 ? 7 : 997));
      n = std::min(n, wire.size() - off);
      reader.feed(std::span(wire).subspan(off, n), got);
      off += n;
    }
    EXPECT_FALSE(reader.mid_frame()) << "round " << round;
    expect_same_messages(got, corpus);
  }
}

TEST(FrameReader, AgreesWithBlockingReadMessage) {
  // The same byte stream through both paths: read_message over a socket
  // and FrameReader over random slices must produce identical decodes.
  auto corpus = frame_reader_corpus();
  Pair p;
  std::thread sender([&] {
    for (const auto& m : corpus) write_message(p.client, m);
    p.client.shutdown_write();
  });
  std::vector<Message> blocking;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    blocking.push_back(read_message(p.server));
  }
  sender.join();
  FrameReader reader;
  std::vector<Message> incremental;
  auto wire = concat_frames(corpus);
  Rng rng(13);
  std::size_t off = 0;
  while (off < wire.size()) {
    std::size_t n = std::min<std::size_t>(1 + rng.next_u64() % 61,
                                          wire.size() - off);
    reader.feed(std::span(wire).subspan(off, n), incremental);
    off += n;
  }
  expect_same_messages(incremental, blocking);
}

TEST(FrameReader, MidFrameFlagTracksPartialFrames) {
  Message m;
  m.type = MessageType::kHeartbeat;
  m.correlation = 9;
  m.payload.resize(10, std::byte{0x41});
  auto wire = encode_frame(m);
  FrameReader reader;
  std::vector<Message> got;
  EXPECT_FALSE(reader.mid_frame());
  reader.feed(std::span(wire).first(1), got);
  EXPECT_TRUE(reader.mid_frame());  // header started
  reader.feed(std::span(wire).subspan(1, kFrameHeaderBytes), got);
  EXPECT_TRUE(reader.mid_frame());  // payload started
  EXPECT_EQ(reader.pending_bytes(), kFrameHeaderBytes + 1);
  reader.feed(std::span(wire).subspan(kFrameHeaderBytes + 1), got);
  EXPECT_FALSE(reader.mid_frame());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].payload, m.payload);
}

TEST(FrameReader, RejectsBadMagicLikeBlockingPath) {
  std::vector<std::byte> garbage(kFrameHeaderBytes, std::byte{0x5a});
  FrameReader reader;
  std::vector<Message> got;
  try {
    reader.feed(garbage, got);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("0x5a5a5a5a"), std::string::npos)
        << e.what();
  }
}

TEST(FrameReader, RejectsPayloadCorruptionLikeBlockingPath) {
  Message m;
  m.type = MessageType::kSubmitResult;
  m.correlation = 4;
  m.payload.resize(64, std::byte{0x7});
  auto wire = encode_frame(m);
  wire[kFrameHeaderBytes + 5] ^= std::byte{0x20};  // flip a payload byte
  FrameReader reader;
  std::vector<Message> got;
  try {
    reader.feed(wire, got);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("SubmitResult"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(got.empty());
}

TEST(Fault, NoPlanInstalledByDefault) {
  EXPECT_EQ(installed_fault_plan(), nullptr);
}

TEST(Fault, DeterministicDecisionSequence) {
  FaultSpec spec;
  spec.seed = 42;
  spec.connect_refuse_prob = 0.5;
  FaultPlan a(spec);
  FaultPlan b(spec);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.refuse_connect(), b.refuse_connect()) << "draw " << i;
  }
}

TEST(Fault, ConnectRefusalInjected) {
  auto listener = TcpListener::bind(0);  // real listener: refusal is injected
  FaultSpec spec;
  spec.connect_refuse_prob = 1.0;
  ScopedFaultPlan scoped(spec);
  EXPECT_THROW(TcpStream::connect("127.0.0.1", listener.port()), IoError);
}

TEST(Fault, RecvDisconnectInjected) {
  Pair p;
  FaultSpec spec;
  spec.recv_disconnect_prob = 1.0;
  ScopedFaultPlan scoped(spec);
  p.client.send_all(as_bytes("data"));
  std::vector<std::byte> buf(4);
  EXPECT_THROW(p.server.recv_all(buf), ConnectionClosed);
}

TEST(Fault, TruncatedSendTearsFrameButPeerDetectsIt) {
  Pair p;
  Message out;
  out.type = MessageType::kHeartbeat;
  out.correlation = 5;
  ByteWriter w;
  w.str("some payload so there is something to truncate");
  out.payload = w.take();
  {
    FaultSpec spec;
    spec.send_truncate_prob = 1.0;
    ScopedFaultPlan scoped(spec);
    EXPECT_THROW(write_message(p.client, out), IoError);
  }
  // The peer sees a torn frame: either mid-read EOF or a CRC mismatch,
  // both surface as an exception — never a silently short message.
  EXPECT_THROW(read_message(p.server), Error);
}

TEST(Fault, CorruptionCaughtByFrameCrc) {
  Pair p;
  Message out;
  out.type = MessageType::kSubmitResult;
  out.correlation = 3;
  ByteWriter w;
  w.str("result bytes that must not be silently altered");
  out.payload = w.take();
  write_message(p.client, out);
  // EOF after the frame so a corrupted payload_len can't block the read.
  p.client.shutdown_write();
  FaultSpec spec;
  spec.corrupt_prob = 1.0;
  ScopedFaultPlan scoped(spec);
  // Every recv flips a byte; whichever part of the frame it hits (header
  // or payload), read_message must refuse to deliver the message.
  EXPECT_THROW(read_message(p.server), Error);
}

TEST(Fault, ZeroProbabilityPlanIsTransparent) {
  Pair p;
  FaultSpec spec;  // all probabilities zero
  ScopedFaultPlan scoped(spec);
  Message out;
  out.type = MessageType::kHeartbeat;
  out.correlation = 11;
  write_message(p.client, out);
  Message in = read_message(p.server);
  EXPECT_EQ(in.correlation, 11u);
}

}  // namespace
}  // namespace hdcs::net
