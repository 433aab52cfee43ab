#include "net/message.hpp"

#include <algorithm>
#include <cstdio>

#include "net/bulk.hpp"
#include "net/frame_reader.hpp"
#include "obs/metrics.hpp"

namespace hdcs::net {

namespace {
// Shared by read_message and FrameReader so both reject the same frames
// with the same text.
void check_version(std::uint16_t version) {
  if (version != kProtocolVersion) {
    throw ProtocolError("unsupported protocol version " + std::to_string(version) +
                        " (this build speaks " + std::to_string(kProtocolVersion) +
                        ")");
  }
}

// Process-wide wire counters. Looked up once (registry references are
// stable for its lifetime); updates are single relaxed atomics.
struct WireMetrics {
  obs::Counter& frames_sent = obs::Registry::global().counter("net.frames_sent");
  obs::Counter& frames_received =
      obs::Registry::global().counter("net.frames_received");
  obs::Counter& bytes_sent = obs::Registry::global().counter("net.bytes_sent");
  obs::Counter& bytes_received =
      obs::Registry::global().counter("net.bytes_received");
};
WireMetrics& wire_metrics() {
  static WireMetrics m;
  return m;
}
}  // namespace

const char* to_string(MessageType type) {
  switch (type) {
    case MessageType::kHello: return "Hello";
    case MessageType::kRequestWork: return "RequestWork";
    case MessageType::kSubmitResult: return "SubmitResult";
    case MessageType::kHeartbeat: return "Heartbeat";
    case MessageType::kFetchProblemData: return "FetchProblemData";
    case MessageType::kGoodbye: return "Goodbye";
    case MessageType::kFetchStats: return "FetchStats";
    case MessageType::kFetchBlobs: return "FetchBlobs";
    case MessageType::kReplicaHello: return "ReplicaHello";
    case MessageType::kHelloAck: return "HelloAck";
    case MessageType::kWorkAssignment: return "WorkAssignment";
    case MessageType::kNoWorkAvailable: return "NoWorkAvailable";
    case MessageType::kProblemData: return "ProblemData";
    case MessageType::kResultAck: return "ResultAck";
    case MessageType::kHeartbeatAck: return "HeartbeatAck";
    case MessageType::kShutdown: return "Shutdown";
    case MessageType::kStatsSnapshot: return "StatsSnapshot";
    case MessageType::kBlobData: return "BlobData";
    case MessageType::kReplicaSnapshot: return "ReplicaSnapshot";
    case MessageType::kWalAppend: return "WalAppend";
    case MessageType::kRetryLater: return "RetryLater";
    case MessageType::kError: return "Error";
  }
  return "Unknown";
}

void write_message(TcpStream& stream, const Message& msg) {
  ByteWriter header(kFrameHeaderBytes);
  header.u32(kMagic);
  header.u16(kProtocolVersion);
  header.u16(static_cast<std::uint16_t>(msg.type));
  header.u64(msg.correlation);
  header.u32(static_cast<std::uint32_t>(msg.payload.size()));
  header.u32(crc32(msg.payload));
  stream.send_all(header.data());
  if (!msg.payload.empty()) stream.send_all(msg.payload);
  wire_metrics().frames_sent.inc();
  wire_metrics().bytes_sent.inc(header.size() + msg.payload.size());
}

Message read_message(TcpStream& stream) {
  std::byte header_buf[kFrameHeaderBytes];
  stream.recv_all(header_buf);
  ByteReader header(header_buf);
  std::uint32_t magic = header.u32();
  if (magic != kMagic) {
    char hex[16];
    std::snprintf(hex, sizeof(hex), "%08x", magic);
    throw ProtocolError(std::string("bad frame magic 0x") + hex);
  }
  check_version(header.u16());
  Message msg;
  msg.type = static_cast<MessageType>(header.u16());
  msg.correlation = header.u64();
  std::uint32_t len = header.u32();
  if (len > kMaxPayload) {
    throw ProtocolError("frame payload too large: " + std::to_string(len));
  }
  std::uint32_t expected_crc = header.u32();
  // The header announced len bytes that are already in flight; a bounded
  // stall wait means a corrupted payload_len (recv-side fault injection
  // flips bytes the frame CRC can only check after a full read) cannot
  // wedge the reader forever against a peer that sent fewer bytes.
  msg.payload.resize(len);
  if (len > 0) stream.recv_all(msg.payload, kMidStreamStallMs);
  if (std::uint32_t got = crc32(msg.payload); got != expected_crc) {
    throw ProtocolError("frame payload CRC mismatch (" +
                        std::string(to_string(msg.type)) + " frame)");
  }
  wire_metrics().frames_received.inc();
  wire_metrics().bytes_received.inc(sizeof(header_buf) + msg.payload.size());
  return msg;
}

std::vector<std::byte> encode_frame(const Message& msg) {
  ByteWriter out(kFrameHeaderBytes + msg.payload.size());
  out.u32(kMagic);
  out.u16(kProtocolVersion);
  out.u16(static_cast<std::uint16_t>(msg.type));
  out.u64(msg.correlation);
  out.u32(static_cast<std::uint32_t>(msg.payload.size()));
  out.u32(crc32(msg.payload));
  out.raw(msg.payload);
  wire_metrics().frames_sent.inc();
  wire_metrics().bytes_sent.inc(out.size());
  return out.take();
}

// FrameReader lives here (not frame_reader.cpp) so the incremental path
// shares wire_metrics() and stays in lockstep with read_message above —
// any validation change has to touch both, side by side.
void FrameReader::feed(std::span<const std::byte> data,
                       std::vector<Message>& out) {
  for (;;) {
    if (!in_payload_) {
      std::size_t take = std::min(data.size(), kFrameHeaderBytes - have_);
      std::copy_n(data.data(), take, header_.data() + have_);
      have_ += take;
      data = data.subspan(take);
      if (have_ < kFrameHeaderBytes) return;
      ByteReader header(header_);
      std::uint32_t magic = header.u32();
      if (magic != kMagic) {
        char hex[16];
        std::snprintf(hex, sizeof(hex), "%08x", magic);
        throw ProtocolError(std::string("bad frame magic 0x") + hex);
      }
      check_version(header.u16());
      msg_ = Message{};
      msg_.type = static_cast<MessageType>(header.u16());
      msg_.correlation = header.u64();
      std::uint32_t len = header.u32();
      if (len > kMaxPayload) {
        throw ProtocolError("frame payload too large: " + std::to_string(len));
      }
      expected_crc_ = header.u32();
      msg_.payload.resize(len);
      payload_have_ = 0;
      have_ = 0;
      in_payload_ = true;
    }
    std::size_t take = std::min(data.size(), msg_.payload.size() - payload_have_);
    std::copy_n(data.data(), take, msg_.payload.data() + payload_have_);
    payload_have_ += take;
    data = data.subspan(take);
    if (payload_have_ < msg_.payload.size()) return;
    if (std::uint32_t got = crc32(msg_.payload); got != expected_crc_) {
      throw ProtocolError("frame payload CRC mismatch (" +
                          std::string(to_string(msg_.type)) + " frame)");
    }
    wire_metrics().frames_received.inc();
    wire_metrics().bytes_received.inc(kFrameHeaderBytes + msg_.payload.size());
    in_payload_ = false;
    out.push_back(std::move(msg_));
    msg_ = Message{};
    if (data.empty()) return;
  }
}

Message make_error(std::uint64_t correlation, const std::string& text) {
  Message msg;
  msg.type = MessageType::kError;
  msg.correlation = correlation;
  ByteWriter w;
  w.str(text);
  msg.payload = w.take();
  return msg;
}

}  // namespace hdcs::net
