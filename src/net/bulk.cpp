#include "net/bulk.hpp"

#include <array>

#include "net/compress.hpp"
#include "obs/metrics.hpp"
#include "util/byte_buffer.hpp"
#include "util/stopwatch.hpp"

namespace hdcs::net {

namespace {
struct BulkMetrics {
  obs::Counter& blobs_sent = obs::Registry::global().counter("net.blobs_sent");
  obs::Counter& blobs_received =
      obs::Registry::global().counter("net.blobs_received");
  obs::Counter& bulk_bytes_sent =
      obs::Registry::global().counter("net.bulk_bytes_sent");
  obs::Counter& bulk_bytes_received =
      obs::Registry::global().counter("net.bulk_bytes_received");
};
BulkMetrics& bulk_metrics() {
  static BulkMetrics m;
  return m;
}
}  // namespace

BulkPlaneMetrics& bulk_plane_metrics() {
  auto& reg = obs::Registry::global();
  static BulkPlaneMetrics m{
      reg.counter("bulk.blobs_sent"), reg.counter("bulk.blobs_cache_hit"),
      reg.counter("bulk.bytes_raw"), reg.counter("bulk.bytes_wire")};
  return m;
}

namespace {
// Slicing-by-8 tables: t[0] is the classic byte table, and t[k][b]
// advances t[k-1][b] by one more zero byte, so crc32() folds eight input
// bytes per step instead of one. Same polynomial, same result as the
// bytewise loop (which still handles the tail).
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

std::uint32_t load_le32(const std::byte* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}
}  // namespace

std::uint32_t crc32(std::span<const std::byte> data) {
  static const CrcTables t = make_crc_tables();
  std::uint32_t c = 0xffffffffu;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
        t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<std::uint8_t>(*p)) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

void send_blob(TcpStream& stream, std::span<const std::byte> data) {
  ByteWriter header(12);
  header.u64(data.size());
  header.u32(crc32(data));
  stream.send_all(header.data());
  std::size_t off = 0;
  while (off < data.size()) {
    std::size_t n = std::min(kBulkChunk, data.size() - off);
    stream.send_all(data.subspan(off, n));
    off += n;
  }
  bulk_metrics().blobs_sent.inc();
  bulk_metrics().bulk_bytes_sent.inc(header.size() + data.size());
}

std::vector<std::byte> encode_blob(std::span<const std::byte> data) {
  ByteWriter out(12 + data.size());
  out.u64(data.size());
  out.u32(crc32(data));
  out.raw(data);
  bulk_metrics().blobs_sent.inc();
  bulk_metrics().bulk_bytes_sent.inc(out.size());
  return out.take();
}

std::vector<std::byte> recv_blob(TcpStream& stream, std::size_t max_bytes) {
  std::byte header_buf[12];
  stream.recv_all(header_buf, kMidStreamStallMs);
  ByteReader header(header_buf);
  std::uint64_t size = header.u64();
  std::uint32_t expected_crc = header.u32();
  if (size > max_bytes) {
    throw IoError("bulk blob too large: " + std::to_string(size) + " bytes");
  }
  std::vector<std::byte> data(size);
  std::size_t off = 0;
  while (off < data.size()) {
    std::size_t n = std::min(kBulkChunk, data.size() - off);
    stream.recv_all(std::span(data).subspan(off, n), kMidStreamStallMs);
    off += n;
  }
  if (crc32(data) != expected_crc) {
    throw ProtocolError("bulk blob CRC mismatch");
  }
  bulk_metrics().blobs_received.inc();
  bulk_metrics().bulk_bytes_received.inc(sizeof(header_buf) + data.size());
  return data;
}

namespace {
// raw_size | crc32(raw) | flags | wire_size | crc32(header). The trailing
// header CRC lets the receiver reject a corrupted length field *before*
// trusting it — without it, a flipped wire_size byte makes the receiver
// wait for bytes the sender never sent, and the body CRC (checked only
// after a full read) can never run.
constexpr std::size_t kBlobV4LengthsBytes = 8 + 4 + 1 + 8;
constexpr std::size_t kBlobV4HeaderBytes = kBlobV4LengthsBytes + 4;
constexpr std::uint8_t kBlobFlagCompressed = 1;

void send_chunked(TcpStream& stream, std::span<const std::byte> data) {
  std::size_t off = 0;
  while (off < data.size()) {
    std::size_t n = std::min(kBulkChunk, data.size() - off);
    stream.send_all(data.subspan(off, n));
    off += n;
  }
}
}  // namespace

BlobWireInfo send_blob_v4(TcpStream& stream, std::span<const std::byte> data) {
  auto compressed = lz_compress(data);
  std::span<const std::byte> body =
      compressed ? std::span<const std::byte>(*compressed) : data;
  ByteWriter header(kBlobV4HeaderBytes);
  header.u64(data.size());
  header.u32(crc32(data));
  header.u8(compressed ? kBlobFlagCompressed : 0);
  header.u64(body.size());
  header.u32(crc32(header.data()));
  stream.send_all(header.data());
  send_chunked(stream, body);
  bulk_metrics().blobs_sent.inc();
  bulk_metrics().bulk_bytes_sent.inc(header.size() + body.size());
  return BlobWireInfo{data.size(), header.size() + body.size(),
                      compressed.has_value()};
}

EncodedBlobV4 encode_blob_v4(std::span<const std::byte> data) {
  auto compressed = lz_compress(data);
  std::span<const std::byte> body =
      compressed ? std::span<const std::byte>(*compressed) : data;
  ByteWriter out(kBlobV4HeaderBytes + body.size());
  out.u64(data.size());
  out.u32(crc32(data));
  out.u8(compressed ? kBlobFlagCompressed : 0);
  out.u64(body.size());
  out.u32(crc32(out.data()));
  out.raw(body);
  bulk_metrics().blobs_sent.inc();
  bulk_metrics().bulk_bytes_sent.inc(out.size());
  BlobWireInfo info{data.size(), kBlobV4HeaderBytes + body.size(),
                    compressed.has_value()};
  return EncodedBlobV4{out.take(), info};
}

std::vector<std::byte> recv_blob_v4(TcpStream& stream, std::size_t max_bytes,
                                    double* decompress_s,
                                    std::vector<std::byte>* wire_scratch) {
  std::byte header_buf[kBlobV4HeaderBytes];
  stream.recv_all(header_buf, kMidStreamStallMs);
  ByteReader header(header_buf);
  std::uint64_t raw_size = header.u64();
  std::uint32_t expected_crc = header.u32();
  std::uint8_t flags = header.u8();
  std::uint64_t wire_size = header.u64();
  std::uint32_t header_crc = header.u32();
  if (crc32(std::span(header_buf).first(kBlobV4LengthsBytes)) != header_crc) {
    throw ProtocolError("bulk blob header CRC mismatch");
  }
  if (raw_size > max_bytes || wire_size > max_bytes) {
    throw IoError("bulk blob too large: raw " + std::to_string(raw_size) +
                  " / wire " + std::to_string(wire_size) + " bytes");
  }
  if (flags & ~kBlobFlagCompressed) {
    throw ProtocolError("bulk blob: unknown flags");
  }
  bool is_compressed = flags & kBlobFlagCompressed;
  if (!is_compressed && wire_size != raw_size) {
    throw ProtocolError("bulk blob: stored size mismatch");
  }
  // A stored body is the blob itself; a compressed one is only read, so it
  // goes to the caller's scratch buffer when there is one.
  std::vector<std::byte> data;
  std::vector<std::byte> local;
  std::vector<std::byte>& body =
      !is_compressed ? data : (wire_scratch ? *wire_scratch : local);
  body.resize(wire_size);
  std::size_t off = 0;
  while (off < body.size()) {
    std::size_t n = std::min(kBulkChunk, body.size() - off);
    stream.recv_all(std::span(body).subspan(off, n), kMidStreamStallMs);
    off += n;
  }
  if (is_compressed) {
    Stopwatch inflate;
    data = lz_decompress(body, raw_size);
    if (decompress_s) *decompress_s += inflate.seconds();
  }
  if (crc32(data) != expected_crc) {
    throw ProtocolError("bulk blob CRC mismatch");
  }
  bulk_metrics().blobs_received.inc();
  bulk_metrics().bulk_bytes_received.inc(sizeof(header_buf) + wire_size);
  return data;
}

}  // namespace hdcs::net
