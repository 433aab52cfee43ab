#pragma once
// Bulk data channel.
//
// "Data files, which may be large, are transmitted using ordinary sockets,
// which is more efficient than RMI" (paper §2.2). Control frames are capped
// at kMaxPayload; anything bigger — a FASTA database, an alignment — moves
// through this chunked transfer with a leading u64 length and a trailing
// CRC32 so truncation or corruption is detected rather than silently merged.

#include <cstdint>
#include <span>
#include <vector>

#include "net/socket.hpp"

namespace hdcs::net {

inline constexpr std::size_t kBulkChunk = 256 * 1024;

/// Default receive-side blob cap. The old default of 4 GiB meant one
/// corrupt length header could exhaust donor RAM; anything bigger than this
/// must be opted into via ClientConfig/ServerConfig::max_blob_bytes.
inline constexpr std::size_t kDefaultMaxBlobBytes = 256ull * 1024 * 1024;

/// CRC-32 (IEEE, reflected) of a byte span.
std::uint32_t crc32(std::span<const std::byte> data);

/// Send length + chunks + CRC.
void send_blob(TcpStream& stream, std::span<const std::byte> data);

/// Serialize a v3 blob (length + CRC header, then the body) to bytes for a
/// non-blocking write queue. Same wire bytes and counters as send_blob.
std::vector<std::byte> encode_blob(std::span<const std::byte> data);

/// Receive a blob; throws ProtocolError on CRC mismatch, IoError on size
/// above max_bytes (guards against a corrupt length header allocating GBs).
std::vector<std::byte> recv_blob(TcpStream& stream,
                                 std::size_t max_bytes = kDefaultMaxBlobBytes);

/// What send_blob_v4 put on the wire (for byte accounting and trace events).
struct BlobWireInfo {
  std::uint64_t raw_bytes = 0;
  std::uint64_t wire_bytes = 0;  // header + body actually transmitted
  bool compressed = false;
};

/// Protocol-v4 blob transfer with transparent compression:
///
///   u64 raw_size | u32 crc32(raw) | u8 flags | u64 wire_size | body chunks
///
/// flags bit 0 = body is lz_compress output (raw otherwise). Incompressible
/// data is sent stored, so the flag — not a heuristic — decides decoding.
/// The CRC is always over the *raw* bytes and is checked after
/// decompression, so corruption anywhere surfaces as ProtocolError.
BlobWireInfo send_blob_v4(TcpStream& stream, std::span<const std::byte> data);

/// Serialize a v4 blob (header + possibly-compressed body) to bytes for a
/// non-blocking write queue. Same wire bytes and counters as send_blob_v4.
struct EncodedBlobV4 {
  std::vector<std::byte> bytes;
  BlobWireInfo info;
};
EncodedBlobV4 encode_blob_v4(std::span<const std::byte> data);

/// Receive a v4 blob. Both raw_size and wire_size are bounded by max_bytes
/// before any allocation. When `decompress_s` is non-null, the wall seconds
/// spent in LZ decompression are *added* to it (span profiling). A
/// compressed body is read into `wire_scratch` when given, so a caller
/// receiving blob after blob reuses one buffer instead of allocating and
/// freeing a body-sized one per blob.
std::vector<std::byte> recv_blob_v4(
    TcpStream& stream, std::size_t max_bytes = kDefaultMaxBlobBytes,
    double* decompress_s = nullptr,
    std::vector<std::byte>* wire_scratch = nullptr);

}  // namespace hdcs::net

namespace hdcs::obs {
class Counter;
}

namespace hdcs::net {

/// The bulk-data-plane counters (process-global registry). One accessor so
/// the TCP server, the donor client and the simulator bump the same names:
///   bulk.blobs_sent       blobs actually transferred (server->donor)
///   bulk.blobs_cache_hit  transfers avoided by a donor cache hit
///   bulk.bytes_raw        uncompressed bytes of transferred blobs
///   bulk.bytes_wire       bytes put on the wire for them (post-compression)
struct BulkPlaneMetrics {
  obs::Counter& blobs_sent;
  obs::Counter& blobs_cache_hit;
  obs::Counter& bytes_raw;
  obs::Counter& bytes_wire;
};
BulkPlaneMetrics& bulk_plane_metrics();

}  // namespace hdcs::net
