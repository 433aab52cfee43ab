#pragma once
// Explicit little-endian binary serialization.
//
// This is the wire format shared by the network layer (framed messages) and
// the application layer (WorkUnit / ResultUnit payloads). Everything is
// written explicitly — no struct memcpy — so the format is identical across
// compilers and architectures, which is the point of a heterogeneous system.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace hdcs {

/// Append-only binary writer. Little-endian, length-prefixed containers.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i32(std::int32_t v) { put_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed (u32) string.
  void str(std::string_view s);
  /// Length-prefixed (u32) raw bytes.
  void bytes(std::span<const std::byte> b);
  /// Raw bytes with no length prefix (caller knows the size).
  void raw(std::span<const std::byte> b);

  void f64_vec(const std::vector<double>& v);
  void u32_vec(const std::vector<std::uint32_t>& v);
  void u64_vec(const std::vector<std::uint64_t>& v);
  void str_vec(const std::vector<std::string>& v);

  [[nodiscard]] const std::vector<std::byte>& data() const { return buf_; }
  [[nodiscard]] std::vector<std::byte> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
    }
  }
  std::vector<std::byte> buf_;
};

/// Bounds-checked binary reader over a borrowed span. Throws
/// SerializationError on underflow; never reads past the span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}
  /// Guard against binding the span to a temporary buffer (dangling view).
  explicit ByteReader(std::vector<std::byte>&&) = delete;

  std::uint8_t u8();
  std::uint16_t u16() { return get_le<std::uint16_t>(); }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  bool boolean() { return u8() != 0; }

  std::string str();
  /// Borrow a length-prefixed string (no copy); valid while the source is.
  std::string_view str_view();
  std::vector<std::byte> bytes();
  /// Borrow `n` raw bytes (no copy); the view is valid while the source is.
  std::span<const std::byte> raw(std::size_t n);

  std::vector<double> f64_vec();
  std::vector<std::uint32_t> u32_vec();
  std::vector<std::uint64_t> u64_vec();
  std::vector<std::string> str_vec();

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return remaining() == 0; }
  /// Throws unless the whole buffer was consumed — catches format drift.
  void expect_end() const;

 private:
  template <typename T>
  T get_le() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }
  void need(std::size_t n) const;

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Convenience: view a string's bytes as std::byte span.
inline std::span<const std::byte> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

}  // namespace hdcs
