#include "util/byte_buffer.hpp"

#include <bit>
#include <cstring>

namespace hdcs {

void ByteWriter::f64(double v) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  raw(as_bytes(s));
}

void ByteWriter::bytes(std::span<const std::byte> b) {
  u32(static_cast<std::uint32_t>(b.size()));
  raw(b);
}

void ByteWriter::raw(std::span<const std::byte> b) {
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void ByteWriter::f64_vec(const std::vector<double>& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  for (double x : v) f64(x);
}

void ByteWriter::u32_vec(const std::vector<std::uint32_t>& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  for (auto x : v) u32(x);
}

void ByteWriter::u64_vec(const std::vector<std::uint64_t>& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  for (auto x : v) u64(x);
}

void ByteWriter::str_vec(const std::vector<std::string>& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& s : v) str(s);
}

void ByteReader::need(std::size_t n) const {
  if (remaining() < n) {
    throw SerializationError("ByteReader underflow: need " + std::to_string(n) +
                             " bytes, have " + std::to_string(remaining()));
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

double ByteReader::f64() {
  std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ByteReader::str() {
  std::uint32_t n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::string_view ByteReader::str_view() {
  std::uint32_t n = u32();
  auto bytes = raw(n);
  return {reinterpret_cast<const char*>(bytes.data()), n};
}

std::vector<std::byte> ByteReader::bytes() {
  std::uint32_t n = u32();
  auto view = raw(n);
  return {view.begin(), view.end()};
}

std::span<const std::byte> ByteReader::raw(std::size_t n) {
  need(n);
  auto view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

std::vector<double> ByteReader::f64_vec() {
  std::uint32_t n = u32();
  std::vector<double> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(f64());
  return v;
}

std::vector<std::uint32_t> ByteReader::u32_vec() {
  std::uint32_t n = u32();
  std::vector<std::uint32_t> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(u32());
  return v;
}

std::vector<std::uint64_t> ByteReader::u64_vec() {
  std::uint32_t n = u32();
  std::vector<std::uint64_t> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(u64());
  return v;
}

std::vector<std::string> ByteReader::str_vec() {
  std::uint32_t n = u32();
  std::vector<std::string> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(str());
  return v;
}

void ByteReader::expect_end() const {
  if (!at_end()) {
    throw SerializationError("ByteReader: " + std::to_string(remaining()) +
                             " trailing bytes after decode");
  }
}

}  // namespace hdcs
