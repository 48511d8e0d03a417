#pragma once
// Bounds-checked binary serialization (little-endian on the wire).
//
// Used for message encoding in the Watchmen protocol and for game traces.
// Readers never read past the end: a failed read throws DecodeError, which
// the protocol layer treats exactly like a malformed / tampered message.

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace watchmen {

struct DecodeError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Decodes a raw byte into a closed enum with enumerators 0..count-1.
/// Out-of-range values throw DecodeError, so adversarial bytes can never
/// materialize an enumerator the rest of the code does not expect.
template <typename E>
E checked_enum(std::uint8_t raw, unsigned count, const char* what) {
  if (raw >= count) throw DecodeError(std::string("invalid ") + what);
  return static_cast<E>(raw);
}

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i32(std::int32_t v) { append_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }

  void f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u32(bits);
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

  /// LEB128-style unsigned varint.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Length-prefixed byte string.
  void blob(std::span<const std::uint8_t> data) {
    varint(data.size());
    bytes(data);
  }

  void str(std::string_view s) {
    varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Bytes ByteWriter::varint(v) writes.
inline std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  float f32() {
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b = u8();
      // The 10th byte (shift 63) contributes a single bit; any higher payload
      // bit would be silently shifted out, so a value above 1 means the
      // encoding does not fit in 64 bits.
      if (shift == 63 && (b & 0x7f) > 1) {
        throw DecodeError("varint overflows 64 bits");
      }
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) return v;
    }
    throw DecodeError("varint too long");
  }

  std::span<const std::uint8_t> bytes(std::size_t n) { return take(n); }

  std::vector<std::uint8_t> blob() {
    const auto n = varint();
    const auto s = take(n);
    return {s.begin(), s.end()};
  }

  std::string str() {
    const auto n = varint();
    const auto s = take(n);
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return remaining() == 0; }
  /// Rejects unread bytes: a payload that ends where its container ends
  /// (a message body at the signature) carries nothing past its last field.
  void expect_done(const char* what) const {
    if (!done()) throw DecodeError(what);
  }

 private:
  std::span<const std::uint8_t> take(std::size_t n) {
    if (n > remaining()) throw DecodeError("read past end of buffer");
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  template <typename T>
  T read_le() {
    const auto s = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(s[i]) << (8 * i));
    }
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace watchmen
