#pragma once
// Field-mask coding of avatar states: a field bitmask followed by only the
// fields that differ from the default state, with positions quantized to
// 1/8 unit and angles to ~0.0001 rad — the same trick Quake III's snapshot
// encoding uses. State updates and handoff summaries carry this encoding,
// as the paper sends IS members a full state update every frame (§II).

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "game/avatar.hpp"
#include "util/bytes.hpp"

namespace watchmen::interest {

// Shared quantization grid. The field-mask coder, the quantized guidance wire
// and the bandwidth model all round through these, so "equal after a
// round-trip" means equal on this grid everywhere.
inline std::int32_t quant_pos(double v) {
  return static_cast<std::int32_t>(std::lround(v * 8.0));
}
inline double dequant_pos(std::int32_t q) { return static_cast<double>(q) / 8.0; }
inline std::int32_t quant_ang(double v) {
  return static_cast<std::int32_t>(std::lround(v * 10000.0));
}
inline double dequant_ang(std::int32_t q) {
  return static_cast<double>(q) / 10000.0;
}

/// Zigzag mapping so small signed differences become small varints.
inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// A Vec3 on the position grid as zigzag-varint differences against `ref`'s
/// quantized value: a few bytes for nearby points instead of 12. State
/// fields take the default state as `ref`; guidance waypoints chain off the
/// previous point.
void write_vec_q(ByteWriter& w, const Vec3& ref, const Vec3& v);
Vec3 read_vec_q(ByteReader& r, const Vec3& ref);

/// Serializes a state as its differences from the default AvatarState.
std::vector<std::uint8_t> encode_full(const game::AvatarState& cur);

/// Reconstructs a state from encode_full's bytes; throws DecodeError on a
/// malformed or overlong encoding.
game::AvatarState decode_full(std::span<const std::uint8_t> bytes);

}  // namespace watchmen::interest
