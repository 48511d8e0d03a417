#pragma once
// Field-mask coding of avatar states: a field bitmask followed by only the
// fields that differ from a baseline, with positions quantized to 1/8 unit
// and angles to ~0.0001 rad — the same trick Quake III's snapshot encoding
// uses. A full encoding is the delta against a default-constructed
// baseline; state updates and handoff summaries carry full encodings, as
// the paper sends IS members a full state update every frame (§II).

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "game/avatar.hpp"
#include "util/bytes.hpp"

namespace watchmen::interest {

// Shared quantization grid. The delta coder, the quantized guidance wire
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

/// Serializes `cur` as a delta against `prev`.
std::vector<std::uint8_t> encode_delta(const game::AvatarState& prev,
                                       const game::AvatarState& cur);

/// Reconstructs the state from a delta and its baseline.
game::AvatarState decode_delta(const game::AvatarState& prev,
                               std::span<const std::uint8_t> bytes);

/// Full encoding (baseline = default AvatarState).
inline std::vector<std::uint8_t> encode_full(const game::AvatarState& cur) {
  return encode_delta(game::AvatarState{}, cur);
}
inline game::AvatarState decode_full(std::span<const std::uint8_t> bytes) {
  return decode_delta(game::AvatarState{}, bytes);
}

}  // namespace watchmen::interest
