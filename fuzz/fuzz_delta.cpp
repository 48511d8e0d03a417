// Fuzz target: interest::delta — the Quake-style field-mask codec every
// state update on the wire goes through.
//
// Invariants checked:
//  * decode_full() throws DecodeError or returns a state;
//  * a returned state survives encode_full → decode_full exactly at the
//    integer fields and at quantization resolution for positions/angles
//    (the decoder only ever produces quantization-grid values, so the
//    round trip is exact).

#include <cstdint>
#include <cstdlib>
#include <span>

#include "interest/delta.hpp"
#include "util/bytes.hpp"

using namespace watchmen;
using namespace watchmen::interest;

namespace {

void check_same(const game::AvatarState& a, const game::AvatarState& b) {
  if (a.health != b.health || a.armor != b.armor || a.weapon != b.weapon ||
      a.ammo != b.ammo || a.alive != b.alive || a.has_quad != b.has_quad ||
      a.frags != b.frags) {
    std::abort();
  }
  // Decoded states sit exactly on the quantization grid, so equality after
  // a re-encode round trip is exact, not approximate.
  if (a.pos.x != b.pos.x || a.pos.y != b.pos.y || a.pos.z != b.pos.z ||
      a.vel.x != b.vel.x || a.vel.y != b.vel.y || a.vel.z != b.vel.z ||
      a.yaw != b.yaw || a.pitch != b.pitch) {
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> in(data, size);
  try {
    const game::AvatarState s = decode_full(in);
    const game::AvatarState rt = decode_full(encode_full(s));
    check_same(s, rt);
  } catch (const DecodeError&) {
    // Malformed input: the defined rejection path.
  }
  return 0;
}
