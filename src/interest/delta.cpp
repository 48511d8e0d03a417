#include "interest/delta.hpp"

#include <cmath>

namespace watchmen::interest {
namespace {

// Field bits.
enum : std::uint16_t {
  kPos = 1 << 0,
  kVel = 1 << 1,
  kYaw = 1 << 2,
  kPitch = 1 << 3,
  kHealth = 1 << 4,
  kArmor = 1 << 5,
  kWeapon = 1 << 6,
  kAmmo = 1 << 7,
  kFlags = 1 << 8,
  kFrags = 1 << 9,
};

bool same_vec_q(const Vec3& a, const Vec3& b) {
  return quant_pos(a.x) == quant_pos(b.x) && quant_pos(a.y) == quant_pos(b.y) &&
         quant_pos(a.z) == quant_pos(b.z);
}

// Differences are taken in 64-bit: states can come off the wire, so the
// quantized operands span the whole int32 range and a 32-bit subtraction
// (or the reader's addition below) would be signed overflow.
std::uint64_t diff_q(std::int32_t cur, std::int32_t prev) {
  return zigzag(static_cast<std::int64_t>(cur) - prev);
}

std::int32_t apply_diff_q(std::int32_t prev, std::uint64_t wire) {
  return static_cast<std::int32_t>(prev + unzigzag(wire));
}

std::uint8_t flags_of(const game::AvatarState& a) {
  return static_cast<std::uint8_t>((a.alive ? 1 : 0) | (a.has_quad ? 2 : 0));
}

}  // namespace

void write_vec_q(ByteWriter& w, const Vec3& ref, const Vec3& v) {
  w.varint(diff_q(quant_pos(v.x), quant_pos(ref.x)));
  w.varint(diff_q(quant_pos(v.y), quant_pos(ref.y)));
  w.varint(diff_q(quant_pos(v.z), quant_pos(ref.z)));
}

Vec3 read_vec_q(ByteReader& r, const Vec3& ref) {
  const double x = dequant_pos(apply_diff_q(quant_pos(ref.x), r.varint()));
  const double y = dequant_pos(apply_diff_q(quant_pos(ref.y), r.varint()));
  const double z = dequant_pos(apply_diff_q(quant_pos(ref.z), r.varint()));
  return {x, y, z};
}

std::vector<std::uint8_t> encode_full(const game::AvatarState& cur) {
  const game::AvatarState base;
  std::uint16_t mask = 0;
  if (!same_vec_q(base.pos, cur.pos)) mask |= kPos;
  if (!same_vec_q(base.vel, cur.vel)) mask |= kVel;
  if (quant_ang(base.yaw) != quant_ang(cur.yaw)) mask |= kYaw;
  if (quant_ang(base.pitch) != quant_ang(cur.pitch)) mask |= kPitch;
  if (base.health != cur.health) mask |= kHealth;
  if (base.armor != cur.armor) mask |= kArmor;
  if (base.weapon != cur.weapon) mask |= kWeapon;
  if (base.ammo != cur.ammo) mask |= kAmmo;
  if (flags_of(base) != flags_of(cur)) mask |= kFlags;
  if (base.frags != cur.frags) mask |= kFrags;

  ByteWriter w;
  w.u16(mask);
  if (mask & kPos) write_vec_q(w, base.pos, cur.pos);
  if (mask & kVel) write_vec_q(w, base.vel, cur.vel);
  if (mask & kYaw) w.varint(diff_q(quant_ang(cur.yaw), quant_ang(base.yaw)));
  if (mask & kPitch) {
    w.varint(diff_q(quant_ang(cur.pitch), quant_ang(base.pitch)));
  }
  if (mask & kHealth) w.varint(diff_q(cur.health, base.health));
  if (mask & kArmor) w.varint(diff_q(cur.armor, base.armor));
  if (mask & kWeapon) w.u8(static_cast<std::uint8_t>(cur.weapon));
  if (mask & kAmmo) w.varint(diff_q(cur.ammo, base.ammo));
  if (mask & kFlags) w.u8(flags_of(cur));
  if (mask & kFrags) w.varint(diff_q(cur.frags, base.frags));
  return w.take();
}

game::AvatarState decode_full(std::span<const std::uint8_t> bytes) {
  const game::AvatarState base;
  ByteReader r(bytes);
  game::AvatarState cur;
  const std::uint16_t mask = r.u16();
  if (mask & kPos) cur.pos = read_vec_q(r, base.pos);
  if (mask & kVel) cur.vel = read_vec_q(r, base.vel);
  if (mask & kYaw) {
    cur.yaw = dequant_ang(apply_diff_q(quant_ang(base.yaw), r.varint()));
  }
  if (mask & kPitch) {
    cur.pitch = dequant_ang(apply_diff_q(quant_ang(base.pitch), r.varint()));
  }
  if (mask & kHealth) {
    cur.health = apply_diff_q(base.health, r.varint());
  }
  if (mask & kArmor) {
    cur.armor = apply_diff_q(base.armor, r.varint());
  }
  if (mask & kWeapon) {
    cur.weapon =
        checked_enum<game::WeaponKind>(r.u8(), game::kNumWeapons, "weapon");
  }
  if (mask & kAmmo) {
    cur.ammo = apply_diff_q(base.ammo, r.varint());
  }
  if (mask & kFlags) {
    const std::uint8_t f = r.u8();
    cur.alive = f & 1;
    cur.has_quad = f & 2;
  }
  if (mask & kFrags) {
    cur.frags = apply_diff_q(base.frags, r.varint());
  }
  r.expect_done("trailing bytes in state encoding");
  return cur;
}

}  // namespace watchmen::interest
