#include "core/messages.hpp"

#include <algorithm>
#include <iterator>
#include <limits>

#include "interest/delta.hpp"

namespace watchmen::core {

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kStateUpdate: return "state-update";
    case MsgType::kPositionUpdate: return "position-update";
    case MsgType::kGuidance: return "guidance";
    case MsgType::kSubscribe: return "subscribe";
    case MsgType::kHandoff: return "handoff";
    case MsgType::kKillClaim: return "kill-claim";
    case MsgType::kChurnNotice: return "churn-notice";
    case MsgType::kSubscriberList: return "subscriber-list";
    case MsgType::kAck: return "ack";
    case MsgType::kRejoinNotice: return "rejoin-notice";
    case MsgType::kBatch: return "batch";
    case MsgType::kHeartbeat: return "heartbeat";
  }
  return "?";
}

namespace {

/// High bit of the leading type byte: marks the varint header. MsgType
/// values stay well below 0x80.
constexpr std::uint8_t kHeaderTagBit = 0x80;

void write_header(ByteWriter& w, const MsgHeader& h) {
  w.u8(static_cast<std::uint8_t>(h.type) | kHeaderTagBit);
  w.varint(h.origin);
  w.varint(h.subject);
  w.varint(interest::zigzag(h.frame));
  w.varint(h.seq);
}

std::uint32_t narrow_id(std::uint64_t v, const char* what) {
  if (v > std::numeric_limits<std::uint32_t>::max()) throw DecodeError(what);
  return static_cast<std::uint32_t>(v);
}

MsgHeader read_header(ByteReader& r) {
  MsgHeader h;
  const std::uint8_t tag = r.u8();
  if (!(tag & kHeaderTagBit)) throw DecodeError("fixed-width header retired");
  h.type = checked_enum<MsgType>(tag & ~kHeaderTagBit, kNumMsgTypes,
                                 "message type");
  h.origin = narrow_id(r.varint(), "origin out of range");
  h.subject = narrow_id(r.varint(), "subject out of range");
  h.frame = interest::unzigzag(r.varint());
  h.seq = narrow_id(r.varint(), "seq out of range");
  return h;
}

}  // namespace

std::vector<std::uint8_t> seal(const MsgHeader& header,
                               std::span<const std::uint8_t> body,
                               const crypto::KeyPair& key) {
  ByteWriter w;
  write_header(w, header);
  w.bytes(body);
  const crypto::Signature sig = crypto::sign(key, w.data());
  const auto sig_bytes = sig.encode();
  w.bytes(sig_bytes);
  return w.take();
}

namespace {

std::optional<ParsedMessage> parse(std::span<const std::uint8_t> wire,
                                   const crypto::KeyRegistry* keys) {
  try {
    if (wire.size() < crypto::kSignatureBytes) return std::nullopt;
    const std::size_t signed_len = wire.size() - crypto::kSignatureBytes;
    ByteReader r(wire.first(signed_len));
    ParsedMessage msg;
    msg.header = read_header(r);
    const auto body = r.bytes(r.remaining());
    msg.body.assign(body.begin(), body.end());

    if (keys) {
      if (msg.header.origin >= keys->size()) return std::nullopt;
      const auto sig = crypto::Signature::decode(wire.subspan(signed_len));
      if (!crypto::verify(keys->public_key(msg.header.origin),
                          wire.first(signed_len), sig)) {
        return std::nullopt;
      }
    }
    return msg;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

}  // namespace

std::optional<ParsedMessage> open(std::span<const std::uint8_t> wire,
                                  const crypto::KeyRegistry& keys) {
  return parse(wire, &keys);
}

std::optional<ParsedMessage> open_unverified(std::span<const std::uint8_t> wire) {
  return parse(wire, nullptr);
}

bool is_batch_wire(std::span<const std::uint8_t> wire) {
  return !wire.empty() &&
         wire[0] == static_cast<std::uint8_t>(MsgType::kBatch);
}

std::vector<std::uint8_t> encode_batch(
    const std::vector<std::vector<std::uint8_t>>& wires) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kBatch));
  w.varint(wires.size());
  for (const auto& sub : wires) w.blob(sub);
  return w.take();
}

BatchPrefix decode_batch_prefix(std::span<const std::uint8_t> wire) noexcept {
  BatchPrefix out;
  try {
    ByteReader r(wire);
    if (checked_enum<MsgType>(r.u8(), kNumMsgTypes, "message type") !=
        MsgType::kBatch) {
      return out;
    }
    const auto n = r.varint();
    if (n > kMaxBatchMessages) return out;
    out.wires.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto len = r.varint();
      if (len > r.remaining()) return out;  // truncated tail: keep the prefix
      out.wires.push_back(wire.subspan(wire.size() - r.remaining(), len));
      r.bytes(len);
    }
    out.complete = r.done();
  } catch (const DecodeError&) {
    // Header or a length varint itself was cut: whatever sub-wires were
    // already collected are intact, return them.
  }
  return out;
}

std::vector<std::uint8_t> encode_state_body(const game::AvatarState& s) {
  return interest::encode_full(s);
}

game::AvatarState decode_state_body(std::span<const std::uint8_t> body) {
  return interest::decode_full(body);
}

std::vector<std::uint8_t> encode_position_body(const Vec3& pos) {
  ByteWriter w;
  w.f32(static_cast<float>(pos.x));
  w.f32(static_cast<float>(pos.y));
  w.f32(static_cast<float>(pos.z));
  return w.take();
}

Vec3 decode_position_body(std::span<const std::uint8_t> body) {
  ByteReader r(body);
  const double x = r.f32();
  const double y = r.f32();
  const double z = r.f32();
  r.expect_done("trailing bytes in position body");
  return {x, y, z};
}

std::vector<std::uint8_t> encode_guidance_body(const interest::Guidance& g) {
  ByteWriter w;
  w.varint(interest::zigzag(g.frame));
  interest::write_vec_q(w, Vec3{}, g.pos);
  interest::write_vec_q(w, Vec3{}, g.vel);
  w.varint(interest::zigzag(interest::quant_ang(g.yaw)));
  w.varint(interest::zigzag(interest::quant_ang(g.pitch)));
  w.varint(interest::zigzag(g.health));
  w.u8(static_cast<std::uint8_t>(g.weapon));
  w.varint(g.waypoints.size());
  // Waypoints chain off the position: dead-reckoning paths move a few units
  // per waypoint, so each coordinate is a 1-2 byte varint.
  Vec3 ref = g.pos;
  for (const Vec3& p : g.waypoints) {
    interest::write_vec_q(w, ref, p);
    ref = p;
  }
  return w.take();
}

interest::Guidance decode_guidance_body(std::span<const std::uint8_t> body) {
  ByteReader r(body);
  interest::Guidance g;
  g.frame = interest::unzigzag(r.varint());
  g.pos = interest::read_vec_q(r, Vec3{});
  g.vel = interest::read_vec_q(r, Vec3{});
  g.yaw = interest::dequant_ang(
      static_cast<std::int32_t>(interest::unzigzag(r.varint())));
  g.pitch = interest::dequant_ang(
      static_cast<std::int32_t>(interest::unzigzag(r.varint())));
  g.health = static_cast<std::int32_t>(interest::unzigzag(r.varint()));
  g.weapon = checked_enum<game::WeaponKind>(r.u8(), game::kNumWeapons, "weapon");
  const auto n = r.varint();
  // The count is attacker-controlled: cap the pre-allocation; an oversized
  // count simply runs the reader off the end and throws DecodeError.
  if (n > 64) throw DecodeError("too many guidance waypoints");
  g.waypoints.reserve(n);
  Vec3 ref = g.pos;
  for (std::uint64_t i = 0; i < n; ++i) {
    g.waypoints.push_back(interest::read_vec_q(r, ref));
    ref = g.waypoints.back();
  }
  r.expect_done("trailing bytes in guidance body");
  return g;
}

std::vector<std::uint8_t> encode_subscribe_body(interest::SetKind kind) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(kind));
  return w.take();
}

interest::SetKind decode_subscribe_body(std::span<const std::uint8_t> body) {
  ByteReader r(body);
  const auto kind = checked_enum<interest::SetKind>(
      r.u8(), interest::kNumSetKinds, "set kind");
  r.expect_done("trailing bytes in subscribe body");
  return kind;
}

std::vector<std::uint8_t> encode_kill_body(const KillClaim& k) {
  ByteWriter w;
  w.u32(k.victim);
  w.u8(static_cast<std::uint8_t>(k.weapon));
  w.f32(static_cast<float>(k.distance));
  w.f32(static_cast<float>(k.victim_pos.x));
  w.f32(static_cast<float>(k.victim_pos.y));
  w.f32(static_cast<float>(k.victim_pos.z));
  return w.take();
}

KillClaim decode_kill_body(std::span<const std::uint8_t> body) {
  ByteReader r(body);
  KillClaim k;
  k.victim = r.u32();
  k.weapon = checked_enum<game::WeaponKind>(r.u8(), game::kNumWeapons, "weapon");
  k.distance = r.f32();
  k.victim_pos = {r.f32(), r.f32(), r.f32()};
  r.expect_done("trailing bytes in kill body");
  return k;
}

std::vector<std::uint8_t> encode_churn_body(std::int64_t removal_round) {
  ByteWriter w;
  w.i64(removal_round);
  return w.take();
}

std::int64_t decode_churn_body(std::span<const std::uint8_t> body) {
  ByteReader r(body);
  const std::int64_t round = r.i64();
  r.expect_done("trailing bytes in churn body");
  return round;
}

std::vector<std::uint8_t> encode_ack_body(const AckBody& a) {
  ByteWriter w;
  w.varint(a.acked_origin);
  w.u32(a.acked_seq);
  w.u8(static_cast<std::uint8_t>(a.acked_type));
  return w.take();
}

AckBody decode_ack_body(std::span<const std::uint8_t> body) {
  ByteReader r(body);
  AckBody a;
  a.acked_origin = static_cast<PlayerId>(r.varint());
  a.acked_seq = r.u32();
  a.acked_type = checked_enum<MsgType>(r.u8(), kNumMsgTypes, "acked type");
  r.expect_done("trailing bytes in ack body");
  return a;
}

std::vector<std::uint8_t> encode_rejoin_body(std::int64_t restore_round) {
  ByteWriter w;
  w.i64(restore_round);
  return w.take();
}

std::int64_t decode_rejoin_body(std::span<const std::uint8_t> body) {
  ByteReader r(body);
  const std::int64_t round = r.i64();
  r.expect_done("trailing bytes in rejoin body");
  return round;
}

namespace {

constexpr std::uint64_t kMaxSubscribers = 4096;

std::vector<PlayerId> sorted_ids(const std::vector<PlayerId>& ids) {
  std::vector<PlayerId> s = ids;
  std::sort(s.begin(), s.end());
  s.erase(std::unique(s.begin(), s.end()), s.end());
  return s;
}

// Sorted ids as gap-coded varints: first id absolute, then differences.
void write_id_gaps(ByteWriter& w, const std::vector<PlayerId>& sorted) {
  w.varint(sorted.size());
  PlayerId prev = 0;
  for (PlayerId p : sorted) {
    w.varint(p - prev);
    prev = p;
  }
}

std::vector<PlayerId> read_id_gaps(ByteReader& r) {
  const auto n = r.varint();
  if (n > kMaxSubscribers) throw DecodeError("implausible subscriber count");
  std::vector<PlayerId> out;
  out.reserve(n);
  PlayerId prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto gap = r.varint();
    // Decoded ids must be strictly increasing (the canonical sorted-unique
    // form the encoder writes): a zero gap would smuggle in duplicates and
    // an overflowing one would wrap, and the set algebra above both relies
    // on sorted-set inputs.
    if (i > 0 && gap == 0) throw DecodeError("duplicate subscriber id");
    if (gap > std::numeric_limits<PlayerId>::max() - prev) {
      throw DecodeError("subscriber id overflow");
    }
    prev = static_cast<PlayerId>(prev + gap);
    out.push_back(prev);
  }
  return out;
}

}  // namespace

std::uint16_t subscriber_list_hash(const std::vector<PlayerId>& subscribers) {
  // FNV-1a over the sorted ids, folded to 16 bits. Order-insensitive (the
  // input is sorted first) so sender and receiver agree regardless of how
  // their copies were built.
  const std::vector<PlayerId> s = sorted_ids(subscribers);
  std::uint32_t h = 2166136261u;
  for (PlayerId p : s) {
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (p >> shift) & 0xff;
      h *= 16777619u;
    }
  }
  return static_cast<std::uint16_t>(h ^ (h >> 16));
}

std::vector<std::uint8_t> encode_subscriber_list_body(
    const std::vector<PlayerId>& subscribers) {
  ByteWriter w;
  w.u8(0);  // mode 0: full list
  write_id_gaps(w, sorted_ids(subscribers));
  return w.take();
}

std::vector<std::uint8_t> encode_subscriber_list_diff_body(
    const std::vector<PlayerId>& baseline,
    const std::vector<PlayerId>& subscribers) {
  const std::vector<PlayerId> old_ids = sorted_ids(baseline);
  const std::vector<PlayerId> new_ids = sorted_ids(subscribers);
  std::vector<PlayerId> removed, added;
  std::set_difference(old_ids.begin(), old_ids.end(), new_ids.begin(),
                      new_ids.end(), std::back_inserter(removed));
  std::set_difference(new_ids.begin(), new_ids.end(), old_ids.begin(),
                      old_ids.end(), std::back_inserter(added));
  ByteWriter w;
  w.u8(1);  // mode 1: diff
  w.u16(subscriber_list_hash(old_ids));
  write_id_gaps(w, removed);
  write_id_gaps(w, added);
  return w.take();
}

std::optional<std::vector<PlayerId>> decode_subscriber_list_body(
    std::span<const std::uint8_t> body, const std::vector<PlayerId>& baseline) {
  ByteReader r(body);
  const std::uint8_t mode = r.u8();
  if (mode > 1) throw DecodeError("unknown subscriber-list mode");
  if (mode == 0) {
    auto full = read_id_gaps(r);
    r.expect_done("trailing bytes in subscriber list");
    return full;
  }
  const std::uint16_t hash = r.u16();
  const std::vector<PlayerId> removed = read_id_gaps(r);
  const std::vector<PlayerId> added = read_id_gaps(r);
  r.expect_done("trailing bytes in subscriber diff");
  const std::vector<PlayerId> base = sorted_ids(baseline);
  if (hash != subscriber_list_hash(base)) return std::nullopt;
  std::vector<PlayerId> kept;
  std::set_difference(base.begin(), base.end(), removed.begin(), removed.end(),
                      std::back_inserter(kept));
  std::vector<PlayerId> out;
  std::set_union(kept.begin(), kept.end(), added.begin(), added.end(),
                 std::back_inserter(out));
  if (out.size() > kMaxSubscribers) {
    throw DecodeError("implausible subscriber count");
  }
  return out;
}

}  // namespace watchmen::core
