#pragma once
// Watchmen wire protocol: signed message envelopes (paper §III-B, §IV).
//
// Every message a player emits is signed with its session key; proxies
// forward messages with the origin's signature intact, so they cannot
// tamper with, replay (frame+seq are under the signature), or spoof them.
// A ~16-byte signature on a ~50-90-byte update reproduces the paper's cost
// ratio (~100-bit signatures vs ~700-bit state updates).

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/keys.hpp"
#include "crypto/sig.hpp"
#include "game/avatar.hpp"
#include "interest/deadreckoning.hpp"
#include "interest/sets.hpp"
#include "util/bytes.hpp"
#include "util/ids.hpp"

namespace watchmen::core {

enum class MsgType : std::uint8_t {
  kStateUpdate = 0,     ///< frequent full state (player -> proxy -> IS subs)
  kPositionUpdate = 1,  ///< infrequent position-only (-> everyone else)
  kGuidance = 2,        ///< dead-reckoning guidance (-> VS subs)
  kSubscribe = 3,       ///< subscription request (player -> proxy -> target's proxy)
  kHandoff = 4,         ///< proxy -> successor proxy at renewal
  kKillClaim = 5,       ///< interaction claim, checked by proxy & witnesses
  kChurnNotice = 6,     ///< proxy announces a silent player; pool removal at
                        ///< an agreed round (§VI "Churn")
  kSubscriberList = 7,  ///< proxy -> its player: current IS subscribers, for
                        ///< the relaxed 1-hop direct-update mode (§VI opt. 3)
  kAck = 8,             ///< reliable-control ack: receiver echoes the
                        ///< (origin, seq, type) of a control message it got
  kRejoinNotice = 9,    ///< a returning player (or its current proxy, after
                        ///< a heal) announces pool re-entry at an agreed
                        ///< round — the inverse of kChurnNotice
  kBatch = 10,          ///< unsigned per-link container: every message one
                        ///< node sends another in a frame, coalesced into a
                        ///< single datagram. Sub-messages keep their origin
                        ///< signatures intact (§IV unchanged).
  kHeartbeat = 11,      ///< liveness beacon (empty body) between a player
                        ///< and its proxy/proxied peers; feeds the receive
                        ///< watchdog, never acked or retransmitted
};
constexpr int kNumMsgTypes = 12;

const char* to_string(MsgType t);

/// Control classes: agreement state (handoffs, subscriptions, churn and
/// rejoin notices) that reliable control acks and retransmits.
constexpr bool is_control_type(MsgType t) {
  return t == MsgType::kHandoff || t == MsgType::kSubscribe ||
         t == MsgType::kChurnNotice || t == MsgType::kRejoinNotice;
}

/// Lead-class bitmask (bit = MsgType value) a bounded send queue must never
/// shed under backpressure: the control classes, which carry their own
/// retransmit budget, plus the acks that complete them.
constexpr std::uint32_t never_shed_class_mask() {
  std::uint32_t mask = 1u << static_cast<unsigned>(MsgType::kAck);
  for (int t = 0; t < kNumMsgTypes; ++t) {
    mask |= is_control_type(static_cast<MsgType>(t)) ? 1u << t : 0u;
  }
  return mask;
}
static_assert(never_shed_class_mask() == 0x358,
              "subscribe, handoff, churn notice, ack and rejoin notice");

struct MsgHeader {
  MsgType type = MsgType::kStateUpdate;
  PlayerId origin = kInvalidPlayer;   ///< signer / producer of the message
  PlayerId subject = kInvalidPlayer;  ///< player the message is about / aimed at
  Frame frame = 0;                    ///< frame the content refers to
  std::uint32_t seq = 0;              ///< per-origin sequence number
};

/// A parsed, signature-checked message.
struct ParsedMessage {
  MsgHeader header;
  std::vector<std::uint8_t> body;
};

/// Serializes and signs header+body. The result is what goes on the wire:
///   [u8 type|0x80][varint origin][varint subject][zigzag-varint frame]
///   [varint seq][body][16-byte signature]
/// The body runs from the end of the header to the signature, so it needs
/// no length prefix. The 0x80 tag bit marks the varint header (MsgType
/// values stay below 0x80, and an unsealed kBatch container never carries
/// it); a sealed wire without it is the retired fixed 21-byte header and is
/// rejected.
std::vector<std::uint8_t> seal(const MsgHeader& header,
                               std::span<const std::uint8_t> body,
                               const crypto::KeyPair& key);

/// Parses and verifies a sealed message against the origin's public key from
/// the registry. Returns nullopt on malformed input or bad signature —
/// exactly the "reject tampered/spoofed message" path of §IV.
std::optional<ParsedMessage> open(std::span<const std::uint8_t> wire,
                                  const crypto::KeyRegistry& keys);

/// Parses without verifying the signature (for size accounting and tests).
std::optional<ParsedMessage> open_unverified(std::span<const std::uint8_t> wire);

// ------------------------------------------------------------------ batch
//
// Per-link frame batching: every message a node sends to
// one peer during a frame slice rides one datagram, amortizing the fixed
// UDP/IP cost. The container is NOT a sealed envelope — it is a transport
// detail added and removed hop-by-hop:
//
//   [u8 = MsgType::kBatch][varint count][blob sub-wire] * count
//
// Each sub-wire is an intact sealed envelope (origin signature preserved),
// so a proxy can batch messages it merely forwards without being able to
// tamper with them. The leading type byte keeps NetStats' per-class
// bucketing working on the raw datagram.
constexpr std::size_t kMaxBatchMessages = 512;

/// True when the datagram is a batch container (vs a bare sealed envelope).
bool is_batch_wire(std::span<const std::uint8_t> wire);

std::vector<std::uint8_t> encode_batch(
    const std::vector<std::vector<std::uint8_t>>& wires);

/// Splits a batch into views of its sub-wires (into `wire`'s storage).
/// Truncation-safe, for real-network input where a datagram can arrive cut
/// short (fragment loss, receive-buffer clamp). Yields every
/// complete leading sub-wire and reports whether the container was intact;
/// each surviving sub-wire still carries its own signature, so a truncated
/// tail can only cost messages, never corrupt one.
struct BatchPrefix {
  std::vector<std::span<const std::uint8_t>> wires;
  bool complete = false;  ///< true iff the whole container parsed cleanly
};
BatchPrefix decode_batch_prefix(std::span<const std::uint8_t> wire) noexcept;

// ----------------------------------------------------------------- bodies
//
// A body ends where the signature starts, so every body decoder throws
// DecodeError on bytes left past its last field.

// A state-update body is a full state (paper §II: IS members get a full
// update every frame): the field-mask encoding, interest::encode_full.
std::vector<std::uint8_t> encode_state_body(const game::AvatarState& s);
game::AvatarState decode_state_body(std::span<const std::uint8_t> body);

std::vector<std::uint8_t> encode_position_body(const Vec3& pos);
Vec3 decode_position_body(std::span<const std::uint8_t> body);

// Guidance bodies are quantized varints on the field-mask coding's grid
// (1/8 unit positions, 1e-4 rad angles), waypoints delta-coded against the
// position. The handoff summary embeds this same encoding.
std::vector<std::uint8_t> encode_guidance_body(const interest::Guidance& g);
interest::Guidance decode_guidance_body(std::span<const std::uint8_t> body);

std::vector<std::uint8_t> encode_subscribe_body(interest::SetKind kind);
interest::SetKind decode_subscribe_body(std::span<const std::uint8_t> body);

struct KillClaim {
  PlayerId victim = kInvalidPlayer;
  game::WeaponKind weapon = game::WeaponKind::kMachineGun;
  double distance = 0.0;
  Vec3 victim_pos;
};

std::vector<std::uint8_t> encode_kill_body(const KillClaim& k);
KillClaim decode_kill_body(std::span<const std::uint8_t> body);

/// Churn notice body: the proxy round from which everyone removes the
/// subject from the proxy pool (agreed-upon, so pools stay consistent).
std::vector<std::uint8_t> encode_churn_body(std::int64_t removal_round);
std::int64_t decode_churn_body(std::span<const std::uint8_t> body);

/// Subscriber-list body (§VI optimization 3, direct-update mode): the IS
/// subscribers the player should push frequent updates to directly.
///
/// Two modes, selected by a leading byte:
///   mode 0 — full list: sorted ids, gap-coded varints;
///   mode 1 — diff against the last sent list: a 16-bit hash of the
///            baseline, then removed and added ids (sorted, gap-coded).
/// A receiver whose baseline hash does not match keeps its old list and
/// waits for the sender's periodic full refresh.
std::vector<std::uint8_t> encode_subscriber_list_body(
    const std::vector<PlayerId>& subscribers);
std::vector<std::uint8_t> encode_subscriber_list_diff_body(
    const std::vector<PlayerId>& baseline,
    const std::vector<PlayerId>& subscribers);
/// Order-insensitive hash of a subscriber set (for diff baselines).
std::uint16_t subscriber_list_hash(const std::vector<PlayerId>& subscribers);
/// Decodes either mode against the receiver's current list. Returns nullopt
/// when a diff's baseline hash does not match `baseline`.
std::optional<std::vector<PlayerId>> decode_subscriber_list_body(
    std::span<const std::uint8_t> body, const std::vector<PlayerId>& baseline);

/// Ack body: identifies the control message being acknowledged. Acks are
/// hop-by-hop (each relay acks its immediate sender), unsigned-content
/// trivial, and never themselves acked.
struct AckBody {
  PlayerId acked_origin = kInvalidPlayer;
  std::uint32_t acked_seq = 0;
  MsgType acked_type = MsgType::kStateUpdate;
};

std::vector<std::uint8_t> encode_ack_body(const AckBody& a);
AckBody decode_ack_body(std::span<const std::uint8_t> body);

/// Rejoin-notice body: the proxy round from which everyone restores the
/// subject to the proxy pool (agreed-upon, mirroring the churn removal).
std::vector<std::uint8_t> encode_rejoin_body(std::int64_t restore_round);
std::int64_t decode_rejoin_body(std::span<const std::uint8_t> body);

}  // namespace watchmen::core
