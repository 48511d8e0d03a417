// Fuzz target: the sealed-message envelope and every core::messages body
// decoder — the exact surface a malicious peer controls (PAPER.md §IV:
// proxies and witnesses must treat malformed bytes as misbehavior, which
// only works if the decoders are total functions over arbitrary input).
//
// Invariants checked:
//  * open_unverified() either returns a parsed message or nullopt — all
//    DecodeErrors are contained inside the parser;
//  * each body decoder either throws DecodeError or yields a value that
//    re-encodes and decodes to the same value (decode∘encode fixed point);
//  * no decoder crashes, aborts, leaks, or over-allocates on garbage.

#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "core/messages.hpp"
#include "util/bytes.hpp"

using namespace watchmen;
using namespace watchmen::core;

namespace {

void check_envelope(std::span<const std::uint8_t> in) {
  const auto msg = open_unverified(in);
  if (!msg) return;
  // A parsed header must hold a valid enum; re-sealing with a fresh key and
  // re-opening must reproduce header and body exactly.
  if (static_cast<unsigned>(msg->header.type) >=
      static_cast<unsigned>(kNumMsgTypes)) {
    std::abort();
  }
  const crypto::KeyPair key = crypto::KeyPair::generate(msg->header.origin + 1);
  const auto wire = seal(msg->header, msg->body, key);
  const auto again = open_unverified(wire);
  if (!again) std::abort();
  if (again->body != msg->body) std::abort();
  if (again->header.type != msg->header.type ||
      again->header.origin != msg->header.origin ||
      again->header.subject != msg->header.subject ||
      again->header.frame != msg->header.frame ||
      again->header.seq != msg->header.seq) {
    std::abort();
  }
}

void check_bodies(std::span<const std::uint8_t> in) {
  try {
    const game::AvatarState s = decode_state_body(in);
    const auto rt = decode_state_body(encode_state_body(s));
    if (rt.health != s.health || rt.weapon != s.weapon || rt.ammo != s.ammo ||
        rt.alive != s.alive || rt.frags != s.frags) {
      std::abort();
    }
  } catch (const DecodeError&) {
  }
  try {
    const interest::Guidance g = decode_guidance_body(in);
    const interest::Guidance rt = decode_guidance_body(encode_guidance_body(g));
    if (rt.frame != g.frame || rt.health != g.health ||
        rt.weapon != g.weapon || rt.waypoints.size() != g.waypoints.size()) {
      std::abort();
    }
  } catch (const DecodeError&) {
  }
  try {
    const interest::SetKind k = decode_subscribe_body(in);
    if (decode_subscribe_body(encode_subscribe_body(k)) != k) std::abort();
  } catch (const DecodeError&) {
  }
  try {
    const KillClaim k = decode_kill_body(in);
    const KillClaim rt = decode_kill_body(encode_kill_body(k));
    if (rt.victim != k.victim || rt.weapon != k.weapon) std::abort();
  } catch (const DecodeError&) {
  }
  try {
    const std::int64_t round = decode_churn_body(in);
    if (decode_churn_body(encode_churn_body(round)) != round) std::abort();
  } catch (const DecodeError&) {
  }
  try {
    const auto subs = decode_subscriber_list_body(in, {});
    if (subs && decode_subscriber_list_body(encode_subscriber_list_body(*subs),
                                            {}) != subs) {
      std::abort();
    }
  } catch (const DecodeError&) {
  }
  try {
    const AckBody a = decode_ack_body(in);
    const AckBody rt = decode_ack_body(encode_ack_body(a));
    if (rt.acked_origin != a.acked_origin || rt.acked_seq != a.acked_seq ||
        rt.acked_type != a.acked_type) {
      std::abort();
    }
  } catch (const DecodeError&) {
  }
  try {
    const std::int64_t round = decode_rejoin_body(in);
    if (decode_rejoin_body(encode_rejoin_body(round)) != round) std::abort();
  } catch (const DecodeError&) {
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> in(data, size);
  check_envelope(in);
  check_bodies(in);
  return 0;
}
