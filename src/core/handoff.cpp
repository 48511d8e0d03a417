#include "core/handoff.hpp"

#include "core/messages.hpp"

namespace watchmen::core {
namespace {

void write_summary(ByteWriter& w, const PlayerSummary& s) {
  w.u32(s.player);
  w.i64(s.round);
  w.u8(s.has_state ? 1 : 0);
  if (s.has_state) {
    w.blob(encode_state_body(s.last_state));
    w.i64(s.last_state_frame);
  }
  w.u32(s.updates_received);
  w.u32(s.suspicious_events);
  w.u8(s.has_guidance ? 1 : 0);
  if (s.has_guidance) w.blob(encode_guidance_body(s.guidance));
  w.varint(s.subscriptions.size());
  for (const auto& [who, sub] : s.subscriptions) {
    w.u32(who);
    w.u8(static_cast<std::uint8_t>(sub.kind));
    w.i64(sub.expires);
  }
}

PlayerSummary read_summary(ByteReader& r) {
  PlayerSummary s;
  s.player = r.u32();
  s.round = r.i64();
  s.has_state = r.u8() != 0;
  if (s.has_state) {
    s.last_state = decode_state_body(r.blob());
    s.last_state_frame = r.i64();
  }
  s.updates_received = r.u32();
  s.suspicious_events = r.u32();
  s.has_guidance = r.u8() != 0;
  if (s.has_guidance) s.guidance = decode_guidance_body(r.blob());
  const auto n = r.varint();
  if (n > 4096) throw DecodeError("too many handoff subscriptions");
  s.subscriptions.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const PlayerId who = r.u32();
    interest::Subscription sub;
    sub.kind = checked_enum<interest::SetKind>(r.u8(), interest::kNumSetKinds,
                                               "set kind");
    sub.expires = r.i64();
    s.subscriptions.emplace_back(who, sub);
  }
  return s;
}

}  // namespace

std::vector<std::uint8_t> encode_handoff_body(const HandoffPayload& h) {
  ByteWriter w;
  write_summary(w, h.summary);
  w.u8(h.predecessor.has_value() ? 1 : 0);
  if (h.predecessor) write_summary(w, *h.predecessor);
  return w.take();
}

HandoffPayload decode_handoff_body(std::span<const std::uint8_t> body) {
  ByteReader r(body);
  HandoffPayload h;
  h.summary = read_summary(r);
  if (r.u8() != 0) h.predecessor = read_summary(r);
  r.expect_done("trailing bytes in handoff body");
  return h;
}

}  // namespace watchmen::core
