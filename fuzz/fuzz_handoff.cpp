// Fuzz target: core::handoff — the summary a proxy receives from its
// predecessor. A colluding predecessor controls every byte, so the decoder
// must reject garbage with DecodeError and never crash or over-allocate.
//
// Invariants checked:
//  * decode_handoff_body() throws DecodeError or returns a payload;
//  * a returned payload re-encodes and re-decodes to the same payload
//    (decode∘encode fixed point, field-by-field);
//  * installing its subscriptions into a 256-slot table (what a successor
//    proxy does) keeps the table at 256 slots, holds only in-range ids, and
//    lists only those in subscribers() and snapshot(), in id order.

#include <cstdint>
#include <cstdlib>
#include <set>
#include <span>

#include "core/handoff.hpp"
#include "interest/subscription.hpp"
#include "util/bytes.hpp"

using namespace watchmen;
using namespace watchmen::core;

namespace {

void check_same(const PlayerSummary& a, const PlayerSummary& b) {
  if (a.player != b.player || a.round != b.round ||
      a.has_state != b.has_state ||
      a.last_state_frame != b.last_state_frame ||
      a.updates_received != b.updates_received ||
      a.suspicious_events != b.suspicious_events ||
      a.has_guidance != b.has_guidance ||
      a.subscriptions.size() != b.subscriptions.size()) {
    std::abort();
  }
  if (a.has_guidance &&
      (a.guidance.frame != b.guidance.frame ||
       a.guidance.health != b.guidance.health ||
       a.guidance.weapon != b.guidance.weapon ||
       a.guidance.waypoints.size() != b.guidance.waypoints.size())) {
    std::abort();
  }
  for (std::size_t i = 0; i < a.subscriptions.size(); ++i) {
    if (a.subscriptions[i].first != b.subscriptions[i].first ||
        a.subscriptions[i].second.kind != b.subscriptions[i].second.kind ||
        a.subscriptions[i].second.expires != b.subscriptions[i].second.expires) {
      std::abort();
    }
  }
}

void check_install(const PlayerSummary& s) {
  constexpr std::size_t kSlots = 256;
  interest::SubscriptionTable tab(kSlots);
  tab.install(s.subscriptions);
  std::set<PlayerId> in_range;
  for (const auto& [who, sub] : s.subscriptions) {
    if (who < kSlots) in_range.insert(who);
  }
  if (tab.capacity() != kSlots || tab.size() != in_range.size()) std::abort();
  const Frame now = s.last_state_frame;  // any attacker-chosen frame
  const auto snap = tab.snapshot(now);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    if (!in_range.contains(snap[i].first)) std::abort();
    if (i > 0 && snap[i - 1].first >= snap[i].first) std::abort();
  }
  for (const auto kind : {interest::SetKind::kInterest,
                          interest::SetKind::kVision,
                          interest::SetKind::kOther}) {
    const auto subs = tab.subscribers(kind, now);
    for (std::size_t i = 0; i < subs.size(); ++i) {
      if (!in_range.contains(subs[i])) std::abort();
      if (i > 0 && subs[i - 1] >= subs[i]) std::abort();
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> in(data, size);
  try {
    const HandoffPayload h = decode_handoff_body(in);
    const HandoffPayload rt = decode_handoff_body(encode_handoff_body(h));
    check_same(h.summary, rt.summary);
    if (h.predecessor.has_value() != rt.predecessor.has_value()) std::abort();
    if (h.predecessor) check_same(*h.predecessor, *rt.predecessor);
    check_install(h.summary);
  } catch (const DecodeError&) {
    // Malformed input: the defined rejection path.
  }
  return 0;
}
