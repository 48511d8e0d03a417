#include "interest/subscription.hpp"

namespace watchmen::interest {

void SubscriptionTable::put(PlayerId who, const Subscription& sub) {
  if (who >= slots_.size()) return;
  Slot& s = slots_[who];
  if (!s.present) ++size_;
  s.expires = sub.expires;
  s.kind = sub.kind;
  s.present = true;
}

void SubscriptionTable::subscribe(PlayerId subscriber, SetKind kind, Frame now) {
  put(subscriber, Subscription{kind, now + retention_});
}

void SubscriptionTable::unsubscribe(PlayerId subscriber) {
  if (subscriber >= slots_.size() || !slots_[subscriber].present) return;
  slots_[subscriber].present = false;
  --size_;
}

void SubscriptionTable::expire(Frame now) {
  for (Slot& s : slots_) {
    if (s.present && s.expires < now) {
      s.present = false;
      --size_;
    }
  }
}

std::vector<PlayerId> SubscriptionTable::subscribers(SetKind kind,
                                                     Frame now) const {
  // Id order is the canonical order: the list feeds kSubscriberList wire
  // bodies, which must not depend on table layout.
  std::vector<PlayerId> out;
  for (PlayerId who = 0; who < slots_.size(); ++who) {
    const Slot& s = slots_[who];
    if (s.present && s.kind == kind && s.expires >= now) {
      out.push_back(who);
    }
  }
  return out;
}

SetKind SubscriptionTable::level_of(PlayerId subscriber, Frame now) const {
  if (subscriber >= slots_.size()) return SetKind::kOther;
  const Slot& s = slots_[subscriber];
  if (!s.present || s.expires < now) return SetKind::kOther;
  return s.kind;
}

std::vector<std::pair<PlayerId, Subscription>> SubscriptionTable::snapshot(
    Frame now) const {
  // Id order again: snapshots are serialized into handoff bodies.
  std::vector<std::pair<PlayerId, Subscription>> out;
  out.reserve(size_);
  for (PlayerId who = 0; who < slots_.size(); ++who) {
    const Slot& s = slots_[who];
    if (s.present && s.expires >= now) {
      out.emplace_back(who, Subscription{s.kind, s.expires});
    }
  }
  return out;
}

void SubscriptionTable::install(
    const std::vector<std::pair<PlayerId, Subscription>>& entries) {
  for (const auto& [who, sub] : entries) put(who, sub);
}

}  // namespace watchmen::interest
