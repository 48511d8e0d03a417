#pragma once
// Subscription table with retention timeouts (paper §VI, "Subscriber
// retention": subscriptions are kept for a predetermined number of frames
// so only *new* subscriptions are sent explicitly; ~50% of the IS changes
// after 40 frames, which sets the default retention).
//
// A table lives at a player's proxy: it maps each subscriber to the level
// of updates it should receive about the proxied player. It is dense — one
// slot per player id, sized at construction — so every lookup is O(1) and
// the lists come out in id order without a sort. Ids ≥ n are ignored: a
// handoff from a colluding predecessor may name any 32-bit id.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "interest/sets.hpp"
#include "util/ids.hpp"

namespace watchmen::interest {

struct Subscription {
  SetKind kind = SetKind::kOther;
  Frame expires = 0;
};

class SubscriptionTable {
 public:
  explicit SubscriptionTable(std::size_t n_players, Frame retention_frames = 40)
      : retention_(retention_frames), slots_(n_players) {}

  Frame retention() const { return retention_; }
  std::size_t capacity() const { return slots_.size(); }

  /// Adds or refreshes a subscription; it lives until now + retention.
  void subscribe(PlayerId subscriber, SetKind kind, Frame now);

  /// Explicit unsubscribe (rarely needed thanks to the timeout mechanism).
  void unsubscribe(PlayerId subscriber);

  /// Drops expired entries.
  void expire(Frame now);

  /// Active subscribers of the given kind at `now` (expired entries
  /// skipped), in id order.
  std::vector<PlayerId> subscribers(SetKind kind, Frame now) const;

  /// The level `subscriber` currently holds, or kOther if none.
  SetKind level_of(PlayerId subscriber, Frame now) const;

  /// Entries held, expired ones included until expire() drops them.
  std::size_t size() const { return size_; }

  /// All live (subscriber, subscription) pairs in id order — used by the
  /// handoff.
  std::vector<std::pair<PlayerId, Subscription>> snapshot(Frame now) const;

  /// Bulk-install entries (used when a new proxy receives the handoff).
  /// Entries naming ids ≥ capacity() are dropped.
  void install(const std::vector<std::pair<PlayerId, Subscription>>& entries);

 private:
  /// 16 bytes: a 256-player table walks in 4 KiB.
  struct Slot {
    Frame expires = 0;
    SetKind kind = SetKind::kOther;
    bool present = false;  ///< kept apart from expires, which may be any Frame
  };
  /// Marks `who` present with `sub`; ids out of range are ignored.
  void put(PlayerId who, const Subscription& sub);

  Frame retention_;
  std::vector<Slot> slots_;  ///< indexed by subscriber id
  std::size_t size_ = 0;     ///< slots with present set
};

}  // namespace watchmen::interest
