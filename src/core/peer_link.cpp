#include "core/peer_link.hpp"

#include "core/peer.hpp"
#include "core/protocol_params.hpp"

namespace watchmen::core {

PeerLink::PeerLink(PlayerId id, std::size_t n_players,
                   const WatchmenConfig& cfg, net::Transport& net,
                   const crypto::KeyRegistry& keys, PeerMetrics& metrics)
    : id_(id),
      n_(n_players),
      hardened_(cfg.hardened),
      net_(&net),
      keys_(&keys),
      metrics_(&metrics),
      last_heard_(n_players, -1) {}

void PeerLink::reset(Frame f) {
  frame_ = f;
  batch_buf_.clear();
  pending_.clear();
  // Everyone looks silent to a node that just woke up; regrade from scratch
  // instead of carrying Dead verdicts into the new tenure.
  watchdog_state_.clear();
}

void PeerLink::run_timers(Frame f, PlayerId proxy,
                          std::span<const PlayerId> proxied) {
  if (!hardened_) return;
  run_watchdog(f, proxy, proxied);
  flush_retransmits(f);
}

// --------------------------------------------------------------- sending

std::vector<std::uint8_t> PeerLink::seal(MsgType type, PlayerId subject,
                                         Frame frame,
                                         std::span<const std::uint8_t> body) {
  ++metrics_->sent_by_type[static_cast<std::size_t>(type)];
  last_sealed_ = {type, id_, subject, frame, seq_++};
  return core::seal(last_sealed_, body, keys_->key_pair(id_));
}

void PeerLink::send(PlayerId to, Wire wire) {
  ++metrics_->messages_sent;
  enqueue(to, std::move(wire));
}

void PeerLink::forward(PlayerId to, Wire wire) {
  ++metrics_->forwarded;
  enqueue(to, std::move(wire));
}

void PeerLink::send_control(PlayerId to, const Wire& wire,
                            const MsgHeader& h) {
  h.origin == id_ ? send(to, wire) : forward(to, wire);
  // Serving both ends ourselves is a loopback delivery: guaranteed, and
  // never acked (receivers don't ack their own messages).
  if (to == id_) return;
  if (hardened_) {
    pending_.push_back({to, h, wire, frame_ + retry_delay(h, 0)});
  } else if (h.type == MsgType::kHandoff) {
    // The handoff is a single point of failure for every subscription of
    // its player: without acks, a blind duplicate (receiver-side install is
    // idempotent). Riding the original's batch datagram would defeat it.
    ++metrics_->messages_sent;
    net_->send(id_, to, wire);
  }
}

void PeerLink::enqueue(PlayerId to, Wire wire) {
  // First-touch destination order keeps the flush deterministic.
  for (BatchSlot& slot : batch_buf_) {
    if (slot.to != to) continue;
    slot.wires.push_back(std::move(wire));
    if (slot.wires.size() >= kMaxBatchMessages) {
      // Container full: coalesce what we have and start the slot over.
      flush_slot(slot);
    }
    return;
  }
  batch_buf_.push_back({to, {std::move(wire)}});
}

void PeerLink::flush_slot(BatchSlot& slot) {
  auto& group = slot.wires;
  if (group.empty()) return;
  ++metrics_->flushes;
  metrics_->flushed_messages += group.size();
  if (group.size() == 1) {
    // A lone message rides bare: no container overhead, and the leading
    // type byte keeps per-class stats exact.
    net_->send(id_, slot.to, std::move(group.front()));
    group.clear();
    return;
  }
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kBatch));
  w.varint(group.size());
  for (const auto& sub : group) w.blob(*sub);
  ++metrics_->batches_sent;
  metrics_->batched_messages += group.size();
  net_->send(id_, slot.to, w.take());
  group.clear();
}

void PeerLink::flush() {
  for (BatchSlot& slot : batch_buf_) {
    if (slot.wires.empty()) continue;  // drained by an early full-slot flush
    flush_slot(slot);
  }
  batch_buf_.clear();
}

// ----------------------------------------------------- reliable control

Frame PeerLink::retry_delay(const MsgHeader& h, std::uint32_t attempt) {
  const Frame backoff = protocol::kRetransmitBackoff << attempt;
  return backoff + retransmit_jitter(h.origin, h.seq, attempt, backoff);
}

void PeerLink::flush_retransmits(Frame f) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->next_retry > f) {
      ++it;
      continue;
    }
    if (it->attempt >= protocol::kRetransmitBudget) {
      ++metrics_->reliable_expired;
      it = pending_.erase(it);
      continue;
    }
    ++metrics_->retransmits_by_type[static_cast<std::size_t>(it->acked.type)];
    send(it->to, it->wire);
    it->next_retry = f + retry_delay(it->acked, ++it->attempt);
    ++it;
  }
}

void PeerLink::maybe_ack(const net::Envelope& env, const MsgHeader& h) {
  if (!hardened_ || !is_control_type(h.type) || env.from == id_) return;
  const AckBody a{h.origin, h.seq, h.type};
  ++metrics_->acks_sent;
  send(env.from,
       seal(MsgType::kAck, h.origin, net_->clock().frame(), encode_ack_body(a)));
}

void PeerLink::on_ack(const net::Envelope& env, const MsgHeader& h,
                      const AckBody& a) {
  if (!hardened_) return;
  if (env.from != h.origin) return;  // acks travel one hop, unsigned relays don't
  ++metrics_->acks_received;
  std::erase_if(pending_, [&](const PendingReliable& p) {
    return p.to == env.from && p.acked.origin == a.acked_origin &&
           p.acked.seq == a.acked_seq && p.acked.type == a.acked_type;
  });
}

// ------------------------------------------------------------- liveness

bool PeerLink::proxy_silent(PlayerId px) const {
  if (!hardened_ || px == id_ || px >= n_) return false;
  // The watchdog's Suspect threshold doubles as the emergency-failover
  // trigger: with heartbeats flowing every kHeartbeatPeriod frames, a
  // Suspect-grade silence is already several missed beacons, not jitter.
  return silence_of(px, frame_) > protocol::kWatchdogSuspectFrames;
}

void PeerLink::run_watchdog(Frame f, PlayerId proxy,
                            std::span<const PlayerId> proxied) {
  if (watchdog_state_.empty()) watchdog_state_.assign(n_, 0);
  // Heartbeat on a per-player staggered cadence so beacons spread across
  // frames instead of synchronizing the whole session onto one.
  if ((f + static_cast<Frame>(id_)) % protocol::kHeartbeatPeriod == 0) {
    const auto beacon = [&](PlayerId to) {
      if (to == id_ || to >= n_) return;
      send(to, seal(MsgType::kHeartbeat, to, f, {}));
    };
    beacon(proxy);
    for (const PlayerId q : proxied) beacon(q);
  }
  // Grade the relationships the heartbeats cover: our current proxy and
  // the players we proxy. Alive -> Suspect -> Dead from receive silence;
  // any traffic (heartbeat or game) heals the grade back to Alive.
  const auto grade = [&](PlayerId p) {
    if (p == id_ || p >= n_) return;
    const Frame s = silence_of(p, f);
    const PeerLiveness next = s > protocol::kWatchdogDeadFrames ? PeerLiveness::kDead
                              : s > protocol::kWatchdogSuspectFrames
                                  ? PeerLiveness::kSuspect
                                  : PeerLiveness::kAlive;
    std::uint8_t& st = watchdog_state_[p];
    if (static_cast<std::uint8_t>(next) > st) {
      if (st == 0) ++metrics_->watchdog_suspects;
      if (next == PeerLiveness::kDead) ++metrics_->watchdog_deaths;
    }
    st = static_cast<std::uint8_t>(next);
  };
  grade(proxy);
  for (const PlayerId q : proxied) grade(q);
}

}  // namespace watchmen::core
