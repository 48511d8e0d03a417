#include "core/peer.hpp"

#include <algorithm>
#include <cmath>

#include "interest/vision.hpp"

namespace watchmen::core {

namespace {
Misbehavior g_honest;

/// Decodes a state-update body into `out`; false when it is malformed.
bool decode_state(std::span<const std::uint8_t> body, game::AvatarState& out) {
  try {
    out = decode_state_body(body);
    return true;
  } catch (const DecodeError&) {
    return false;
  }
}
}  // namespace

Misbehavior& honest_behavior() { return g_honest; }

WatchmenPeer::WatchmenPeer(PlayerId id, WatchmenConfig cfg, net::Transport& net,
                           const crypto::KeyRegistry& keys,
                           const ProxySchedule& schedule,
                           const game::GameMap& map, ReportFn report,
                           Misbehavior* misbehavior)
    : id_(id),
      cfg_(std::move(cfg)),
      // wmlint: allow(link-switch) the profile picks the check tolerances
      tol_(cfg_.hardened ? kHardenedTolerance : kPaperTolerance),
      net_(&net),
      keys_(&keys),
      schedule_(schedule),
      map_(&map),
      report_(std::move(report)),
      misbehavior_(misbehavior ? misbehavior : &honest_behavior()),
      know_(schedule.num_players()),
      sent_level_(schedule.num_players()),
      recv_state_in_round_(schedule.num_players(), 0),
      is_held_frames_in_round_(schedule.num_players(), 0),
      pending_starve_(schedule.num_players()),
      pool_agreement_(schedule.num_players()),
      pool_eligible_(schedule.num_players(), true),
      link_(id, schedule.num_players(), cfg_, net, keys, metrics_) {}

bool WatchmenPeer::set_pool_standing(PlayerId p, bool eligible) {
  if (p >= schedule_.num_players()) return false;
  if (pool_eligible_[p] == eligible) return false;
  if (!eligible && schedule_.in_pool(p)) {
    // The floor may refuse; the session asks again at the next boundary.
    if (!authority::pool_keeps_floor(schedule_.pool_size() - 1)) return false;
    schedule_.set_weight(p, 0.0);
    // Schedules shift under everyone's feet at the same boundary; suppress
    // the transient protocol-violation noise like any other pool change.
    note_pool_change(round_);
  }
  pool_eligible_[p] = eligible;
  return true;
}

// --------------------------------------------------------------- sending

void WatchmenPeer::send_to_proxy(MsgType type, PlayerId subject, Frame frame,
                                 std::span<const std::uint8_t> body,
                                 Frame delay) {
  auto wire = link_.seal(type, subject, frame, body);
  if (delay > 0) {
    // Look-ahead cheat: hold the sealed message and release it late; the
    // destination proxy is recomputed at release time.
    outbox_.push_back({frame_ + delay, std::move(wire)});
    return;
  }
  const PlayerId px = schedule_.proxy_at(id_, frame_);
  const auto shared =
      std::make_shared<const std::vector<std::uint8_t>>(std::move(wire));
  is_control_type(type) ? link_.send_control(px, shared) : link_.send(px, shared);
  if (link_.proxy_silent(px)) {
    // Emergency failover: our proxy has gone fully silent past the
    // watchdog's Suspect grade. Duplicate proxy-bound traffic to the
    // successor-of-round, which adopts us early; if the proxy was merely
    // quiet the duplicate is redundant, never harmful.
    const PlayerId succ = schedule_.proxy_of(id_, schedule_.round_of(frame_) + 1);
    if (succ != px && succ != id_) link_.send(succ, shared);
  }
}

// --------------------------------------------------------------- frames

void WatchmenPeer::begin_frame(Frame f) {
  frame_ = f;
  link_.begin_frame(f);
  const std::int64_t r = schedule_.round_of(f);
  if (r != round_) {
    round_ = r;
    // Apply the agreed churn removals and restores due now: departed
    // players leave the pool at the round their churn notice announced,
    // rejoined or heal-recovered ones re-enter at their rejoin notice's
    // round — everyone at the same boundary, keeping schedules consistent.
    for (PlayerId q = 0; q < schedule_.num_players(); ++q) {
      const authority::BoundaryStep step = authority::boundary_step(
          pool_agreement_[q], r, schedule_.in_pool(q), schedule_.pool_size(),
          pool_eligible_[q]);
      if (step.removed) schedule_.remove_from_pool(q);
      if (step.restored) schedule_.restore_to_pool(q);
      if (step.removed || step.restored) note_pool_change(r);
      if (step.restore_due) pending_starve_[q].active = false;
    }
    // Pool reconciliation, run by whoever serves a churn-removed player
    // this round (its proxy in *our* view):
    //  * player demonstrably back (heard within the last renewal period):
    //    re-announce its restore — heals divergence after partitions and
    //    covers rejoin notices that were themselves lost;
    //  * player still dead: re-broadcast the removal notice so peers that
    //    missed the original converge (they corroborate the silence
    //    locally, so the notice is accepted from us even where pools
    //    disagree about who the proxy is).
    for (PlayerId q = 0; q < schedule_.num_players(); ++q) {
      authority::PoolRecord<>& rec = pool_agreement_[q];
      if (q == id_ || schedule_.in_pool(q) || rec.removal < 0) continue;
      if (schedule_.proxy_of(q, r) != id_) continue;
      const Frame heard = link_.last_heard(q);
      if (heard >= 0 && f - heard <= cfg_.renewal_frames) {
        if (rec.restore >= 0) continue;  // already scheduled
        authority::merge_restore(rec, r, authority::restore_round(r));
        broadcast_control(MsgType::kRejoinNotice, q,
                          encode_rejoin_body(rec.restore));
      } else {
        broadcast_control(MsgType::kChurnNotice, q, encode_churn_body(r + 1));
      }
    }
    // Adopt players newly assigned to this peer. Their handoff (state +
    // subscription table) arrives from the old proxy within a few frames.
    for (PlayerId p = 0; p < schedule_.num_players(); ++p) {
      if (p == id_) continue;
      if (schedule_.proxy_of(p, r) == id_ && !proxied_.contains(p) &&
          !sitting_out()) {
        adopt(p, f);
      }
    }
  }
  std::erase_if(grace_, [f](const auto& kv) { return kv.second.expires < f; });

  link_.run_timers(f, schedule_.proxy_at(id_, f), proxied_players());
  flush_pending_subs(f);

  // Direct-update mode: periodically tell each proxied player who its IS
  // subscribers are, so it can push 1-hop updates (staggered, 2 Hz).
  if (cfg_.direct_updates) {
    // Sorted id order: wire traffic must not depend on hash iteration order.
    for (const PlayerId q : proxied_players()) {
      if ((f + q) % 10 != 0) continue;
      ProxiedState& ps = proxied_.at(q);
      auto subscribers =
          ps.subs.subscribers(interest::SetKind::kInterest, f);
      // Subscriber diffs: most sends carry only the ids that changed since
      // the last list, guarded by a baseline hash; every 4th send is a full
      // refresh so a lost list (hash miss at the player) self-heals.
      const bool full = ps.sub_sends % 4 == 0;
      const auto body =
          full ? encode_subscriber_list_body(subscribers)
               : encode_subscriber_list_diff_body(ps.sent_subs, subscribers);
      ++ps.sub_sends;
      ps.sent_subs = std::move(subscribers);
      link_.send(q, link_.seal(MsgType::kSubscriberList, q, f, body));
    }
  }

  // Release delayed messages to whoever is the proxy now.
  while (!outbox_.empty() && outbox_.front().release <= f) {
    link_.send(schedule_.proxy_at(id_, f), std::move(outbox_.front().wire));
    outbox_.pop_front();
  }

  link_.flush();
}

void WatchmenPeer::produce(std::span<const game::AvatarState> truth,
                           const interest::PlayerSets& sets,
                           std::span<const game::KillEvent> kills) {
  const Frame f = frame_;
  own_state_ = truth[id_];
  has_own_state_ = true;
  const Frame delay = misbehavior_->send_delay(f);

  // 1. Frequent state update, every frame, through the proxy: the full
  //    state (paper §II), so every arrival decodes on its own.
  const game::AvatarState published = misbehavior_->mutate_state(own_state_, f);
  if (misbehavior_->send_state_update(f)) {
    last_published_ = f;
    const auto body = encode_state_body(published);
    send_to_proxy(MsgType::kStateUpdate, id_, f, body, delay);
    if (cfg_.direct_updates && delay == 0) {
      // §VI optimization 3: one hop to the IS subscribers our proxy named;
      // the proxy copy above still feeds verification (and serves the proxy
      // itself if it happens to be a subscriber — don't double-send).
      const PlayerId my_proxy = schedule_.proxy_at(id_, f);
      const auto wire = link_.seal(MsgType::kStateUpdate, id_, f, body);
      for (PlayerId to : direct_targets_) {
        if (to != id_ && to != my_proxy) link_.send(to, wire);
      }
    }
    for (int i = misbehavior_->extra_state_updates(f); i > 0; --i) {
      send_to_proxy(MsgType::kStateUpdate, id_, f, body, delay);
    }
  }

  // 2. Guidance + infrequent position update, once per guidance period
  //    (staggered by player id to spread the load across frames).
  if ((f + static_cast<Frame>(id_) * 7) % interest::kGuidancePeriodFrames == 0) {
    interest::Guidance g = interest::make_guidance(
        published, f, kGuidanceWaypoints, cfg_.dr_damping);
    g = misbehavior_->mutate_guidance(g, f);
    const auto gbody = encode_guidance_body(g);
    send_to_proxy(MsgType::kGuidance, id_, f, gbody, delay);

    const auto pbody = encode_position_body(published.pos);
    send_to_proxy(MsgType::kPositionUpdate, id_, f, pbody, delay);
  }

  // 3. Kill claims for this player's kills this frame.
  for (const game::KillEvent& k : kills) {
    if (k.killer != id_) continue;
    KillClaim claim;
    claim.victim = k.victim;
    claim.weapon = k.weapon;
    claim.distance = k.distance;
    claim.victim_pos = truth[k.victim].pos;
    const auto body = encode_kill_body(claim);
    send_to_proxy(MsgType::kKillClaim, k.victim, f, body, delay);
  }
  for (const KillClaim& claim : misbehavior_->bogus_kill_claims(f)) {
    const auto body = encode_kill_body(claim);
    send_to_proxy(MsgType::kKillClaim, claim.victim, f, body, delay);
  }

  // 4. Subscriptions with retention (paper §VI): *upgrades* (needing more
  //    detail than currently subscribed) go out immediately; downgrades and
  //    steady states ride the periodic refresh, so transient set churn
  //    generates no traffic and lapsed targets simply time out.
  auto level_rank = [](interest::SetKind k) {
    switch (k) {
      case interest::SetKind::kInterest: return 2;
      case interest::SetKind::kVision: return 1;
      case interest::SetKind::kOther: return 0;
    }
    return 0;
  };
  auto want = [&](PlayerId target, interest::SetKind kind) {
    SentLevel& sent = sent_level_[target];
    const Frame last = sent.frame;
    // The level we hold at the proxy: the last one we sent, until the
    // proxy-side retention (one renewal period) would have expired it.
    const interest::SetKind held = f - last > cfg_.renewal_frames
                                       ? interest::SetKind::kOther
                                       : sent.kind;
    const bool upgrade = level_rank(kind) > level_rank(held);
    // Self-healing: if we believe we hold a frequent subscription but the
    // stream has gone silent (lost subscribe, lost handoff), re-subscribe
    // instead of waiting out the refresh period.
    const bool starved = held == interest::SetKind::kInterest &&
                         kind == interest::SetKind::kInterest &&
                         f - last > 8 && f - know_[target].newest_frame > 8;
    if (upgrade || starved || f - last >= kSubscriptionRefreshFrames) {
      const auto body = encode_subscribe_body(kind);
      send_to_proxy(MsgType::kSubscribe, target, f, body, delay);
      sent = {kind, f};
    }
  };
  for (PlayerId t : sets.interest) want(t, interest::SetKind::kInterest);
  for (PlayerId t : sets.vision) want(t, interest::SetKind::kVision);

  // Track how many frames of frequent updates we are entitled to expect
  // about each target this round: we must both currently *want* the target
  // in our IS and hold an unexpired IS subscription for it.
  for (PlayerId t : sets.interest) {
    if (sent_level_[t].kind == interest::SetKind::kInterest &&
        f - sent_level_[t].frame <= cfg_.renewal_frames) {
      ++is_held_frames_in_round_[t];
    }
    // Per-frame staleness of what we actually hold about each IS target —
    // unlike update_age_frames (which only sees updates that *arrived*),
    // this grows when loss or a dead proxy starves the stream, making it
    // the freshness signal the chaos suite compares against its baseline.
    // Players agreed departed (their trace avatar lingers as a ghost no
    // node animates) would grow without bound and are excluded.
    if (know_[t].track.state_frame >= 0 && pool_agreement_[t].removal < 0) {
      metrics_.staleness_frames.add(static_cast<double>(f - know_[t].track.state_frame));
    }
  }

  for (const auto& [target, kind] : misbehavior_->bogus_subscriptions(f)) {
    const auto body = encode_subscribe_body(kind);
    send_to_proxy(MsgType::kSubscribe, target, f, body, delay);
  }

  // 5. Replay cheat: resend captured wires verbatim.
  for (auto& wire : misbehavior_->replayed_messages(f)) {
    link_.send(schedule_.proxy_at(id_, f), std::move(wire));
  }

  // 6. Consistency cheat: direct sends bypassing the proxy.
  for (auto& [to, wire] : misbehavior_->direct_messages(f)) {
    if (to < schedule_.num_players()) link_.send(to, std::move(wire));
  }

  // 7. Fabricated reports (Sybil smears, collusion framing). The reporting
  //    channel is origin-signed, so the *identity* is pinned to this peer —
  //    only the content (suspect, type, vantage, rating) is forgeable.
  //    Vantage lies are the misbehavior engine's problem to catch.
  for (verify::CheatReport r : misbehavior_->fabricated_reports(f)) {
    if (!report_ || r.suspect >= schedule_.num_players() || r.suspect == id_) {
      continue;
    }
    r.verifier = id_;
    report_(r);
  }

  link_.flush();
}

void WatchmenPeer::end_frame(Frame f) {
  const bool round_ends = schedule_.round_of(f + 1) != schedule_.round_of(f);
  if (!round_ends) return;

  const std::int64_t r = schedule_.round_of(f);
  const std::int64_t next = r + 1;

  // Witness-side forwarding check: for every frame this round we held an
  // IS-level subscription to q, a frequent update should have flowed. A
  // starved stream implicates the player's proxy for the round
  // (blind-opponent drops or a malicious proxy); the player-side
  // suppression case is caught by the proxy's own rate check.
  for (PlayerId q = 0; q < schedule_.num_players(); ++q) {
    if (q == id_) continue;
    const std::size_t expected = is_held_frames_in_round_[q];
    // In direct-update mode the frequent stream no longer transits the
    // proxy, so witness starvation cannot be pinned on anyone — another
    // facet of that mode's relaxed security.
    const bool watched =
        !cfg_.direct_updates &&
        expected >= static_cast<std::size_t>(cfg_.renewal_frames) * 3 / 4;
    // Honest streams jitter (boundary crossings, lost subscribes that
    // self-heal within ~10 frames); only *heavy* starvation over a
    // near-full round carries the drop signature.
    verify::CheckResult starve_res;
    bool starving = false;
    if (watched) {
      starve_res = verify::check_rate(recv_state_in_round_[q], expected,
                                      tol_.starve, /*slop=*/8);
      starving = starve_res.suspicious() &&
                 static_cast<double>(recv_state_in_round_[q]) <
                     static_cast<double>(expected) * tol_.starved_below;
    }

    PendingStarve& pending = pending_starve_[q];
    if (pool_agreement_[q].removal >= 0) {
      pending.active = false;  // announced departure explains the silence
    } else if (pending.active) {
      if (watched && !starving) {
        // The stream resumed under a different proxy: the starved round's
        // proxy was dropping forwards (blind opponent / malicious proxy).
        emit(schedule_.proxy_of(q, pending.round), verify::CheckType::kRate,
             verify::Vantage::kInterestWitness, f, pending.res);
        pending.active = false;
      } else if (!watched) {
        pending.active = false;  // lost interest; evidence inconclusive
      }
      // else: still silent — likely churn; hold until the notice arrives.
    } else if (starving) {
      pending.active = true;
      pending.round = r;
      pending.res = starve_res;
    }

    recv_state_in_round_[q] = 0;
    is_held_frames_in_round_[q] = 0;
  }

  for (auto it = proxied_.begin(); it != proxied_.end();) {
    const PlayerId q = it->first;
    ProxiedState& ps = it->second;

    // Dissemination-rate check over the frames this peer held q: one state
    // update expected per frame; boundary slop handled inside check_rate.
    const auto expected = static_cast<std::size_t>(
        std::max<Frame>(0, f - std::max(ps.adopted_at, schedule_.round_start(r)) + 1));
    const verify::CheckResult rate =
        verify::check_rate(ps.updates_in_round, expected, tol_.rate);
    // Statistical aimbot check over the round's precision samples.
    const verify::CheckResult aim =
        verify::check_aim(ps.aim_samples, kAimTolerance);
    if (aim.suspicious()) {
      emit(q, verify::CheckType::kAimbot, verify::Vantage::kProxy, f, aim);
      ++ps.suspicious_in_round;
    }
    ps.aim_samples.clear();

    if (rate.suspicious()) {
      const bool silent = ps.updates_in_round == 0;
      const Frame heard = link_.last_heard(q);
      const bool silent_everywhere =
          heard < 0 || f - heard > cfg_.renewal_frames;
      verify::CheckResult rate_res = rate;
      // A silent proxy stream from a player whose broadcast traffic still
      // reaches us is normally the escape cheat. But while pool views
      // re-converge after churn (ours changed within the last couple of
      // rounds), the player may simply be reporting to whom *it* computes
      // as this round's proxy — keep the evidence below high confidence.
      if (silent && !silent_everywhere && rate_res.rating > 5.0 &&
          authority::in_transition_grace(r, last_pool_change_round_)) {
        rate_res.rating = 5.0;
      }
      emit(q, silent ? verify::CheckType::kEscape : verify::CheckType::kRate,
           verify::Vantage::kProxy, f, rate_res);
      ++ps.suspicious_in_round;

      // Churn (§VI): a player totally silent for a full round has left (or
      // escaped). As its proxy, announce the departure; everyone removes it
      // from the proxy pool at an agreed future round. Repeated silence
      // makes later proxies re-announce, covering lost notices.
      //
      // "Silent" must mean silent in *every* role, not just the proxy
      // stream: when pools transiently diverge (a lost churn notice), a
      // peer can wrongly believe it serves q while q's updates flow to a
      // different proxy — but q's broadcast traffic still reaches us, and
      // that liveness vetoes the announce. Without this gate one lost
      // notice cascades into false removals of live players. (The escape
      // *report* above is capped, not skipped, in that situation: a player
      // hiding from its proxy while visibly playing is the escape cheat,
      // but a freshly-changed pool makes the routing ambiguous.)
      if (silent && silent_everywhere &&
          expected >= static_cast<std::size_t>(cfg_.renewal_frames) &&
          schedule_.in_pool(q) && pool_agreement_[q].removal < 0) {
        authority::merge_removal(pool_agreement_[q], true, r,
                                 authority::removal_round(r));
        broadcast_control(MsgType::kChurnNotice, q,
                          encode_churn_body(pool_agreement_[q].removal));
      }
    }

    if (schedule_.proxy_of(q, next) != id_) {
      // Close out the pending dead-reckoning window before letting go: the
      // next guidance will arrive at the successor, never here.
      close_guidance_window(q, verify::Vantage::kProxy, ps.track);

      // Handoff to the successor proxy: summary + predecessor's summary.
      PlayerSummary s;
      s.player = q;
      s.round = r;
      s.has_state = ps.track.has_state;
      s.last_state = ps.track.state;
      s.last_state_frame = ps.track.state_frame;
      s.updates_received = ps.updates_in_round;
      s.suspicious_events = ps.suspicious_in_round;
      s.has_guidance = ps.track.has_guidance;
      if (ps.track.has_guidance) s.guidance = ps.track.guidance;
      s.subscriptions = ps.subs.snapshot(f);

      const HandoffPayload payload{s, ps.predecessor_summary};

      // The handoff is a single point of failure for every subscription of
      // q: the link makes it survive loss (send_control).
      link_.send_control(schedule_.proxy_of(q, next),
                         std::make_shared<const std::vector<std::uint8_t>>(
                             link_.seal(MsgType::kHandoff, q, f,
                                        encode_handoff_body(payload))));
      my_last_summaries_[q] = std::move(s);

      grace_.insert_or_assign(q, GraceEntry{f + kGraceFrames, std::move(ps)});
      it = proxied_.erase(it);
    } else {
      // Still the proxy next round: just reset the window counters.
      ps.updates_in_round = 0;
      ps.suspicious_in_round = 0;
      ps.adopted_at = f + 1;
      ++it;
    }
  }

  link_.flush();
}

// --------------------------------------------------------------- receive

void WatchmenPeer::on_message(const net::Envelope& env) {
  if (is_batch_wire(env.bytes())) {
    // Per-link batch container: unwrap hop-by-hop, then process each
    // sub-wire exactly as if it had arrived bare (same from / timing).
    // Truncation-safe: a datagram cut short on a real network still yields
    // its complete leading sub-wires (each signature-checked individually);
    // only the damaged tail is lost, and the damage is counted.
    const BatchPrefix bp = decode_batch_prefix(env.bytes());
    if (!bp.complete) ++metrics_.batch_rejects;
    for (const auto sub : bp.wires) handle_wire(env, sub);
  } else {
    handle_wire(env, env.bytes());
  }
  // Anything this delivery caused us to send goes out now, coalesced.
  link_.flush();
}

void WatchmenPeer::handle_wire(const net::Envelope& env,
                               std::span<const std::uint8_t> wire) {
  misbehavior_->on_received_wire(wire);

  const auto parsed = open(wire, *keys_);
  if (!parsed) {
    // Tampered, malformed, or spoofed: the signature layer catches it and
    // the network-level sender takes the blame (§IV). A failed signature is
    // cryptographic certainty, not a probabilistic sanity check — full
    // confidence regardless of the game-level vantage.
    ++metrics_.sig_rejects;
    emit_certain(env.from, verify::CheckType::kSignature,
                 net_->clock().frame(), 10.0);
    return;
  }
  const MsgHeader& h = parsed->header;
  if (h.subject >= schedule_.num_players() ||
      h.origin >= schedule_.num_players()) {
    return;
  }
  // A valid signature over a malformed body is dropped whole, before it
  // can touch any state. Whom to blame for it is left open.
  TypedBody typed;
  if (!decode_typed_body(*parsed, typed)) return;

  if (h.type == MsgType::kHeartbeat) {
    // Pure liveness beacon: refresh the receive watchdog, nothing else. A
    // relayed heartbeat proves nothing about the origin's path to us, so
    // only the direct leg counts.
    if (env.from == h.origin) link_.heard(h.origin, net_->clock().frame());
    return;
  }

  if (h.type == MsgType::kAck) {
    link_.on_ack(env, h, typed.ack);
    return;
  }

  // Reliable control: ack control-class messages back to the immediate
  // sender once signature and body check out (hop-by-hop; never an ack).
  link_.maybe_ack(env, h);

  if (h.type == MsgType::kRejoinNotice) {
    handle_rejoin_notice(h, typed.round);
    return;
  }

  if (h.type == MsgType::kHandoff) {
    // Control-plane latency sample: frame stamps are sim-clock anchored on
    // both transport backends, so (now - stamp) measures queueing, loss and
    // retransmit delay uniformly. Retransmitted copies keep their original
    // stamp, which is exactly the tail this distribution exists to expose.
    metrics_.handoff_latency_ms.add(static_cast<double>(
        std::max<TimeMs>(0, net_->clock().now() - time_of(h.frame))));
    handle_handoff(h, *typed.handoff);
    return;
  }

  if (h.type == MsgType::kChurnNotice) {
    handle_churn_notice(h, typed.round);
    return;
  }

  if (h.type == MsgType::kSubscriberList) {
    // Only meaningful in direct-update mode, and only from our own proxy.
    if (cfg_.direct_updates && h.subject == id_ &&
        env.from == schedule_.proxy_at(id_, net_->clock().frame())) {
      try {
        // Full lists replace; diffs apply against the current list, and a
        // baseline-hash miss (nullopt) keeps the old list until the proxy's
        // periodic full refresh.
        auto updated = decode_subscriber_list_body(parsed->body, direct_targets_);
        if (updated) {
          direct_targets_ = std::move(*updated);
        } else {
          ++metrics_.sub_diff_misses;
        }
      } catch (const DecodeError&) {
      }
    }
    return;
  }

  if (cfg_.direct_updates && env.from == h.origin &&
      h.type == MsgType::kStateUpdate && !proxied_.contains(h.origin) &&
      !grace_.contains(h.origin)) {
    // 1-hop direct update from a player whose stream we subscribed to.
    handle_as_player(env, *parsed, typed, /*direct_path=*/true);
    return;
  }

  if (h.type == MsgType::kSubscribe) {
    metrics_.subscribe_latency_ms.add(static_cast<double>(
        std::max<TimeMs>(0, net_->clock().now() - time_of(h.frame))));
    if (env.from == h.origin) {
      // First hop: we are (supposed to be) the subscriber's proxy.
      proxy_handle_subscribe_first_hop(wire, h, typed.kind);
      return;
    }
    // Second hop: we are (supposed to be) the target's proxy.
    const Frame now = net_->clock().frame();
    const auto it = proxied_.find(h.subject);
    ProxiedState* ps = it != proxied_.end() ? &it->second : nullptr;
    if (!ps) {
      // Round-boundary races: the subscription chased a proxy that just
      // handed off. Everyone can compute the current proxy, so either
      // adopt early (we are it, begin_frame just hasn't run) or pass the
      // signed wire along to whoever is.
      const PlayerId cur = schedule_.proxy_at(h.subject, now);
      if (cur == id_ && sitting_out()) return;
      if (cur != id_) {
        if (env.from != cur) {  // no ping-pong
          link_.forward(cur, std::make_shared<const std::vector<std::uint8_t>>(
                                 wire.begin(), wire.end()));
        }
        return;
      }
      ps = &adopt(h.subject, now);
    }
    if (typed.kind == interest::SetKind::kOther) {
      ps->subs.unsubscribe(h.origin);
    } else {
      ps->subs.subscribe(h.origin, typed.kind, now);
    }
    return;
  }

  if (env.from == h.origin) {
    // Direct leg: player -> its proxy.
    handle_as_proxy(env, wire, *parsed, typed);
  } else {
    // Forwarded leg: proxy -> subscriber.
    handle_as_player(env, *parsed, typed);
  }
}

bool WatchmenPeer::decode_typed_body(const ParsedMessage& msg,
                                     TypedBody& out) {
  try {
    switch (msg.header.type) {
      case MsgType::kGuidance:
        out.guidance = decode_guidance_body(msg.body);
        break;
      case MsgType::kPositionUpdate:
        out.pos = decode_position_body(msg.body);
        break;
      case MsgType::kKillClaim:
        out.kill = decode_kill_body(msg.body);
        break;
      case MsgType::kSubscribe:
        out.kind = decode_subscribe_body(msg.body);
        break;
      case MsgType::kAck:
        out.ack = decode_ack_body(msg.body);
        break;
      case MsgType::kChurnNotice:
        out.round = decode_churn_body(msg.body);
        break;
      case MsgType::kRejoinNotice:
        out.round = decode_rejoin_body(msg.body);
        break;
      case MsgType::kHandoff:
        out.handoff = decode_handoff_body(msg.body);
        break;
      default:
        break;
    }
  } catch (const DecodeError&) {
    return false;
  }
  return true;
}

bool WatchmenPeer::replay_guard(RemoteKnowledge& k, const MsgHeader& h,
                                PlayerId sender) {
  // Accept mild reordering (a couple of frames); reject messages that are
  // older than what we have already accepted from this origin. The blame
  // goes to whoever *sent* the stale message — the origin's signature is
  // genuine, it is the replayer that is cheating.
  if (h.frame > k.newest_frame ||
      (h.frame == k.newest_frame && h.seq > k.newest_seq)) {
    k.newest_frame = h.frame;
    k.newest_seq = h.seq;
    return true;
  }
  constexpr Frame kReorderWindow = 2;
  if (h.frame + kReorderWindow >= k.newest_frame) return true;

  ++metrics_.dropped_replays;
  verify::CheckResult res;
  res.deviation = static_cast<double>(k.newest_frame - h.frame);
  res.rating = verify::rating_from_deviation(res.deviation, 40.0);
  emit(sender, verify::CheckType::kConsistency, vantage_towards(sender),
       net_->clock().frame(), res);
  return false;
}

void WatchmenPeer::handle_as_proxy(const net::Envelope& env,
                                   std::span<const std::uint8_t> wire,
                                   const ParsedMessage& msg,
                                   const TypedBody& typed) {
  const MsgHeader& h = msg.header;
  const auto it = proxied_.find(h.origin);
  ProxiedState* psp = it != proxied_.end() ? &it->second : nullptr;
  // Emergency proxy failover: the origin routed to us — its
  // successor-of-round — because its proxy went silent from its vantage.
  // If the proxy looks dead from here too, adopt early, seeded with the
  // summary we already hold from a previous tenure so the two-round
  // follow-up chain survives. If the proxy looks alive from here, drop
  // silently: over-eager routing is a loss symptom, not a cheat.
  const authority::Failover failover =
      !psp && link_.failover_on() && !grace_.contains(h.origin) &&
              !sitting_out()
          ? authority::failover(schedule_, h.origin, id_, round_,
                                [this](PlayerId cur) {
                                  return link_.proxy_silent(cur);
                                })
          : authority::Failover::kNotSuccessor;
  if (failover == authority::Failover::kIncumbentHeard) return;
  if (failover == authority::Failover::kAdopt) {
    psp = &adopt(h.origin, frame_);
    if (const auto s = my_last_summaries_.find(h.origin);
        s != my_last_summaries_.end()) {
      psp->seed(s->second);
    }
    ++metrics_.failover_adoptions;
  }
  if (!psp) {
    // Grace window: keep serving players just handed off, don't verify.
    const auto git = grace_.find(h.origin);
    if (git != grace_.end()) {
      forward_stream(git->second.state, h, wire);
      return;
    }
    // Not our player at all: the sender bypassed the proxy scheme (direct
    // send / consistency cheat). The schedule is verifiable shared
    // knowledge, so this violation is certain, not probabilistic — except
    // briefly around churn pool changes, when schedules may diverge.
    if (!pool_transition_grace()) {
      emit_certain(env.from, verify::CheckType::kConsistency, h.frame, 10.0);
    }
    return;
  }

  ProxiedState& ps = *psp;
  if (!replay_guard(know_[h.origin], h, env.from)) return;

  // Time cheat: stamped long before it reached us.
  const Frame now = net_->clock().frame();
  const Frame lateness = now - h.frame;
  if (lateness > kMaxUpdateLateness) {
    verify::CheckResult res;
    res.deviation = static_cast<double>(lateness - kMaxUpdateLateness);
    // Saturates at twice the allowance: consistently stamping updates
    // hundreds of ms in the past is the look-ahead cheat.
    res.rating = verify::rating_from_deviation(
        res.deviation, static_cast<double>(kMaxUpdateLateness));
    emit(h.origin, verify::CheckType::kConsistency, verify::Vantage::kProxy,
         h.frame, res);
    ++ps.suspicious_in_round;
  }

  switch (h.type) {
    case MsgType::kStateUpdate:
    case MsgType::kPositionUpdate:
    case MsgType::kGuidance:
      proxy_handle_update(wire, msg, typed, ps);
      break;
    case MsgType::kKillClaim:
      proxy_handle_kill_claim(wire, h, typed.kill, ps);
      break;
    default:
      break;
  }
}

void WatchmenPeer::proxy_handle_update(std::span<const std::uint8_t> wire,
                                       const ParsedMessage& msg,
                                       const TypedBody& typed,
                                       ProxiedState& ps) {
  const MsgHeader& h = msg.header;
  const Frame now = net_->clock().frame();
  SubjectTrack& t = ps.track;

  switch (h.type) {
    case MsgType::kStateUpdate: {
      game::AvatarState s;
      if (!decode_state(msg.body, s)) break;
      if (t.has_state && t.state.alive && !s.alive) {
        know_[h.origin].last_death = h.frame;  // alive-flag transition
        // Redundant obituary: broadcast the (signed) dead-state update so
        // every verifier learns of the death even if the killer's claim was
        // lost — a respawn teleport must never look like a speed hack.
        forward_to_all(wire, h.origin);
      }
      // Position / physics check against the previous verified update.
      if (t.has_state && t.state.alive && s.alive &&
          check_move(h.origin, verify::Vantage::kProxy, t.state.pos,
                     t.state_frame, s.pos, h.frame)) {
        ++ps.suspicious_in_round;
      }
      maybe_close_guidance(h.origin, verify::Vantage::kProxy, t, h.frame, s.pos);
      // Aim analysis (Table I "aimbots: detection by proxy (statistical
      // analysis)"). Two signals:
      //  1. Turn rate: published aim must respect the engine's angular
      //     speed limit — instant snaps are mechanically impossible.
      if (t.has_state && s.alive && t.state.alive &&
          !in_death_window(h.origin, t.state_frame)) {
        const auto frames = std::max<Frame>(1, h.frame - t.state_frame);
        if (frames <= 3) {
          const double allowed = game::kDefaultPhysics.max_angular_speed *
                                     game::kDefaultPhysics.dt *
                                     static_cast<double>(frames) +
                                 0.02;
          const double turned = std::fabs(wrap_angle(s.yaw - t.state.yaw));
          if (turned > allowed) {
            verify::CheckResult res;
            res.deviation = turned - allowed;
            res.rating = verify::rating_from_deviation(res.deviation, 1.0);
            emit(h.origin, verify::CheckType::kAimbot, verify::Vantage::kProxy,
                 h.frame, res);
            ++ps.suspicious_in_round;
          }
        }
      }
      //  2. Statistical precision: sample the angular error towards the
      //     best-aligned nearby enemy whenever our knowledge of that enemy
      //     is fresh; inhumanly small per-round medians flag at round end.
      if (s.alive) {
        double best = 10.0;
        for (PlayerId q = 0; q < schedule_.num_players(); ++q) {
          if (q == h.origin || q == id_) continue;
          const RemoteKnowledge& ek = know_[q];
          if (ek.pos_frame < 0 || h.frame - ek.pos_frame > 1) continue;
          const Vec3 to_enemy = ek.pos + Vec3{0, 0, 56} - s.eye();
          const double d = to_enemy.norm();
          if (d < 200.0 || d > 1500.0) continue;
          best = std::min(best, angle_between(s.aim_dir(), to_enemy));
        }
        if (best < 1.0) ps.aim_samples.push_back(best);
      }

      t.state = s;
      t.state_frame = h.frame;
      t.has_state = true;
      ++ps.updates_in_round;
      // The direct stream also satisfies this peer's own witness-side
      // forwarding expectation (it never receives its own forwards).
      ++recv_state_in_round_[h.origin];

      // The proxy holds complete information about its player.
      observe_state(h.origin, s, h.frame, now);
      forward_stream(ps, h, wire);
      break;
    }
    case MsgType::kGuidance: {
      const interest::Guidance& g = typed.guidance;
      roll_guidance(h.origin, verify::Vantage::kProxy, t, g);
      // Keep the player-side knowledge consistent: a new guidance anchor
      // invalidates any path samples collected against the previous one.
      SubjectTrack& kt = know_[h.origin].track;
      kt.guidance = g;
      kt.has_guidance = true;
      kt.path_samples.assign(1, {g.frame, g.pos});
      forward_stream(ps, h, wire);
      break;
    }
    case MsgType::kPositionUpdate: {
      // Default infrequent updates go to everyone without a richer
      // subscription — no explicit subscription needed (paper §III-A).
      std::vector<PlayerId> others;
      for (PlayerId q = 0; q < schedule_.num_players(); ++q) {
        if (q == h.origin || q == id_) continue;
        if (ps.subs.level_of(q, now) == interest::SetKind::kOther) {
          others.push_back(q);
        }
      }
      // Budgeted fan-out: this is the only term that grows O(n) per player,
      // so at scale the proxy forwards each beacon to a rotating window of
      // the Other set instead of all of it. Receivers refresh every
      // ceil(|others|/budget) beacons; the position checks' dead-reckoning
      // slack already scales with update age, so verification keeps working
      // on the longer interval.
      if (cfg_.other_update_budget > 0 &&
          others.size() > cfg_.other_update_budget) {
        std::vector<PlayerId> window;
        window.reserve(cfg_.other_update_budget);
        ps.other_cursor %= others.size();
        for (std::uint32_t i = 0; i < cfg_.other_update_budget; ++i) {
          window.push_back(others[(ps.other_cursor + i) % others.size()]);
        }
        ps.other_cursor += cfg_.other_update_budget;
        forward_to(window, wire, h.origin);
      } else {
        forward_to(others, wire, h.origin);
      }
      break;
    }
    default:
      break;
  }
}

void WatchmenPeer::proxy_handle_subscribe_first_hop(
    std::span<const std::uint8_t> wire, const MsgHeader& h,
    interest::SetKind kind) {
  ProxiedState* psp = nullptr;
  if (const auto it = proxied_.find(h.origin); it != proxied_.end()) {
    psp = &it->second;
  } else if (const auto git = grace_.find(h.origin); git != grace_.end()) {
    psp = &git->second.state;  // boundary-crossing: still verify + forward
  }
  if (!psp) return;  // not our player at all
  ProxiedState& ps = *psp;
  const game::AvatarState& sub_state = ps.track.state;

  const PlayerId target = h.subject;
  if (target >= schedule_.num_players() || target == h.origin) return;

  // Verify the subscription is justified from the accurate state we hold
  // about the subscriber and our best knowledge of the target. Respawn
  // teleports of either party make stale comparisons meaningless, so skip
  // inside their death windows.
  if (ps.track.has_state && !in_death_window(h.origin, h.frame) &&
      !in_death_window(target, h.frame)) {
    const RemoteKnowledge& tk = know_[target];
    const Vec3 target_pos = tk.pos_frame >= 0 ? tk.pos : Vec3{1e9, 1e9, 1e9};
    if (tk.pos_frame >= 0) {
      // Cone deviation is essentially horizontal; budget the target's drift
      // since our last position sample accordingly.
      const Frame pos_age = std::max<Frame>(1, frame_ - tk.pos_frame);
      const double slack =
          64.0 + game::max_legal_horizontal(static_cast<int>(pos_age));
      // The subscription refers to the subscriber's cone at h.frame; our
      // state snapshot may be a frame or two off, and aim turns fast —
      // widen the cone by the legal turn budget for that gap, plus the
      // IS stickiness allowance honest subscribers legitimately use
      // (compute_sets keeps current IS members in a slightly relaxed cone).
      interest::VisionConfig vision = cfg_.interest.vision;
      const Frame aim_gap = std::llabs(h.frame - ps.track.state_frame);
      vision.half_angle +=
          0.16 + game::kDefaultPhysics.max_angular_speed *
                     game::kDefaultPhysics.dt * static_cast<double>(aim_gap);
      vision.radius *= 1.12;
      if (kind == interest::SetKind::kVision ||
          kind == interest::SetKind::kInterest) {
        // A high-rated verdict reached from a stale target sample is
        // parked, not emitted: the target may have died and respawned
        // inside the staleness gap (obituary lost to the network), making
        // an honest subscription to its *actual* position look like a
        // maphack. flush_pending_subs re-judges the cone once a sample
        // covering the subscription frame arrives; a fresh-sample verdict
        // emits immediately — no unseen teleport can explain it away.
        const auto emit_sub = [&](verify::CheckType type,
                                  verify::CheckResult res) {
          ++ps.suspicious_in_round;
          if (res.rating > 5.0 && tk.pos_frame < h.frame) {
            pending_subs_.push_back({h.origin, target, type, h.frame,
                                     h.frame + 2 * kDeathWindowFrames, res,
                                     sub_state, vision, slack});
            return;
          }
          emit(h.origin, type, verify::Vantage::kProxy, h.frame, res);
        };
        const verify::CheckResult vs = verify::check_vs_subscription(
            sub_state, target_pos, vision, slack);
        if (vs.suspicious()) {
          emit_sub(kind == interest::SetKind::kInterest
                       ? verify::CheckType::kSubscriptionIS
                       : verify::CheckType::kSubscriptionVS,
                   vs);
        } else if (kind == interest::SetKind::kInterest) {
          // Inside the cone: check the attention rank as well.
          auto snapshot = knowledge_snapshot();
          snapshot[h.origin] = sub_state;
          interest::InterestConfig icfg = cfg_.interest;
          icfg.vision = vision;
          const verify::CheckResult isr = verify::check_is_subscription(
              h.origin, target, snapshot, *map_, frame_, nullptr, icfg, slack);
          if (isr.suspicious()) {
            emit_sub(verify::CheckType::kSubscriptionIS, isr);
          }
        }
      }
    }
  }

  // Forward the original signed wire (verified or not — detection, not
  // prevention) to the target's proxy; the target never learns who
  // subscribed (§IV "Secured Subscriptions"). The second hop is tracked
  // under the *origin's* header, which is what the target proxy acks.
  link_.send_control(schedule_.proxy_at(target, frame_),
                     std::make_shared<const std::vector<std::uint8_t>>(
                         wire.begin(), wire.end()),
                     h);
}

void WatchmenPeer::proxy_handle_kill_claim(std::span<const std::uint8_t> wire,
                                           const MsgHeader& h,
                                           const KillClaim& claim,
                                           ProxiedState& ps) {
  if (claim.victim >= schedule_.num_players()) return;

  // The proxy judges from the last verified state, at eye height.
  const SubjectTrack& t = ps.track;
  verify::KillClaimEvidence ev;
  ev.shooter_pos = t.has_state ? t.state.pos : Vec3{};
  ev.shooter_pos_age =
      t.has_state ? std::max<Frame>(0, frame_ - t.state_frame) : 200;
  ev.line_of_sight =
      !t.has_state ||
      los_with_slack(t.state.eye(), claim.victim_pos + Vec3{0, 0, 56});
  if (judge_kill_claim(h, claim, ps.track, verify::Vantage::kProxy, ev)) {
    ++ps.suspicious_in_round;
  }

  // Obituary broadcast: every player learns about the death (scoreboard /
  // kill feed in the real game). Witnesses also re-verify the claim, and
  // everyone can legitimize the victim's upcoming respawn teleport.
  forward_to_all(wire, h.origin);
}

bool WatchmenPeer::judge_kill_claim(const MsgHeader& h, const KillClaim& claim,
                                    SubjectTrack& shooter,
                                    verify::Vantage vantage,
                                    verify::KillClaimEvidence ev) {
  ev.weapon = claim.weapon;
  ev.claimed_distance = claim.distance;
  if (in_death_window(h.origin, h.frame)) ev.shooter_pos_age = 200;
  const RemoteKnowledge& vk = know_[claim.victim];
  ev.victim_pos = vk.pos_frame >= 0 ? vk.pos : claim.victim_pos;
  ev.victim_pos_age = vk.pos_frame >= 0 ? frame_ - vk.pos_frame : 0;
  if (in_death_window(claim.victim, h.frame)) {
    // The victim respawned recently; our position knowledge may predate the
    // teleport — treat it as arbitrarily stale so the distance component
    // does not fire on honest claims.
    ev.victim_pos_age = 200;
  }
  ev.frames_since_last_fire = shooter.note_kill_claim(h.frame);
  ev.frames_victim_in_shooter_is = 1000;  // verifiers don't track IS residency
  ev.shooter_ammo = shooter.has_state ? shooter.state.ammo + 1 : 1;

  const verify::CheckResult res = verify::check_kill(ev);
  if (res.suspicious()) emit(h.origin, verify::CheckType::kKill, vantage, h.frame, res);
  // Record the obituary only after judging the claim itself.
  know_[claim.victim].last_death = h.frame;
  return res.suspicious();
}

void WatchmenPeer::handle_churn_notice(const MsgHeader& h,
                                       std::int64_t removal) {
  if (h.subject >= schedule_.num_players()) return;
  const std::int64_t notice_round = schedule_.round_of(h.frame);
  if (h.subject == id_) {
    // Our own departure, announced while we publish (a stale notice from
    // a healed partition, or an announcer whose view names it our proxy):
    // peers that accept it apply it, so follow the removal and contest it
    // with our restore, and every view drops and re-adds us at the same
    // boundaries. A node that stopped publishing was silent indeed, and
    // does not contest.
    if (frame_ - last_published_ > cfg_.renewal_frames) return;
    const std::int64_t restore = authority::contest_removal(
        pool_agreement_[id_], schedule_.in_pool(id_), notice_round, removal,
        round_);
    if (restore >= 0) {
      broadcast_control(MsgType::kRejoinNotice, id_,
                        encode_rejoin_body(restore));
    }
    return;
  }
  if (!schedule_.in_pool(h.subject)) return;  // already removed

  // Only the silent player's proxy for the notice round may announce —
  // unless we can corroborate the claim ourselves. Silence is locally
  // verifiable: if we have heard nothing from the subject for a full
  // renewal period either, any announcer is acceptable. This is what lets
  // re-announced notices heal pool divergence (after a lost notice the
  // laggard's idea of "the proxy" differs from everyone else's, so the
  // strict origin check would reject exactly the notices it needs).
  const Frame heard = link_.last_heard(h.subject);
  const bool silent_here = heard < 0 || frame_ - heard > cfg_.renewal_frames;
  const bool accepted = authority::accept_churn_notice(
      schedule_, h.subject, h.origin, notice_round, silent_here);
  // Around pool transitions (and partition heals) peers' pools — and so
  // their idea of "the proxy" — may legitimately diverge; don't blame.
  if (!accepted && !pool_transition_grace()) {
    emit_certain(h.origin, verify::CheckType::kConsistency, h.frame, 8.0);
  }
  // Whether we accept it or not, others may decide otherwise, and a live
  // subject contests: views may differ until its restore delay runs out.
  note_pool_change(authority::restore_round(round_));
  if (accepted) {
    authority::merge_removal(pool_agreement_[h.subject], true, notice_round,
                             removal);
  }
}

void WatchmenPeer::handle_rejoin_notice(const MsgHeader& h,
                                        std::int64_t restore) {
  if (h.subject >= schedule_.num_players()) return;

  // Accept from the subject itself (crash rejoin), from the subject's
  // current proxy (post-heal pool reconciliation), or from anyone when we
  // can corroborate the claim — we have heard the subject ourselves within
  // the last renewal period, so it is demonstrably alive from our vantage.
  // Anything else is ignored *without* blame: a restore only ever adds a
  // serving node, and pools are exactly what diverges during the faults
  // this message heals.
  const std::int64_t notice_round = schedule_.round_of(h.frame);
  const Frame heard = link_.last_heard(h.subject);
  const bool alive_here = heard >= 0 && frame_ - heard <= cfg_.renewal_frames;
  if (!authority::accept_rejoin_notice(schedule_, h.subject, h.origin,
                                       notice_round, alive_here)) {
    return;
  }
  authority::merge_restore(pool_agreement_[h.subject], notice_round, restore);
}

void WatchmenPeer::broadcast_control(MsgType type, PlayerId subject,
                                     std::span<const std::uint8_t> body) {
  const auto shared = std::make_shared<const std::vector<std::uint8_t>>(
      link_.seal(type, subject, frame_, body));
  for (PlayerId w = 0; w < schedule_.num_players(); ++w) {
    // The subject of a churn notice hears it too, so a live one contests.
    if (w != id_ && (w != subject || type == MsgType::kChurnNotice)) {
      link_.send_control(w, shared);
    }
  }
}

void WatchmenPeer::rejoin(Frame f) {
  const Frame last_alive = frame_;
  frame_ = f;
  round_ = schedule_.round_of(f);
  link_.reset(f);

  // Proxy duties lapsed silently while we were down; shed them all.
  proxied_.clear();
  grace_.clear();
  outbox_.clear();
  direct_targets_.clear();

  // A crash spanning a full round means the churn agreement has removed us
  // from everyone else's pool; mirror that locally so our assignment math
  // matches theirs until the agreed restore round, and announce re-entry.
  // (A node that was configured out of the pool — weight 0 — was never
  // removed by churn and announces nothing.) A pool at the floor keeps us
  // in our own view; we sit out until the restore all the same.
  if (f - last_alive > cfg_.renewal_frames && schedule_.in_pool(id_)) {
    if (authority::pool_keeps_floor(schedule_.pool_size() - 1)) {
      schedule_.remove_from_pool(id_);
      note_pool_change(round_);
    }
    const std::int64_t restore =
        authority::leave_for_rejoin(pool_agreement_[id_], round_);
    broadcast_control(MsgType::kRejoinNotice, id_, encode_rejoin_body(restore));
  }

  // Stale stream beliefs from before the crash would read as starvation or
  // proxy drops; reset the per-round accounting and force re-subscribes.
  for (PlayerId q = 0; q < schedule_.num_players(); ++q) {
    recv_state_in_round_[q] = 0;
    is_held_frames_in_round_[q] = 0;
    pending_starve_[q].active = false;
  }
  std::fill(sent_level_.begin(), sent_level_.end(), SentLevel{});

  link_.flush();
}

bool WatchmenPeer::pool_transition_grace() const {
  // While peers apply churn removals, their schedules may briefly diverge;
  // protocol-violation reports are suppressed around any pool change.
  return authority::in_transition_grace(round_, last_pool_change_round_);
}

bool WatchmenPeer::sitting_out() const {
  return authority::sitting_out(pool_agreement_[id_], round_);
}

void WatchmenPeer::note_pool_change(std::int64_t round) {
  // A churn notice notes a round ahead: views may diverge until then
  // though ours has not changed, and the grace covers it as it covers an
  // applied change.
  last_pool_change_round_ = std::max(last_pool_change_round_, round);
}

void WatchmenPeer::handle_handoff(const MsgHeader& h,
                                  const HandoffPayload& payload) {
  // Only the proxy of the round the handoff was *stamped* in may hand off.
  // h.frame sits under the origin's signature, so validating against the
  // stamped round (instead of "our previous round") stays correct for
  // retransmits and delayed copies that arrive rounds later.
  //
  // Round-boundary race: the handoff outran our begin_frame adoption (it is
  // sent in the last instants of the old round, so on a fast link it lands
  // before the new round's first begin_frame). If we are the incoming
  // proxy, adopt now; anyone else — including us when a stale retransmit
  // outlives our tenure — ignores it.
  const auto it = proxied_.find(h.subject);
  const authority::Handoff verdict = authority::handoff_verdict(
      schedule_, h.subject, h.origin, id_, schedule_.round_of(h.frame),
      schedule_.round_of(net_->clock().frame()), it != proxied_.end());
  if (verdict == authority::Handoff::kWrongOrigin) {
    if (!pool_transition_grace()) {
      emit_certain(h.origin, verify::CheckType::kConsistency, h.frame, 8.0);
    }
    return;
  }
  // A summary of some other player seeds nothing and adopts nobody.
  if (payload.summary.player != h.subject) return;
  if (verdict == authority::Handoff::kIgnore) return;
  if (verdict == authority::Handoff::kAdopt && sitting_out()) return;
  ProxiedState& ps = verdict == authority::Handoff::kAdopt
                         ? adopt(h.subject, net_->clock().frame())
                         : it->second;
  ps.seed(payload.summary);
  if (payload.summary.has_guidance && !ps.track.has_guidance) {
    // Continue the dead-reckoning window that spans the renewal: path
    // samples collected from here on are still compared against the
    // predecessor-era guidance.
    ps.track.guidance = payload.summary.guidance;
    ps.track.has_guidance = true;
  }
}

void WatchmenPeer::ProxiedState::seed(const PlayerSummary& s) {
  subs.install(s.subscriptions);
  if (s.has_state && !track.has_state) {
    track.state = s.last_state;
    track.state_frame = s.last_state_frame;
    track.has_state = true;
  }
  predecessor_summary = s;
}

void WatchmenPeer::handle_as_player(const net::Envelope& env,
                                    const ParsedMessage& msg,
                                    const TypedBody& typed, bool direct_path) {
  const MsgHeader& h = msg.header;
  const Frame now = net_->clock().frame();

  // The forwarder must be the origin's proxy for the message's round (with
  // one-round grace for boundary-crossing messages). Anything else is a
  // consistency violation: either a direct send by the origin (caught in
  // on_message by the from==origin path ending at a non-proxy) or a replay
  // by a third party. Direct-update mode deliberately waives this for
  // 1-hop state updates — part of its "lower security" trade.
  if (!direct_path &&
      !schedule_.proxy_near(env.from, h.origin, schedule_.round_of(h.frame))) {
    // Forward from a node that is not the origin's proxy for any plausible
    // round: a certain protocol violation by the sender (outside churn
    // transitions, when peers' pools may briefly diverge).
    //
    // Our own pool may be the stale one (a churn notice we missed). The
    // origin's signature still proves it was alive at its stamp, so keep
    // that liveness: without it, a peer that wrongly believes it proxies
    // the origin sees it silent everywhere and announces a live player's
    // departure.
    link_.heard(h.origin, std::min(h.frame, now));
    if (!pool_transition_grace()) {
      emit_certain(env.from, verify::CheckType::kConsistency, h.frame, 10.0);
      return;
    }
  }

  RemoteKnowledge& k = know_[h.origin];
  SubjectTrack& t = k.track;
  if (!replay_guard(k, h, env.from)) return;

  const verify::Vantage vantage = vantage_towards(h.origin);

  switch (h.type) {
    case MsgType::kStateUpdate: {
      game::AvatarState s;
      if (!decode_state(msg.body, s)) break;
      ++recv_state_in_round_[h.origin];
      metrics_.update_age_frames.add(static_cast<double>(now - h.frame));
      ++metrics_.updates_received;

      if ((t.has_state && t.state.alive && !s.alive) ||
          (!s.alive && h.frame > k.last_death + kDeathWindowFrames)) {
        k.last_death = h.frame;  // transition, or first news of this death
      }
      if (k.pos_frame >= 0 && (!t.has_state || t.state.alive) && s.alive) {
        check_move(h.origin, vantage, k.pos, k.pos_frame, s.pos, h.frame);
      }
      maybe_close_guidance(h.origin, vantage, t, h.frame, s.pos);
      observe_state(h.origin, s, h.frame, now);
      break;
    }
    case MsgType::kGuidance: {
      const interest::Guidance& g = typed.guidance;
      metrics_.update_age_frames.add(static_cast<double>(now - h.frame));
      ++metrics_.updates_received;

      roll_guidance(h.origin, vantage, t, g);
      t.path_samples.emplace_back(g.frame, g.pos);
      observe_pos(h.origin, g.pos, h.frame, now);
      break;
    }
    case MsgType::kPositionUpdate: {
      const Vec3& pos = typed.pos;
      metrics_.update_age_frames.add(static_cast<double>(now - h.frame));
      ++metrics_.updates_received;

      if (k.pos_frame >= 0) {
        check_move(h.origin, vantage, k.pos, k.pos_frame, pos, h.frame);
      }
      maybe_close_guidance(h.origin, vantage, t, h.frame, pos);
      observe_pos(h.origin, pos, h.frame, now);
      break;
    }
    case MsgType::kKillClaim: {
      // Witness verification of a forwarded kill claim.
      const KillClaim& claim = typed.kill;
      if (claim.victim >= schedule_.num_players()) break;
      // Witnesses know the shooter's position less precisely than the proxy
      // does: they judge from the last position at a fixed eye offset, and
      // only fresh knowledge supports an LOS judgement, with slack.
      verify::KillClaimEvidence ev;
      ev.shooter_pos = k.pos_frame >= 0 ? k.pos : Vec3{};
      ev.shooter_pos_age =
          k.pos_frame >= 0 ? std::max<Frame>(0, frame_ - k.pos_frame) : 200;
      ev.line_of_sight =
          k.pos_frame < 0 || frame_ - k.pos_frame > 2 ||
          los_with_slack(k.pos + Vec3{0, 0, 56},
                         claim.victim_pos + Vec3{0, 0, 56});
      judge_kill_claim(h, claim, t, vantage, ev);
      break;
    }
    default:
      break;
  }
}

void WatchmenPeer::forward_to(const std::vector<PlayerId>& recipients,
                              std::span<const std::uint8_t> wire,
                              PlayerId subject) {
  for (PlayerId to : recipients) {
    if (to == id_) continue;
    if (misbehavior_->proxy_drop_forward(subject, frame_)) continue;
    auto bytes = std::make_shared<const std::vector<std::uint8_t>>(
        wire.begin(), wire.end());
    if (misbehavior_->proxy_tamper_forward(subject, frame_)) {
      auto tampered = *bytes;
      if (!tampered.empty()) tampered[tampered.size() / 2] ^= 0xff;
      bytes = std::make_shared<const std::vector<std::uint8_t>>(std::move(tampered));
    }
    link_.forward(to, std::move(bytes));
  }
}

void WatchmenPeer::forward_to_all(std::span<const std::uint8_t> wire,
                                  PlayerId subject) {
  std::vector<PlayerId> all;
  all.reserve(schedule_.num_players());
  for (PlayerId q = 0; q < schedule_.num_players(); ++q) {
    if (q != id_ && q != subject) all.push_back(q);
  }
  forward_to(all, wire, subject);
}

void WatchmenPeer::forward_stream(const ProxiedState& ps, const MsgHeader& h,
                                  std::span<const std::uint8_t> wire) {
  const Frame now = net_->clock().frame();
  if (h.type == MsgType::kStateUpdate) {
    // In direct-update mode the player pushed to its IS subscribers itself;
    // the proxy copy exists for verification only.
    if (cfg_.direct_updates) return;
    forward_to(ps.subs.subscribers(interest::SetKind::kInterest, now), wire,
               h.origin);
  } else if (h.type == MsgType::kGuidance) {
    forward_to(ps.subs.subscribers(interest::SetKind::kVision, now), wire,
               h.origin);
  }
}

WatchmenPeer::ProxiedState& WatchmenPeer::adopt(PlayerId p, Frame at) {
  return proxied_
      .try_emplace(p, schedule_.num_players(), cfg_.renewal_frames, at)
      .first->second;
}

// --------------------------------------------------------------- helpers

void WatchmenPeer::emit(PlayerId suspect, verify::CheckType type,
                        verify::Vantage vantage, Frame frame,
                        const verify::CheckResult& res) {
  if (!report_ || suspect == id_) return;
  verify::CheatReport r;
  r.verifier = id_;
  r.suspect = suspect;
  r.type = type;
  r.vantage = vantage;
  r.frame = frame;
  r.deviation = res.deviation;
  r.rating = res.rating;
  report_(r);
}

void WatchmenPeer::emit_certain(PlayerId suspect, verify::CheckType type,
                                Frame frame, double rating) {
  verify::CheckResult res;
  res.deviation = 1.0;
  res.rating = rating;
  emit(suspect, type, verify::Vantage::kProxy, frame, res);
}

bool WatchmenPeer::in_death_window(PlayerId q, Frame baseline_frame) const {
  return know_[q].last_death + kDeathWindowFrames >= baseline_frame;
}

bool WatchmenPeer::check_move(PlayerId q, verify::Vantage vantage,
                              const Vec3& from, Frame from_frame,
                              const Vec3& to, Frame frame) {
  if (frame <= from_frame || in_death_window(q, from_frame)) return false;
  const verify::CheckResult res =
      verify::check_position(from, from_frame, to, frame, map_);
  if (res.suspicious()) emit(q, verify::CheckType::kPosition, vantage, frame, res);
  return res.suspicious();
}

bool WatchmenPeer::los_with_slack(const Vec3& from_eye, const Vec3& to_eye) const {
  constexpr double kJitter = 32.0;
  const Vec3 offsets[] = {{0, 0, 0},       {kJitter, 0, 0},  {-kJitter, 0, 0},
                          {0, kJitter, 0}, {0, -kJitter, 0}, {0, 0, kJitter}};
  for (const Vec3& off : offsets) {
    if (map_->visible(from_eye + off, to_eye)) return true;
  }
  return false;
}

void WatchmenPeer::observe_pos(PlayerId q, const Vec3& pos, Frame frame,
                               Frame now) {
  RemoteKnowledge& k = know_[q];
  checkpoint_pos(k, pos, frame);
  k.pos = pos;
  k.pos_frame = frame;
  link_.heard(q, now);
}

void WatchmenPeer::observe_state(PlayerId q, const game::AvatarState& s,
                                 Frame frame, Frame now) {
  observe_pos(q, s.pos, frame, now);
  RemoteKnowledge& k = know_[q];
  k.track.state = s;
  k.track.state_frame = frame;
  k.track.has_state = true;
}

void WatchmenPeer::checkpoint_pos(RemoteKnowledge& k, const Vec3& next_pos,
                                  Frame next_frame) {
  if (k.pos_frame < 0 || next_frame <= k.pos_frame) return;
  // Pin the pre-jump sample when the position teleports: death + respawn
  // move an avatar across the map in one step, and peers that missed the
  // obituary legitimately keep aiming near the old spot for a while. A
  // physically reachable move is not worth remembering — the regular
  // drift slack already covers it.
  const Frame gap = next_frame - k.pos_frame;
  const double moved = std::hypot(next_pos.x - k.pos.x, next_pos.y - k.pos.y);
  if (moved > 64.0 + game::max_legal_horizontal(static_cast<int>(gap))) {
    k.old_pos = k.pos;
    k.old_pos_frame = k.pos_frame;
  }
}

void WatchmenPeer::flush_pending_subs(Frame f) {
  auto it = pending_subs_.begin();
  while (it != pending_subs_.end()) {
    const RemoteKnowledge& tk = know_[it->target];
    bool resolve = false;
    verify::CheckResult res = it->result;
    if (tk.pos_frame >= it->frame) {
      // A sample at-or-after the subscription frame arrived: re-judge the
      // cone against where the target actually was, budgeting its legal
      // movement across the small timestamp gap. An honest subscriber
      // whose verdict only looked bad because the verifier's view
      // straddled an unseen respawn passes now; a harvested position
      // stays outside the cone and the original rating stands.
      const auto gap =
          static_cast<int>(std::max<Frame>(1, tk.pos_frame - it->frame));
      double dev = interest::cone_deviation(it->sub_state, tk.pos, it->vision) -
                   game::max_legal_horizontal(gap);
      // Symmetric benefit of the doubt: the subscriber may instead have
      // been the stale party, aiming where the target stood *before* a
      // respawn whose obituary it missed.
      if (tk.old_pos_frame >= 0 && tk.old_pos_frame >= it->frame - kDeathWindowFrames &&
          tk.old_pos_frame <= it->frame + kDeathWindowFrames) {
        dev = std::min(
            dev, interest::cone_deviation(it->sub_state, tk.old_pos,
                                          it->vision) -
                     game::max_legal_horizontal(static_cast<int>(
                         std::max<Frame>(1, it->frame - tk.old_pos_frame))));
      }
      if (dev <= it->slack) res.rating = 5.0;
      resolve = true;
    } else if (f >= it->deadline) {
      resolve = true;  // target went silent: the original evidence stands
    }
    if (resolve) {
      emit(it->origin, it->type, verify::Vantage::kProxy, it->frame, res);
      it = pending_subs_.erase(it);
    } else {
      ++it;
    }
  }
}

verify::Vantage WatchmenPeer::vantage_towards(PlayerId suspect) const {
  if (suspect < schedule_.num_players() && proxied_.contains(suspect)) {
    return verify::Vantage::kProxy;
  }
  if (suspect >= sent_level_.size()) return verify::Vantage::kOther;
  switch (sent_level_[suspect].kind) {
    case interest::SetKind::kInterest:
      return verify::Vantage::kInterestWitness;
    case interest::SetKind::kVision:
      return verify::Vantage::kVisionWitness;
    case interest::SetKind::kOther:
      break;
  }
  return verify::Vantage::kOther;
}

std::vector<game::AvatarState> WatchmenPeer::knowledge_snapshot() const {
  std::vector<game::AvatarState> snap(schedule_.num_players());
  for (PlayerId q = 0; q < schedule_.num_players(); ++q) {
    if (q == id_ && has_own_state_) {
      snap[q] = own_state_;
      continue;
    }
    const RemoteKnowledge& k = know_[q];
    if (k.track.has_state) {
      snap[q] = k.track.state;
      if (k.pos_frame > k.track.state_frame) snap[q].pos = k.pos;
    } else if (k.pos_frame >= 0) {
      snap[q].pos = k.pos;
    } else {
      snap[q].alive = false;  // never heard of: can't be in anyone's cone
    }
  }
  return snap;
}

void WatchmenPeer::maybe_close_guidance(PlayerId suspect,
                                        verify::Vantage vantage,
                                        SubjectTrack& t, Frame observed_frame,
                                        const Vec3& observed_pos) {
  if (!t.has_guidance) return;
  if (observed_frame >
      t.guidance.frame + interest::kGuidancePeriodFrames + 2) {
    close_guidance_window(suspect, vantage, t);
    t.has_guidance = false;
    return;
  }
  t.path_samples.emplace_back(observed_frame, observed_pos);
}

void WatchmenPeer::close_guidance_window(PlayerId suspect,
                                         verify::Vantage vantage,
                                         SubjectTrack& t) {
  if (t.has_guidance) verify_guidance_window(suspect, vantage, t);
  t.path_samples.clear();
}

void WatchmenPeer::roll_guidance(PlayerId suspect, verify::Vantage vantage,
                                 SubjectTrack& t, const interest::Guidance& g) {
  close_guidance_window(suspect, vantage, t);
  t.guidance = g;
  t.has_guidance = true;
}

void WatchmenPeer::verify_guidance_window(PlayerId suspect,
                                          verify::Vantage vantage,
                                          const SubjectTrack& t) {
  const interest::Guidance& old_guidance = t.guidance;
  // A death inside (or just before) the window makes the respawn teleport
  // pollute the comparison: keep only samples from before the death. The
  // time-normalized metric keeps trimmed windows comparable.
  std::vector<std::pair<Frame, Vec3>> samples;
  const Frame death = know_[suspect].last_death;
  const bool trim_death = death >= old_guidance.frame - kDeathWindowFrames;
  // Cap the horizon at one guidance period (+ jitter): if the next guidance
  // was lost, later samples compare against a prediction the sender never
  // claimed to cover, and the area integral would grow quadratically.
  const Frame horizon =
      old_guidance.frame + interest::kGuidancePeriodFrames + 2;
  for (const auto& s : t.path_samples) {
    if (s.first < old_guidance.frame) continue;  // predates this window
    if (trim_death && s.first >= death) continue;
    if (s.first > horizon) continue;
    samples.push_back(s);
  }
  if (samples.empty()) return;

  // Rebuild a contiguous actual path at the sampled frames.
  std::vector<Vec3> path;
  path.reserve(samples.size());
  Frame first = samples.front().first;
  // The area metric expects per-frame samples; when the verifier only has
  // sparse samples (VS witnesses), interpolate between them.
  const Frame last = samples.back().first;
  if (last < first) return;
  std::size_t si = 0;
  for (Frame f = first; f <= last; ++f) {
    while (si + 1 < samples.size() && samples[si + 1].first <= f) ++si;
    if (si + 1 < samples.size() && samples[si].first <= f) {
      const auto& [f0, p0] = samples[si];
      const auto& [f1, p1] = samples[si + 1];
      const double t = f1 > f0 ? static_cast<double>(f - f0) / (f1 - f0) : 0.0;
      path.push_back(lerp(p0, p1, t));
    } else {
      path.push_back(samples[si].second);
    }
  }
  const verify::CheckResult res = verify::check_guidance(
      old_guidance, path, first, cfg_.guidance_tolerance);
  if (res.suspicious()) {
    emit(suspect, verify::CheckType::kGuidance, vantage, old_guidance.frame, res);
  }
}

std::vector<PlayerId> WatchmenPeer::proxied_players() const {
  std::vector<PlayerId> out;
  out.reserve(proxied_.size());
  for (const auto& [p, _] : proxied_) out.push_back(p);
  std::sort(out.begin(), out.end());
  return out;
}

interest::SetKind WatchmenPeer::proxy_table_level(PlayerId subject,
                                                  PlayerId subscriber) const {
  const auto it = proxied_.find(subject);
  if (it == proxied_.end()) return interest::SetKind::kOther;
  return it->second.subs.level_of(subscriber, frame_);
}

}  // namespace watchmen::core
