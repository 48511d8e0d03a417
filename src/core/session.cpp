#include "core/session.hpp"

#include <array>
#include <iterator>
#include <stdexcept>

namespace watchmen::core {

namespace {

std::unique_ptr<net::LatencyModel> make_latency(NetProfile profile,
                                                std::size_t n,
                                                double fixed_ms,
                                                std::uint64_t seed) {
  switch (profile) {
    case NetProfile::kLan: return std::make_unique<net::LanLatency>();
    case NetProfile::kKing: return net::make_king_latency(n, seed);
    case NetProfile::kPeerwise: return net::make_peerwise_latency(n, seed);
    case NetProfile::kFixed: return std::make_unique<net::FixedLatency>(fixed_ms);
  }
  throw std::invalid_argument("bad net profile");
}

/// Lead classes the UDP send queue must never shed under backpressure: the
/// reliable control plane (agreement state with its own retransmit budget)
/// plus the acks that complete it.
constexpr std::uint32_t control_class_mask() {
  return (1u << static_cast<unsigned>(MsgType::kSubscribe)) |
         (1u << static_cast<unsigned>(MsgType::kHandoff)) |
         (1u << static_cast<unsigned>(MsgType::kChurnNotice)) |
         (1u << static_cast<unsigned>(MsgType::kAck)) |
         (1u << static_cast<unsigned>(MsgType::kRejoinNotice));
}

/// The summed PeerMetrics counters the registry exports, each under its
/// registry name.
struct PeerCounter {
  const char* name;
  std::uint64_t PeerMetrics::*field;
};
constexpr PeerCounter kPeerCounters[] = {
    {"peer.updates_received", &PeerMetrics::updates_received},
    {"peer.messages_sent", &PeerMetrics::messages_sent},
    {"peer.forwarded", &PeerMetrics::forwarded},
    {"peer.sig_rejects", &PeerMetrics::sig_rejects},
    {"peer.dropped_replays", &PeerMetrics::dropped_replays},
    {"peer.acks_sent", &PeerMetrics::acks_sent},
    {"peer.acks_received", &PeerMetrics::acks_received},
    {"peer.reliable_expired", &PeerMetrics::reliable_expired},
    {"peer.failover_adoptions", &PeerMetrics::failover_adoptions},
    {"peer.watchdog_suspects", &PeerMetrics::watchdog_suspects},
    {"peer.watchdog_deaths", &PeerMetrics::watchdog_deaths},
    // Batching and delta coding.
    {"peer.batches_sent", &PeerMetrics::batches_sent},
    {"peer.batched_messages", &PeerMetrics::batched_messages},
    {"peer.batch_rejects", &PeerMetrics::batch_rejects},
    {"peer.anchored_sent", &PeerMetrics::anchored_sent},
    {"peer.anchored_decodes", &PeerMetrics::anchored_decodes},
    {"peer.keyframes_decoded", &PeerMetrics::keyframes_decoded},
    {"peer.baseline_mismatches", &PeerMetrics::baseline_mismatches},
    {"peer.state_acks_sent", &PeerMetrics::state_acks_sent},
    {"peer.sub_diff_misses", &PeerMetrics::sub_diff_misses},
};

}  // namespace

WatchmenSession::WatchmenSession(
    const game::GameTrace& trace, const game::GameMap& map, SessionOptions opts,
    std::unordered_map<PlayerId, Misbehavior*> misbehaviors)
    : trace_(&trace),
      map_(&map),
      opts_(opts),
      keys_(opts.seed, trace.n_players),
      schedule_(opts.seed, trace.n_players, opts.watchmen.renewal_frames),
      // One aggregation epoch per proxy round, the cadence at which proxy
      // vantage rotates and verdicts complete.
      misbehavior_(trace.n_players, opts.watchmen.renewal_frames),
      replayer_(trace),
      pool_(opts.compute_threads),
      connected_(trace.n_players, true),
      rep_excluded_(trace.n_players, false) {
  if (opts.transport_factory) {
    net_ = opts.transport_factory(trace.n_players);
  } else {
    net::TransportConfig tc;
    tc.kind = net::transport_kind_from_env();
    tc.n_nodes = trace.n_players;
    tc.latency = make_latency(opts.net, trace.n_players, opts.fixed_latency_ms,
                              opts.seed);
    tc.loss_rate = opts.loss_rate;
    tc.seed = opts.seed;
    tc.control_class_mask = control_class_mask();
    net_ = net::make_transport(std::move(tc));
  }
  if (net_->size() != trace.n_players) {
    throw std::invalid_argument("session: transport/trace player mismatch");
  }

  local_.assign(trace.n_players, opts.local_players.empty());
  for (const PlayerId p : opts.local_players) {
    if (p < trace.n_players) local_[p] = true;
  }
  next_frame_ = opts.start_frame;

  for (const auto& [p, w] : opts.pool_weights) schedule_.set_weight(p, w);
  for (const auto& [p, bps] : opts.upload_bps) net_->set_upload_bps(p, bps);

  // Every detector verdict becomes a typed penalty, with the detector's
  // loss-aware discount preserved.
  detector_.set_penalty_sink([this](const verify::CheatReport& r,
                                    double discount) {
    misbehavior_.submit(r, discount);
  });
  // Proxy-vantage claims are validated against the verifiable schedule:
  // ±1 round covers the handoff grace window and early failover adoption.
  misbehavior_.set_proxy_vantage_check(
      [this](PlayerId reporter, PlayerId subject, Frame frame) {
        return schedule_.proxy_near(reporter, subject,
                                    schedule_.round_of(frame));
      });
  if (opts_.registry) {
    misbehavior_.set_penalty_signal(
        [reg = opts_.registry](PlayerId, reputation::PenaltyReason reason,
                               double, double) {
          reg->counter(std::string("rep.penalty{reason=") +
                       reputation::to_string(reason) + "}")
              .add(1);
        });
  }

  if (!opts.faults.empty()) {
    net_->set_fault_plan(opts.faults);
    // Discount detector reports stamped inside any fault window, plus a
    // few rounds of settling: pools re-converge through the churn/rejoin
    // agreement, and honest traffic looks suspicious until they do.
    const Frame settle = 3 * opts.watchmen.renewal_frames;
    for (const auto& [begin, end] : opts.faults.fault_frame_windows(settle)) {
      detector_.add_fault_window(begin, end);
    }
  }

  peers_.resize(trace.n_players);
  for (PlayerId p = 0; p < trace.n_players; ++p) {
    if (!local_[p]) continue;  // simulated by a sibling process
    Misbehavior* mb = nullptr;
    if (const auto it = misbehaviors.find(p); it != misbehaviors.end()) {
      mb = it->second;
    }
    peers_[p] = std::make_unique<WatchmenPeer>(
        p, opts.watchmen, *net_, keys_, schedule_, map,
        [this](const verify::CheatReport& r) {
          if (opts_.tracer) opts_.tracer->instant("cheat_report", r.frame, r.suspect);
          detector_.report(r);
        },
        mb);
    net_->set_handler(p, [this, p](const net::Envelope& env) {
      peers_[p]->on_message(env);
    });
    if (opts.start_frame > 0) {
      // A process entering mid-trace (wmproc re-fork after a kill) is a
      // crash rejoin: the peer re-enters the pool through the agreed
      // restore round and resets its pre-crash stream beliefs.
      peers_[p]->rejoin(opts.start_frame);
    }
  }

  if (opts_.registry) {
    collector_id_ = static_cast<std::int64_t>(opts_.registry->add_collector(
        [this](obs::Registry& reg) { collect_metrics(reg); }));
  }
}

WatchmenSession::~WatchmenSession() {
  if (opts_.registry && collector_id_ >= 0) {
    opts_.registry->remove_collector(
        static_cast<obs::Registry::CollectorId>(collector_id_));
  }
}

void WatchmenSession::run_frames(std::size_t n) {
  std::size_t start;
  {
    const util::MutexLock lock(frame_mu_);
    start = static_cast<std::size_t>(next_frame_);
  }
  const auto limit = std::min<std::size_t>(trace_->num_frames(), start + n);
  obs::Tracer* const tr = opts_.tracer;
  for (auto fi = start; fi < limit; ++fi) {
    // frame_mu_ is held for the whole frame body and released between
    // frames — the only points where cross-thread observers (registry
    // snapshots, connected()/current_frame()) may see the session.
    const util::MutexLock lock(frame_mu_);
    const Frame f = static_cast<Frame>(fi);
    next_frame_ = f;
    const obs::Span frame_span(tr, "frame", f);
    replayer_.seek(fi);
    const game::TraceFrame& tf = replayer_.current();

    // Scripted crash / rejoin events take effect before anything else in
    // the frame (the node misses even this frame's deliveries).
    for (const auto& c : opts_.faults.crashes) {
      if (c.player >= trace_->n_players) continue;
      if (c.at == f && connected_[c.player]) disconnect_locked(c.player);
      if (c.rejoin == f && !connected_[c.player]) reconnect_locked(c.player);
    }

    // Misbehavior epochs whose end has passed close now, before this
    // frame's reports flow; standing enforcement applies only at round
    // boundaries — before begin_frame adopts the round — so every peer
    // serves a whole round under the same weights.
    misbehavior_.advance_to_frame(f);
    if (opts_.misbehavior_enforcement &&
        f % opts_.watchmen.renewal_frames == 0) {
      apply_standing_enforcement();
    }

    {
      // Frame start: deliver messages due before this frame's sends, then
      // run round bookkeeping (proxy handoffs on round boundaries).
      const obs::Span span(tr, "deliver", f);
      net_->run_until(time_of(f));
    }
    {
      const obs::Span span(tr, "handoff", f);
      for (PlayerId p = 0; p < trace_->n_players; ++p) {
        if (connected_[p] && peers_[p]) peers_[p]->begin_frame(f);
      }
    }

    // Every player publishes; subscriptions derive from the in-game sets
    // the tracing module recorded (computed here from the replayed state,
    // with hysteresis against the previous frame's sets).
    //
    // The set computation is the frame budget's hot phase and runs on the
    // pool: each player's sets are a pure function of the frame snapshot
    // plus its own previous sets, written into its own slot, so any worker
    // interleaving produces bit-identical results. The shared visibility
    // cache is epoch-stamped and idempotent (racing writers store the same
    // pure raycast verdict). Message production stays sequential below to
    // keep the network event order deterministic.
    const std::size_t n = trace_->n_players;
    if (prev_sets_.size() != n) prev_sets_.resize(n);
    if (frame_sets_.size() != n) frame_sets_.resize(n);
    {
      const obs::Span span(tr, "interest_compute", f);
      eye_table_.build(tf.avatars);
      vis_cache_.begin_frame(n);
      const interest::InteractionFn last_hit = [this](PlayerId a, PlayerId b) {
        return replayer_.last_interaction(a, b);
      };
      // The workers read connectivity through an alias: the thread-safety
      // analysis is intraprocedural, so a lambda touching the guarded
      // member directly would warn even though this thread holds frame_mu_
      // across the whole parallel region (and nobody can take it
      // meanwhile). The alias states that ownership transfer explicitly.
      const std::vector<bool>& live = connected_;
      pool_.parallel_for(n, [&](std::size_t p) {
        if (!live[p] || !peers_[p]) return;
        interest::compute_sets_into(static_cast<PlayerId>(p), tf.avatars, *map_,
                                    f, last_hit, opts_.watchmen.interest,
                                    &prev_sets_[p], &vis_cache_, frame_sets_[p],
                                    &eye_table_);
      });
    }
    {
      const obs::Span span(tr, "dissemination", f);
      for (PlayerId p = 0; p < n; ++p) {
        if (!connected_[p] || !peers_[p]) continue;
        peers_[p]->produce(tf.avatars, frame_sets_[p], tf.events.kills);
        // The just-computed sets become the hysteresis input; the old buffer
        // is recycled as next frame's output (steady state allocates nothing).
        std::swap(prev_sets_[p], frame_sets_[p]);
      }
    }

    {
      // Deliver what arrives within this frame, then close the frame.
      const obs::Span span(tr, "deliver", f);
      net_->run_until(time_of(f + 1) - 1);
    }
    for (PlayerId p = 0; p < trace_->n_players; ++p) {
      if (connected_[p] && peers_[p]) peers_[p]->end_frame(f);
    }
  }
  const util::MutexLock lock(frame_mu_);
  next_frame_ = static_cast<Frame>(limit);
}

void WatchmenSession::run() {
  run_frames(trace_->num_frames() -
             static_cast<std::size_t>(current_frame()));
}

void WatchmenSession::disconnect(PlayerId p) {
  const util::MutexLock lock(frame_mu_);
  disconnect_locked(p);
}

void WatchmenSession::disconnect_locked(PlayerId p) {
  connected_.at(p) = false;
  net_->set_handler(p, nullptr);  // the node is gone; traffic to it vanishes
  // Standing freezes while down: no decay, and the silence penalties the
  // gap produces stay refundable if this turns out to be a rejoin cycle.
  misbehavior_.on_disconnect(p, next_frame_);
  if (opts_.tracer) opts_.tracer->instant("disconnect", next_frame_, p);
}

void WatchmenSession::reconnect(PlayerId p) {
  const util::MutexLock lock(frame_mu_);
  reconnect_locked(p);
}

void WatchmenSession::reconnect_locked(PlayerId p) {
  if (connected_.at(p)) return;
  connected_.at(p) = true;
  if (opts_.tracer) opts_.tracer->instant("reconnect", next_frame_, p);
  if (peers_[p]) {
    net_->set_handler(p, [this, p](const net::Envelope& env) {
      peers_[p]->on_message(env);
    });
    peers_[p]->rejoin(next_frame_);
  }
  // The crash-long silence read as an escape to its proxies; a completed
  // rejoin proves it was churn. Refund that evidence (targeted cheats
  // report under other check types and survive the absolution).
  detector_.absolve(p, {verify::CheckType::kEscape, verify::CheckType::kRate},
                    next_frame_);
  // The engine mirrors the absolution — silence penalties from the gap are
  // refunded — but every other penalty carries forward: rejoining does not
  // wash a rating.
  misbehavior_.on_rejoin(p, next_frame_);
}

void WatchmenSession::apply_standing_enforcement() {
  const std::size_t n = trace_->n_players;
  for (PlayerId p = 0; p < n; ++p) {
    if (rep_excluded_[p] || !misbehavior_.discouraged(p)) continue;
    // The pool must keep at least two eligible serving members (everyone
    // needs a proxy other than themselves); with fewer, even a discouraged
    // player keeps serving — deprioritized, not load-bearing, is the tier's
    // contract.
    std::size_t eligible = 0;
    for (PlayerId q = 0; q < n; ++q) {
      if (schedule_.in_pool(q) && !rep_excluded_[q]) ++eligible;
    }
    if (schedule_.in_pool(p) && eligible <= 2) continue;
    rep_excluded_[p] = true;
    if (opts_.tracer) opts_.tracer->instant("rep_excluded", next_frame_, p);
    if (schedule_.in_pool(p)) schedule_.set_weight(p, 0.0);
    for (PlayerId q = 0; q < n; ++q) {
      if (peers_[q]) peers_[q]->set_pool_standing(p, false);
    }
  }
}

void WatchmenSession::collect_metrics(obs::Registry& reg) const {
  // Holding frame_mu_ here means a snapshot taken from another thread
  // waits for the frame in flight and then reads quiescent peers/net state.
  const util::MutexLock lock(frame_mu_);
  reg.counter("session.frames").set(static_cast<std::uint64_t>(next_frame_));
  std::uint64_t connected = 0;
  for (bool c : connected_) connected += c ? 1 : 0;
  reg.gauge("session.connected_players").set(static_cast<double>(connected));

  // Network, with the per-class breakdown keyed by MsgType name (classes
  // the wire never carried are skipped to keep snapshots compact).
  const net::NetStats ns = net_->stats();
  reg.counter("net.sent").set(ns.sent);
  reg.counter("net.delivered").set(ns.delivered);
  reg.counter("net.dropped").set(ns.dropped);
  reg.counter("net.bits_sent").set(ns.bits_sent);
  // Real-network hardening counters (zero on a clean simulated run).
  reg.counter("net.oversize").set(ns.oversize);
  reg.counter("net.shed").set(ns.shed);
  reg.counter("net.rx_rejects").set(ns.rx_rejects);
  // In-flight age of every delivered message (the latency-SLO headline
  // number). Summary gauges: the registry keeps no distributions, since a
  // pull collector re-adding raw samples at each snapshot would
  // double-count.
  if (ns.delivery_age_ms.count()) {
    const auto q = ns.delivery_age_ms.quantiles({0.50, 0.95, 0.99});
    reg.gauge("net.delivery_age_ms_mean").set(ns.delivery_age_ms.mean());
    reg.gauge("net.delivery_age_ms_p50").set(q[0]);
    reg.gauge("net.delivery_age_ms_p95").set(q[1]);
    reg.gauge("net.delivery_age_ms_p99").set(q[2]);
  }
  for (std::size_t c = 0; c < net::NetStats::kClassBuckets; ++c) {
    if (ns.bits_sent_by_class[c] == 0 && ns.dropped_by_class[c] == 0) continue;
    const char* type =
        c < kNumMsgTypes ? to_string(static_cast<MsgType>(c)) : "other";
    reg.counter(std::string("net.bits_sent{type=") + type + "}")
        .set(ns.bits_sent_by_class[c]);
    reg.counter(std::string("net.bytes_sent{type=") + type + "}")
        .set(ns.bits_sent_by_class[c] / 8);
    reg.counter(std::string("net.dropped{type=") + type + "}")
        .set(ns.dropped_by_class[c]);
  }

  // Peers: fleet-wide aggregates plus a per-player staleness gauge.
  std::array<std::uint64_t, std::size(kPeerCounters)> sums{};
  std::uint64_t retransmits = 0, flushes = 0, flushed_messages = 0;
  Samples staleness, update_ages;
  Samples handoff_latency, subscribe_latency;
  for (PlayerId p = 0; p < trace_->n_players; ++p) {
    if (!peers_[p]) continue;  // simulated by a sibling process
    const PeerMetrics& m = peers_[p]->metrics();
    for (std::size_t i = 0; i < sums.size(); ++i) {
      sums[i] += m.*kPeerCounters[i].field;
    }
    for (std::uint64_t v : m.retransmits_by_type) retransmits += v;
    flushes += m.flushes;
    flushed_messages += m.flushed_messages;
    for (double v : m.handoff_latency_ms.values()) handoff_latency.add(v);
    for (double v : m.subscribe_latency_ms.values()) subscribe_latency.add(v);
    for (double v : m.staleness_frames.values()) staleness.add(v);
    for (double v : m.update_age_frames.values()) update_ages.add(v);
    reg.gauge("peer.staleness_p99", p)
        .set(m.staleness_frames.count() ? m.staleness_frames.quantile(0.99)
                                        : 0.0);
  }
  for (std::size_t i = 0; i < sums.size(); ++i) {
    reg.counter(kPeerCounters[i].name).set(sums[i]);
  }
  reg.counter("peer.retransmits").set(retransmits);
  // Receive-side control-plane latency (frame stamp to decode, including
  // retransmit delay) — the per-class latency-SLO distributions.
  if (handoff_latency.count()) {
    const auto q = handoff_latency.quantiles({0.50, 0.99});
    reg.gauge("peer.handoff_latency_ms_mean").set(handoff_latency.mean());
    reg.gauge("peer.handoff_latency_ms_p50").set(q[0]);
    reg.gauge("peer.handoff_latency_ms_p99").set(q[1]);
  }
  if (subscribe_latency.count()) {
    const auto q = subscribe_latency.quantiles({0.50, 0.99});
    reg.gauge("peer.subscribe_latency_ms_mean").set(subscribe_latency.mean());
    reg.gauge("peer.subscribe_latency_ms_p50").set(q[0]);
    reg.gauge("peer.subscribe_latency_ms_p99").set(q[1]);
  }

  // The batch size is the mean messages per per-link flush.
  if (flushes) {
    reg.gauge("net.batch_size_mean")
        .set(static_cast<double>(flushed_messages) /
             static_cast<double>(flushes));
  }
  reg.gauge("session.staleness_p99")
      .set(staleness.count() ? staleness.quantile(0.99) : 0.0);
  reg.gauge("session.update_age_p99")
      .set(update_ages.count() ? update_ages.quantile(0.99) : 0.0);

  // Detector verdicts, by check type plus the flagged-player roll-up.
  reg.counter("detector.reports").set(detector_.total_reports());
  const auto& by_type = detector_.reports_by_type();
  for (std::size_t t = 0; t < by_type.size(); ++t) {
    if (by_type[t] == 0) continue;
    reg.counter(std::string("detector.reports{type=") +
                verify::to_string(static_cast<verify::CheckType>(t)) + "}")
        .set(by_type[t]);
  }
  std::uint64_t flagged = 0;
  for (PlayerId p = 0; p < trace_->n_players; ++p) {
    if (detector_.flagged(p)) ++flagged;
  }
  reg.counter("detector.flagged_players").set(flagged);

  // Misbehavior engine. Per-penalty counters ("rep.penalty{reason=...}")
  // ride the push-model signal hook; this mirror carries the pull-side
  // aggregates and the score distribution (summary gauges: registry
  // Samples accumulate across snapshots, so re-adding raw values from a
  // pull collector would double-count).
  std::uint64_t rep_reports = 0;
  for (int t = 0; t < reputation::kNumPenaltyReasons; ++t) {
    const auto reason = static_cast<reputation::PenaltyReason>(t);
    const reputation::ReasonStats& rs = misbehavior_.stats(reason);
    rep_reports += rs.reports;
    if (rs.convictions == 0) continue;
    reg.counter(std::string("rep.convictions{reason=") +
                reputation::to_string(reason) + "}")
        .set(rs.convictions);
  }
  reg.counter("rep.reports").set(rep_reports);
  reg.counter("rep.rejected_reports").set(misbehavior_.rejected_reports());
  reg.counter("rep.forged_vantage").set(misbehavior_.forged_vantage_reports());
  Samples scores;
  std::uint64_t discouraged = 0, banned = 0;
  for (PlayerId p = 0; p < trace_->n_players; ++p) {
    scores.add(misbehavior_.score(p));
    switch (misbehavior_.standing(p)) {
      case reputation::Standing::kDiscouraged: ++discouraged; break;
      case reputation::Standing::kBanned: ++banned; break;
      case reputation::Standing::kGood: break;
    }
  }
  reg.gauge("rep.discouraged_players").set(static_cast<double>(discouraged));
  reg.gauge("rep.banned_players").set(static_cast<double>(banned));
  if (scores.count()) {
    const auto q = scores.quantiles({0.99, 1.0});
    reg.gauge("rep.score_mean").set(scores.mean());
    reg.gauge("rep.score_p99").set(q[0]);
    reg.gauge("rep.score_max").set(q[1]);
  }
}

Samples WatchmenSession::merged_update_ages() const {
  const util::MutexLock lock(frame_mu_);  // peers quiescent at frame boundary
  Samples all;
  for (const auto& peer : peers_) {
    if (!peer) continue;
    for (double v : peer->metrics().update_age_frames.values()) all.add(v);
  }
  return all;
}

}  // namespace watchmen::core
