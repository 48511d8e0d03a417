#pragma once
// WatchmenPeer: one player's complete protocol engine (paper §III-§V).
//
// Each peer simultaneously plays two roles:
//  * as a *player*, it publishes its own state through its current proxy,
//    subscribes (through the proxy chain) to the players it needs, and
//    verifies what it receives about others (witness checks);
//  * as a *proxy*, it polices the players assigned to it — verifying rates,
//    positions, guidance, kill claims and subscription justifications — and
//    forwards their (origin-signed) updates to the right subscribers at the
//    right resolution.
// Both roles send and receive through the peer's PeerLink
// (core/peer_link.hpp), which owns sealing, batching, reliable control and
// liveness.
//
// The session object drives all peers frame by frame:
//   begin_frame() -> produce() -> [network delivery -> on_message()] -> end_frame()
//
// Thread-safety: a peer is confined to the session's frame thread — every
// entry point above is called under WatchmenSession's frame_mu_ (directly
// or via SimNetwork handlers invoked from run_until on the same thread),
// so the hot-path state below carries no locks by design. The annotation
// pass (DESIGN.md §5g) makes that confinement checkable one level up: the
// session can only reach a peer from inside its guarded frame body. The
// parallel interest phase never touches peers; it writes per-player
// interest::PlayerSets slots owned by the session.

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/authority.hpp"
#include "core/handoff.hpp"
#include "core/messages.hpp"
#include "core/misbehavior.hpp"
#include "core/peer_link.hpp"
#include "core/protocol_params.hpp"
#include "core/proxy_schedule.hpp"
#include "crypto/keys.hpp"
#include "game/events.hpp"
#include "game/map.hpp"
#include "interest/sets.hpp"
#include "interest/subscription.hpp"
#include "net/transport.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "verify/checks.hpp"
#include "verify/report.hpp"

namespace watchmen::core {

/// Waypoints per guidance message (one per guidance period ahead).
inline constexpr std::size_t kGuidanceWaypoints = 2;
/// Players re-send live subscriptions this often so retention never lapses.
inline constexpr Frame kSubscriptionRefreshFrames = 20;
/// Frames of lateness a proxy tolerates before flagging a time cheat
/// (covers network jitter; ~3 frames = 150 ms, the playability bound).
inline constexpr Frame kMaxUpdateLateness = 6;
/// Honest tolerance for the statistical aim check (Table I "aimbots"):
/// mean/stddev of honest players' per-round median angular error towards
/// the best-aligned nearby enemy. Generous on purpose.
inline constexpr verify::Tolerance kAimTolerance{0.30, 0.25};

/// How much loss the stream checks forgive before suspicion: the proxy's
/// dissemination-rate check forgives `rate` of the expected updates; a
/// witness's starvation check forgives `starve` of the expected forwarded
/// stream, and counts it as starved only under `starved_below` of expected.
struct LossTolerance {
  double rate;
  double starve;
  double starved_below;
};
/// The paper protocol's tolerances (WatchmenConfig::hardened off).
inline constexpr LossTolerance kPaperTolerance{0.10, 0.5, 1.0 / 3.0};
/// The hardened profile's, opened up for sustained loss.
inline constexpr LossTolerance kHardenedTolerance{0.30, 0.8, 0.15};

/// Protocol knobs. The wire encoding is not among them: every peer batches
/// per link, seals varint headers, quantizes guidance, diffs subscriber
/// lists and sends every state update as a full state (DESIGN.md §5f).
struct WatchmenConfig {
  // wmlint: allow(config-knob) the interest benches sweep InterestConfig
  interest::InterestConfig interest;
  Frame renewal_frames = ProxySchedule::kDefaultRenewalFrames;
  /// Honest-behaviour tolerance for the guidance deviation-area check;
  /// calibrated by the harness (ā + σ_a rule). The default covers a full
  /// direction reversal against a linear predictor over one guidance period.
  verify::Tolerance guidance_tolerance{160.0, 160.0};
  /// Dead-reckoning predictor damping (1/s); 0 = pure linear. See
  /// interest::make_guidance and bench/ablation_dead_reckoning.
  double dr_damping = 0.0;
  /// §VI optimization 3: relax the first hop — players push frequent state
  /// updates *directly* to their IS subscribers (1 hop instead of 2), with
  /// a concurrent copy to their proxy for verification. Lower security:
  /// players learn who subscribed to them (rate-analysis exposure returns),
  /// and direct sends can no longer be treated as protocol violations.
  bool direct_updates = false;

  /// The hardened profile, for real networks (DESIGN.md §5, "Hardened
  /// profile"); off runs the paper's fire-and-forget protocol exactly.
  /// On, PeerLink acks and retransmits control traffic (handoff, subscribe,
  /// churn and rejoin notices) with jittered exponential backoff, heartbeats
  /// this peer's proxy and proxied players, grades their silence
  /// Alive -> Suspect -> Dead, and duplicates proxy-bound traffic to the
  /// successor-of-round once the proxy has been silent past Suspect
  /// (protocol::kWatchdogSuspectFrames); the rate and starvation checks
  /// use kHardenedTolerance instead of kPaperTolerance. State updates stay
  /// fire-and-forget under both: freshness beats completeness (§II-A).
  bool hardened = false;

  /// Caps how many Other-set receivers a proxy forwards each infrequent
  /// position beacon to, rotating round-robin across the set so every
  /// receiver still refreshes eventually. The unbudgeted fan-out is the one
  /// O(n) term in per-player upload (every beacon reaches every player
  /// without a richer subscription); Donnybrook-style budgeting is what
  /// keeps upload flat at 512-1024 players. Others' dead-reckoning slack
  /// already tolerates the longer refresh interval. 0 = unlimited (seed
  /// behaviour).
  std::uint32_t other_update_budget = 0;

  bool operator==(const WatchmenConfig&) const = default;
};

struct PeerMetrics {
  Samples update_age_frames;  ///< delivery age of received updates (Fig. 7)
  /// Per-frame age of the state held about each IS target. Grows under
  /// loss / dead proxies (update_age_frames only sees arrivals), so the
  /// chaos suite uses it as its freshness-recovery signal.
  Samples staleness_frames;
  std::uint64_t updates_received = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t sig_rejects = 0;
  std::uint64_t dropped_replays = 0;
  /// Messages this peer originated, by MsgType (indexed by the enum value).
  std::array<std::uint64_t, kNumMsgTypes> sent_by_type{};
  /// Reliable-control retransmissions, by MsgType.
  std::array<std::uint64_t, kNumMsgTypes> retransmits_by_type{};
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t reliable_expired = 0;    ///< retry budget exhausted
  std::uint64_t failover_adoptions = 0;  ///< emergency proxy takeovers
  /// Liveness watchdog transitions observed (Alive->Suspect, ->Dead).
  std::uint64_t watchdog_suspects = 0;
  std::uint64_t watchdog_deaths = 0;
  /// Control-plane latency in ms, measured receive-side as the gap between
  /// a message's stamped frame and the local clock when it decodes — the
  /// per-class latency-SLO inputs (ROADMAP "Latency SLOs in CI"). Includes
  /// retransmit delay, and works identically on both transport backends.
  Samples handoff_latency_ms;
  Samples subscribe_latency_ms;

  // Per-link batching and subscriber diffs.
  std::uint64_t batches_sent = 0;     ///< kBatch datagrams emitted (size >= 2)
  std::uint64_t batched_messages = 0; ///< logical messages that rode a batch
  std::uint64_t batch_rejects = 0;    ///< malformed batch containers dropped
  std::uint64_t flushes = 0;          ///< per-link flushes (bare or container)
  std::uint64_t flushed_messages = 0; ///< logical messages across all flushes
  std::uint64_t sub_diff_misses = 0;  ///< subscriber diff hash mismatches
};

/// One verifier's track of one subject's stream (paper §V): proxies and
/// witnesses run the same sanity checks on a player's updates, only from
/// different vantages. ProxiedState holds the proxy's track of a player it
/// serves, RemoteKnowledge a witness's track of anyone it hears about.
struct SubjectTrack {
  game::AvatarState state;  ///< last verified state
  Frame state_frame = -1;
  bool has_state = false;
  /// The open dead-reckoning window: the newest guidance, and the
  /// (frame, position) samples observed since; the guidance check consumes
  /// them when the window closes.
  interest::Guidance guidance;
  bool has_guidance = false;
  std::vector<std::pair<Frame, Vec3>> path_samples;
  Frame last_kill_claim = -1000;  ///< previous kill claim (refire check)
  int kill_claims_same_frame = 0; ///< splash multi-kills share a frame

  /// Refire bookkeeping for a kill claim stamped `frame`: the frames since
  /// the previous distinct shot. One trigger pull can kill several players
  /// at once (rocket splash, shotgun spread), so same-frame claims read as
  /// a long gap up to a splash-plausible count, and as an instant refire
  /// beyond it.
  Frame note_kill_claim(Frame frame) {
    Frame gap = 0;
    if (frame == last_kill_claim) {
      ++kill_claims_same_frame;
      gap = kill_claims_same_frame <= 5 ? 1000 : 0;
    } else {
      gap = frame - last_kill_claim;
      kill_claims_same_frame = 1;
    }
    last_kill_claim = frame;
    return gap;
  }
};

/// What a peer currently knows about another player.
struct RemoteKnowledge {
  Vec3 pos;
  Frame pos_frame = -1;
  SubjectTrack track;
  /// Pre-teleport position sample, pinned whenever an incoming update
  /// jumps farther than physics allows (death + respawn). Used by the
  /// subscription checks to tell "aimed at where the target recently was"
  /// (a stale-but-honest view, e.g. a respawn whose obituary we missed)
  /// from "aimed at a position no legitimate knowledge ever covered"
  /// (the maphack harvest).
  Vec3 old_pos;
  Frame old_pos_frame = -1;
  Frame newest_frame = -1;   ///< replay window tracking
  std::uint32_t newest_seq = 0;
  /// Frame of the last known death of this player (from the obituary
  /// broadcast / alive-flag transitions). Physics and guidance checks are
  /// suppressed across the death-to-respawn window — the respawn teleport
  /// is the one legal discontinuity.
  Frame last_death = -1000;
};

class WatchmenPeer {
 public:
  using ReportFn = std::function<void(const verify::CheatReport&)>;

  WatchmenPeer(PlayerId id, WatchmenConfig cfg, net::Transport& net,
               const crypto::KeyRegistry& keys, const ProxySchedule& schedule,
               const game::GameMap& map, ReportFn report,
               Misbehavior* misbehavior = nullptr);

  PlayerId id() const { return id_; }
  const PeerMetrics& metrics() const { return metrics_; }
  /// This peer's own view of the proxy schedule: the session's initial
  /// schedule plus the churn, rejoin and standing changes this peer has
  /// applied. It is the only view there is; the session's vantage check
  /// asks the reporter's.
  const ProxySchedule& schedule() const { return schedule_; }

  /// Network delivery callback; wire with net.set_handler(id, ...).
  void on_message(const net::Envelope& env);

  /// Round bookkeeping: on round boundaries, sends handoffs for players this
  /// peer stops proxying and adopts the new assignment.
  void begin_frame(Frame f);

  /// Publishes this frame's messages: the (possibly cheat-mutated) state
  /// update each frame, guidance + position updates every guidance period,
  /// kill claims for this player's kills, and subscription changes derived
  /// from `sets`. `truth` is the ground-truth avatar snapshot — the peer
  /// only publishes its own entry (`truth[id()]`) plus interaction claims it
  /// computed locally, mirroring a real client's exact self-knowledge.
  void produce(std::span<const game::AvatarState> truth,
               const interest::PlayerSets& sets,
               std::span<const game::KillEvent> kills);

  /// End-of-frame duties: flush the delayed outbox, run per-round rate
  /// checks at round ends.
  void end_frame(Frame f);

  /// Crash recovery: called by the session when this peer reconnects at
  /// frame f after a silent crash. Sheds lapsed proxy duties, mirrors the
  /// churn removal the others applied while we were down, and broadcasts a
  /// kRejoinNotice scheduling pool re-entry at an agreed round.
  void rejoin(Frame f);

  /// Reputation enforcement (misbehavior engine): an ineligible player is
  /// dropped from this peer's proxy pool and stays out — churn restores no
  /// longer re-admit it, so a discouraged player cannot rejoin its way back
  /// into proxy or failover duty. Applied by the session at round
  /// boundaries, on every peer. The pool floor refuses a removal that would
  /// leave this peer's pool under protocol::kMinPoolMembers; the session
  /// asks again at the next boundary. Idempotent; true when the standing
  /// changed.
  bool set_pool_standing(PlayerId p, bool eligible);

  const RemoteKnowledge& knowledge_of(PlayerId p) const { return know_.at(p); }
  /// The control plane beneath the roles: liveness grades, last-heard
  /// frames.
  const PeerLink& link() const { return link_; }

  /// Players this peer is currently proxying.
  std::vector<PlayerId> proxied_players() const;

  /// Subscription level the proxy-side table holds for (subject, subscriber).
  interest::SetKind proxy_table_level(PlayerId subject, PlayerId subscriber) const;

 private:
  struct ProxiedState {
    interest::SubscriptionTable subs;
    SubjectTrack track;
    std::vector<PlayerId> sent_subs;  ///< subscriber-diff baseline (sorted)
    std::uint32_t sub_sends = 0;      ///< list sends; every 4th is a full refresh
    std::uint32_t updates_in_round = 0;
    std::uint32_t suspicious_in_round = 0;
    /// Angular-error samples for the statistical aimbot check (§Table I).
    std::vector<double> aim_samples;
    std::size_t other_cursor = 0;   ///< round-robin start for budgeted fan-out
    Frame adopted_at = -1;  ///< frame this peer became the proxy
    std::optional<PlayerSummary> predecessor_summary;
    ProxiedState(std::size_t n_players, Frame retention, Frame adopted)
        : subs(n_players, retention), adopted_at(adopted) {}
    /// Seeds a tenure from the summary a previous proxy handed over:
    /// subscriptions, the last verified state (unless we already hold one)
    /// and the two-round follow-up chain.
    void seed(const PlayerSummary& s);
  };

  // --- send helpers -------------------------------------------------------
  /// Seals and sends to this peer's proxy (after `delay`, the look-ahead
  /// cheat); while that proxy is silent, a copy goes to the successor.
  void send_to_proxy(MsgType type, PlayerId subject, Frame frame,
                     std::span<const std::uint8_t> body, Frame delay);
  // --- receive paths ------------------------------------------------------
  /// One sealed envelope's worth of processing. `wire` is the envelope's
  /// own bytes — either the whole datagram or one sub-wire of a kBatch
  /// container (env then carries the batch; from/timing fields still apply).
  void handle_wire(const net::Envelope& env, std::span<const std::uint8_t> wire);
  /// A message's typed body, decoded once on receipt, before any state
  /// changes. State updates decode later, in the role that uses them; a
  /// subscriber-list diff decodes against the receiver's current list.
  struct TypedBody {
    interest::Guidance guidance;                         ///< kGuidance
    Vec3 pos;                                            ///< kPositionUpdate
    KillClaim kill;                                      ///< kKillClaim
    interest::SetKind kind = interest::SetKind::kOther;  ///< kSubscribe
    AckBody ack;                                         ///< kAck
    /// kChurnNotice: removal round; kRejoinNotice: restore round.
    std::int64_t round = 0;
    std::optional<HandoffPayload> handoff;               ///< kHandoff
  };
  /// False when a signed message's body is malformed: it is dropped whole.
  static bool decode_typed_body(const ParsedMessage& msg, TypedBody& out);
  void handle_as_proxy(const net::Envelope& env,
                       std::span<const std::uint8_t> wire,
                       const ParsedMessage& msg, const TypedBody& typed);
  /// `direct_path` marks a 1-hop update received straight from its origin
  /// under direct-update mode (skips the sender-is-the-proxy validation).
  void handle_as_player(const net::Envelope& env, const ParsedMessage& msg,
                        const TypedBody& typed, bool direct_path = false);
  void proxy_handle_update(std::span<const std::uint8_t> wire,
                           const ParsedMessage& msg, const TypedBody& typed,
                           ProxiedState& ps);
  void proxy_handle_subscribe_first_hop(std::span<const std::uint8_t> wire,
                                        const MsgHeader& h,
                                        interest::SetKind kind);
  void proxy_handle_kill_claim(std::span<const std::uint8_t> wire,
                               const MsgHeader& h, const KillClaim& claim,
                               ProxiedState& ps);
  /// Starts this peer's proxy tenure over p at frame `at`, unseeded.
  ProxiedState& adopt(PlayerId p, Frame at);
  /// Forwards a subject's frequent stream to its IS subscribers and its
  /// guidance to its VS subscribers; other types are not streamed.
  void forward_stream(const ProxiedState& ps, const MsgHeader& h,
                      std::span<const std::uint8_t> wire);
  /// Records an observed position of q, stamped `frame` and heard `now`.
  void observe_pos(PlayerId q, const Vec3& pos, Frame frame, Frame now);
  /// Records a verified state of q, stamped `frame` and heard `now`.
  void observe_state(PlayerId q, const game::AvatarState& s, Frame frame,
                     Frame now);
  /// Judges a kill claim by h.origin from `vantage`, given the shooter
  /// evidence the role holds in `ev`; then records the victim's death.
  /// True when the claim looked suspicious.
  bool judge_kill_claim(const MsgHeader& h, const KillClaim& claim,
                        SubjectTrack& shooter, verify::Vantage vantage,
                        verify::KillClaimEvidence ev);
  /// True if a known death of q makes physics discontinuities legal around
  /// updates following `baseline_frame`.
  bool in_death_window(PlayerId q, Frame baseline_frame) const;
  /// Physics check of q's move from `from` (stamped `from_frame`) to `to`,
  /// skipped across a known death-respawn window; true when suspicious.
  bool check_move(PlayerId q, verify::Vantage vantage, const Vec3& from,
                  Frame from_frame, const Vec3& to, Frame frame);
  /// Pins `k.old_pos` to the pre-jump sample when an incoming position
  /// update teleports (death + respawn). Call before `k.pos` is
  /// overwritten with `next_pos` stamped `next_frame`.
  static void checkpoint_pos(RemoteKnowledge& k, const Vec3& next_pos,
                             Frame next_frame);
  /// A high-rated subscription verdict reached from a *stale* sample of the
  /// target. The target may have died and respawned inside the staleness
  /// gap (its obituary lost to the network), which would make the honest
  /// subscriber's cone look wildly wrong. The verdict is parked until a
  /// sample covering the subscription frame arrives, then re-judged against
  /// where the target actually was.
  struct PendingSubCheck {
    PlayerId origin = 0;  ///< the subscriber under suspicion
    PlayerId target = 0;  ///< whom it subscribed to
    verify::CheckType type = verify::CheckType::kSubscriptionIS;
    Frame frame = 0;     ///< subscription frame; reports stay stamped here
    Frame deadline = 0;  ///< emit unconditionally once this frame passes
    verify::CheckResult result;
    game::AvatarState sub_state;    ///< subscriber state the check used
    interest::VisionConfig vision;  ///< widened cone the check used
    double slack = 0.0;             ///< drift slack the check used
  };
  void flush_pending_subs(Frame f);
  /// Line-of-sight with geometric slack: the verifier's position knowledge
  /// is a few units stale, and rays grazing occluder edges flip easily, so
  /// "no line of sight" is only asserted when jittered probes all fail.
  bool los_with_slack(const Vec3& from_eye, const Vec3& to_eye) const;
  static constexpr Frame kDeathWindowFrames = 50;  ///< respawn delay + slack
  void handle_handoff(const MsgHeader& h, const HandoffPayload& payload);
  void forward_to(const std::vector<PlayerId>& recipients,
                  std::span<const std::uint8_t> wire, PlayerId subject);
  /// Obituary broadcast: forwards to every player but this peer and the
  /// subject.
  void forward_to_all(std::span<const std::uint8_t> wire, PlayerId subject);

  // --- verification helpers -----------------------------------------------
  void emit(PlayerId suspect, verify::CheckType type, verify::Vantage vantage,
            Frame frame, const verify::CheckResult& res);
  /// A verdict that is certain, not a sanity-check deviation: a failed
  /// signature or a send the verifiable schedule rules out.
  void emit_certain(PlayerId suspect, verify::CheckType type, Frame frame,
                    double rating);
  verify::Vantage vantage_towards(PlayerId suspect) const;
  /// Best-effort avatar snapshot of all players from this peer's knowledge.
  std::vector<game::AvatarState> knowledge_snapshot() const;
  void verify_guidance_window(PlayerId suspect, verify::Vantage vantage,
                              const SubjectTrack& t);
  /// Checks the path sampled in the open dead-reckoning window against its
  /// guidance, then drops the samples.
  void close_guidance_window(PlayerId suspect, verify::Vantage vantage,
                             SubjectTrack& t);
  /// Closes the open window and opens one on newly received guidance `g`.
  void roll_guidance(PlayerId suspect, verify::Vantage vantage,
                     SubjectTrack& t, const interest::Guidance& g);
  /// Feeds one observed position to the window: closes it eagerly once
  /// observations pass its horizon, instead of waiting for the next
  /// guidance message (which may be lost, or never come if the sender got
  /// promoted into the IS); otherwise samples the path.
  void maybe_close_guidance(PlayerId suspect, verify::Vantage vantage,
                            SubjectTrack& t, Frame observed_frame,
                            const Vec3& observed_pos);
  bool replay_guard(RemoteKnowledge& k, const MsgHeader& h, PlayerId sender);

  PlayerId id_;
  WatchmenConfig cfg_;
  LossTolerance tol_;  ///< picked by cfg_.hardened
  net::Transport* net_;
  const crypto::KeyRegistry* keys_;
  ProxySchedule schedule_;  ///< own copy: churn removals are applied locally
  const game::GameMap* map_;
  ReportFn report_;
  Misbehavior* misbehavior_;

  Frame frame_ = 0;
  /// Last frame our own state update left; a removal notice for us is
  /// contested only while we publish.
  Frame last_published_ = -1;
  std::int64_t round_ = -1;  ///< -1 so the first begin_frame adopts round 0

  // Player-side state.
  std::vector<RemoteKnowledge> know_;
  // Direct-update mode: the IS subscribers our proxy told us to push to.
  std::vector<PlayerId> direct_targets_;
  /// Last subscription this peer sent about each target, indexed by id:
  /// the level and the frame it went out. kOther means none since the last
  /// reset (produce only ever sends kInterest or kVision).
  struct SentLevel {
    interest::SetKind kind = interest::SetKind::kOther;
    Frame frame = -10000;
  };
  std::vector<SentLevel> sent_level_;
  /// Per-origin state updates received this proxy round; used to verify
  /// that proxies actually forward (paper §V-A "other players verify that
  /// proxies forward them").
  std::vector<std::uint32_t> recv_state_in_round_;
  /// Frames this round during which we held an IS-level subscription to
  /// each target — the expected volume of the forwarded stream.
  std::vector<std::uint32_t> is_held_frames_in_round_;
  /// Deferred starvation suspicion: blame the round's proxy only if the
  /// stream resumes under the next proxy (a dropping proxy); sustained
  /// silence means the player departed (churn), which is not the proxy's
  /// fault.
  struct PendingStarve {
    bool active = false;
    std::int64_t round = 0;
    verify::CheckResult res;
  };
  std::vector<PendingStarve> pending_starve_;
  std::vector<PendingSubCheck> pending_subs_;
  game::AvatarState own_state_;
  bool has_own_state_ = false;

  // Proxy-side state: players this peer currently proxies.
  std::unordered_map<PlayerId, ProxiedState> proxied_;
  // Summaries kept after handing off (become predecessor summaries).
  std::unordered_map<PlayerId, PlayerSummary> my_last_summaries_;

  // Grace window: after handing a player off, the old proxy keeps the
  // proxied state for a few frames and keeps serving messages that were
  // already in flight to it across the round boundary (forwarding updates,
  // verifying + forwarding subscriptions).
  struct GraceEntry {
    Frame expires = 0;
    ProxiedState state;
  };
  std::unordered_map<PlayerId, GraceEntry> grace_;
  // Shared with the wmcheck protocol model (core/protocol_params.hpp): the
  // checker verifies the same timing the implementation runs.
  static constexpr Frame kGraceFrames = protocol::kGraceFrames;

  // Churn (§VI): this peer's churn/rejoin agreement about each player —
  // agreed removal and restore rounds (core/authority.hpp) — and the round
  // of its last pool change (protocol-violation reports are suppressed
  // around pool transitions, when peers' schedules may briefly diverge).
  std::vector<authority::PoolRecord<>> pool_agreement_;
  /// Players reputation-barred from the pool (set_pool_standing): sticky,
  /// vetoes churn restores.
  std::vector<bool> pool_eligible_;
  /// Latest round at which this peer's pool changed — or, after a churn
  /// notice about a pool member, the end of the subject's restore delay;
  /// the transition grace runs from it.
  std::int64_t last_pool_change_round_ = -100;
  void handle_churn_notice(const MsgHeader& h, std::int64_t removal);
  void handle_rejoin_notice(const MsgHeader& h, std::int64_t restore);
  /// Broadcasts a control message to every other player but the subject
  /// (a churn notice goes to its subject too).
  void broadcast_control(MsgType type, PlayerId subject,
                         std::span<const std::uint8_t> body);
  bool pool_transition_grace() const;
  /// From our own removal to its restore (a rejoin, or a contested removal)
  /// we take no proxy authority: no adoption, handoff install or failover.
  bool sitting_out() const;
  /// Extends the pool-transition grace to start no earlier than `round`.
  void note_pool_change(std::int64_t round);

  // Delayed outbox for the look-ahead cheat: (release_frame, wire), bound
  // for the proxy of the release frame.
  struct Delayed {
    Frame release;
    std::vector<std::uint8_t> wire;
  };
  std::deque<Delayed> outbox_;

  PeerMetrics metrics_;
  PeerLink link_;  ///< after cfg_ and metrics_, which it is built from
};

}  // namespace watchmen::core
