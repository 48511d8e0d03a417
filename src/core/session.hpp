#pragma once
// WatchmenSession: replays a recorded game trace through the full protocol
// stack — N peers over the simulated network — mirroring the paper's replay
// methodology (§VII): every node knows from the shared trace which message
// should have arrived at which frame, which is how update age (Fig. 7) and
// verification effectiveness (Fig. 6) are measured.
//
// Thread-safety (checked by clang -Wthread-safety, DESIGN.md §5g):
// frame_mu_ guards the session's control state (connected_, next_frame_)
// and is held for the body of each frame, so cross-thread observers —
// obs::Registry::snapshot_json pulling collect_metrics, a monitor calling
// connected()/current_frame() — interleave only at frame boundaries, when
// peers and the network are quiescent. Lock order: frame_mu_ before the
// registry's and network's internal mutexes, never the reverse (the
// registry runs collectors with its own lock released, which is what makes
// the frame_mu_ -> registry.mu_ edge acyclic).

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "util/thread_annotations.hpp"

#include "core/peer.hpp"
#include "crypto/keys.hpp"
#include "game/trace.hpp"
#include "interest/visibility_cache.hpp"
#include "net/transport.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "reputation/misbehavior_engine.hpp"
#include "util/thread_pool.hpp"
#include "verify/detector.hpp"

namespace watchmen::core {

enum class NetProfile {
  kLan,       ///< sub-millisecond LAN
  kKing,      ///< King dataset stand-in, mean one-way 62 ms (§VII)
  kPeerwise,  ///< PeerWise dataset stand-in, mean one-way 68 ms (§VII)
  kFixed,     ///< constant latency (tests)
};

struct SessionOptions {
  WatchmenConfig watchmen;
  /// Act on the misbehavior engine's standing (typed penalties scored once
  /// per proxy round; reputation/misbehavior_engine.hpp): discouraged and
  /// banned players lose proxy-pool and emergency-failover eligibility at
  /// round boundaries, in every peer's own pool view (the pool floor,
  /// core/authority.hpp, may hold an exclusion until the pool grows).
  /// Scoring itself is always on — it only *observes* the detector stream.
  /// Off by default because enforcement changes protocol behaviour (the
  /// schedules), which would break bit-identical replay of recordings made
  /// without it.
  bool misbehavior_enforcement = false;
  std::uint64_t seed = 42;
  NetProfile net = NetProfile::kKing;
  double fixed_latency_ms = 25.0;
  double loss_rate = 0.01;  ///< paper simulates 1 % loss
  /// Proxy-pool weight overrides applied before the session starts (§VI
  /// "Upload capacity & Fairness": weak nodes get weight 0, powerful nodes
  /// can serve more). They shape the initial schedule every peer copies at
  /// construction; there is no shared live schedule to change later.
  std::vector<std::pair<PlayerId, double>> pool_weights;
  /// Per-node upload caps in bits/s (0 = unconstrained), applied to the
  /// simulated network before the session starts.
  std::vector<std::pair<PlayerId, double>> upload_bps;
  /// Worker threads for the per-player interest-set computation (the frame
  /// budget's hot phase): 0 = one per hardware thread, 1 = sequential.
  /// Results are bit-identical for every value (compute_sets_into is a pure
  /// function of the frame inputs and each player writes only its own slot;
  /// tests/determinism_test.cpp compares pool sizes 1, 2 and 8).
  std::size_t compute_threads = 0;
  /// Scripted network faults (chaos harness; see net/fault.hpp). Loss /
  /// partition / spike windows are applied to the network; crash events
  /// are applied by the session (disconnect at `at`, reconnect + pool
  /// re-entry at `rejoin`); every fault window is registered with the
  /// detector so reports from degraded periods are discounted.
  net::FaultPlan faults;
  /// Optional observability sinks (borrowed; must outlive the session).
  /// The registry gets a pull-model collector mirroring net / peer /
  /// detector counters at snapshot time (deregistered in the session
  /// destructor); the tracer receives frame-phase spans and verification
  /// instants. Null pointers compile the hooks down to cheap branches.
  obs::Registry* registry = nullptr;
  obs::Tracer* tracer = nullptr;
  /// Overrides transport construction entirely; receives the player count.
  /// The multi-process harness (tools/wmproc) injects a make_transport UDP
  /// backend over pre-bound inherited sockets here. Unset, the backend comes
  /// from the WATCHMEN_TRANSPORT environment selector (sim when absent),
  /// which is how the unchanged chaos suite re-runs over real UDP sockets
  /// (ctest chaos_test_udp).
  std::function<std::unique_ptr<net::Transport>(std::size_t)> transport_factory;
  /// Players simulated by THIS process; empty means all of them. Non-local
  /// players get no peer object — their traffic originates in sibling
  /// processes that share the socket/port table.
  std::vector<PlayerId> local_players;
  /// First frame this session simulates. A re-forked wmproc child rejoining
  /// mid-trace starts here; its local peers run crash recovery
  /// (WatchmenPeer::rejoin) before the first frame.
  Frame start_frame = 0;
};

class WatchmenSession {
 public:
  /// `misbehaviors` maps cheating players to their behaviour; everyone else
  /// is honest. Pointers must outlive the session.
  WatchmenSession(const game::GameTrace& trace, const game::GameMap& map,
                  SessionOptions opts,
                  std::unordered_map<PlayerId, Misbehavior*> misbehaviors = {});
  ~WatchmenSession();

  /// Runs frames [next, next+n) of the trace; call repeatedly or use run().
  void run_frames(std::size_t n) EXCLUDES(frame_mu_);

  /// Runs the whole remaining trace.
  void run() EXCLUDES(frame_mu_);

  /// Disconnects a player (churn, §VI): it stops producing and receiving
  /// from the next frame on. Peers detect the silence, its proxy announces
  /// the departure, and everyone removes it from the proxy pool.
  void disconnect(PlayerId p) EXCLUDES(frame_mu_);

  /// Reconnects a crashed player at the current frame: its handler is
  /// reattached, the peer runs crash recovery (WatchmenPeer::rejoin — pool
  /// re-entry through the churn-agreement round), and the silence-driven
  /// escape/rate evidence the crash accumulated is absolved (churn, not
  /// cheating).
  void reconnect(PlayerId p) EXCLUDES(frame_mu_);

  bool connected(PlayerId p) const EXCLUDES(frame_mu_) {
    const util::MutexLock lock(frame_mu_);
    return connected_.at(p);
  }

  Frame current_frame() const EXCLUDES(frame_mu_) {
    const util::MutexLock lock(frame_mu_);
    return next_frame_;
  }
  std::size_t num_players() const { return trace_->n_players; }

  const WatchmenPeer& peer(PlayerId p) const { return *peers_.at(p); }
  WatchmenPeer& peer(PlayerId p) { return *peers_.at(p); }
  /// True when p is simulated by this process (always, single-process).
  bool is_local(PlayerId p) const { return peers_.at(p) != nullptr; }
  const net::Transport& network() const { return *net_; }
  net::Transport& network() { return *net_; }
  const verify::Detector& detector() const { return detector_; }
  const reputation::MisbehaviorEngine& misbehavior() const {
    return misbehavior_;
  }
  reputation::MisbehaviorEngine& misbehavior() { return misbehavior_; }
  const crypto::KeyRegistry& keys() const { return keys_; }

  /// Update-age samples pooled across all honest receivers (Fig. 7 input).
  /// Takes frame_mu_ so the peers it reads are frame-boundary quiescent.
  Samples merged_update_ages() const EXCLUDES(frame_mu_);

 private:
  /// Mirrors subsystem counters (net, peers, detector) into the registry;
  /// runs at snapshot time as a pull-model collector. Takes frame_mu_, so a
  /// snapshot from another thread waits for the frame in flight to finish.
  void collect_metrics(obs::Registry& reg) const EXCLUDES(frame_mu_);

  /// Disconnect/reconnect cores, callable from inside the frame loop (which
  /// already holds frame_mu_ when applying scripted crash events) — the
  /// public wrappers just take the lock. REQUIRES makes an unlocked call a
  /// compile error and a re-locking call a caught self-deadlock.
  void disconnect_locked(PlayerId p) REQUIRES(frame_mu_);
  void reconnect_locked(PlayerId p) REQUIRES(frame_mu_);

  /// Round-boundary standing enforcement: every local peer drops each
  /// discouraged or banned player from its own pool (sticky, idempotent).
  /// A peer whose pool is at the floor refuses, and is asked again at the
  /// next boundary. Runs before the round's begin_frame so all peers adopt
  /// consistent weights.
  void apply_standing_enforcement() REQUIRES(frame_mu_);

  const game::GameTrace* trace_;
  const game::GameMap* map_;
  SessionOptions opts_;
  crypto::KeyRegistry keys_;
  std::unique_ptr<net::Transport> net_;
  verify::Detector detector_;
  reputation::MisbehaviorEngine misbehavior_;
  game::TraceReplayer replayer_;
  std::vector<std::unique_ptr<WatchmenPeer>> peers_;
  std::vector<interest::PlayerSets> prev_sets_;   ///< for IS hysteresis
  std::vector<interest::PlayerSets> frame_sets_;  ///< this frame's output
  interest::VisibilityCache vis_cache_;  ///< frame-scoped pair LoS cache
  interest::EyeTable eye_table_;         ///< per-frame shared eye positions
  util::ThreadPool pool_;
  mutable util::Mutex frame_mu_;
  std::vector<bool> connected_ GUARDED_BY(frame_mu_);
  Frame next_frame_ GUARDED_BY(frame_mu_) = 0;
  /// Collector registered with opts_.registry (deregistered on destruction
  /// — the registry may outlive this session). -1 when no registry is set.
  std::int64_t collector_id_ = -1;
};

}  // namespace watchmen::core
