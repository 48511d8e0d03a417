#pragma once
// PeerLink: the role-agnostic control plane under one peer's proxy and
// witness duties. It owns everything between "a role wants this wire to
// reach node x" and the transport:
//  * sealing: the peer's sequence numbers and per-type send counts;
//  * per-link batching: wires queued per destination and coalesced into
//    one kBatch datagram per flush;
//  * liveness: when each player was last heard.
// Under the hardened profile (WatchmenConfig::hardened) it also owns
//  * reliable control: control-class wires (is_control_type) ack-tracked
//    and retransmitted with jittered exponential backoff, acks sent back
//    hop by hop; with the profile off a handoff instead goes out twice;
//  * the heartbeat watchdog that grades the proxy relationships from their
//    silence, and the emergency failover test built on it.
// The switch is read here and, once, where the peer picks its tolerances;
// nowhere else in src/ (wmlint link-switch).
//
// Thread-safety: confined to its peer's thread, like the peer itself.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/messages.hpp"
#include "net/transport.hpp"
#include "util/rng.hpp"

namespace watchmen::core {

struct WatchmenConfig;
struct PeerMetrics;

/// Deterministic retransmit jitter, added to every reliable retransmit's
/// exponential backoff (plain backoff re-aligns every peer's retries after a
/// partition heals into one storm): a pure hash of (origin, seq, attempt)
/// mapped into [0, backoff/2]. Same trace + seed -> same retry schedule
/// (replay-stable); different origins -> de-correlated retry instants, so a
/// partition heal does not release every peer's backlog on the same frame.
inline Frame retransmit_jitter(PlayerId origin, std::uint32_t seq,
                               std::uint32_t attempt, Frame backoff) {
  if (backoff <= 1) return 0;
  const std::uint64_t h =
      mix64((static_cast<std::uint64_t>(origin) << 40) ^
            (static_cast<std::uint64_t>(seq) << 8) ^ attempt);
  return static_cast<Frame>(h % static_cast<std::uint64_t>(backoff / 2 + 1));
}

/// Liveness grade the watchdog assigns a peer relationship.
enum class PeerLiveness : std::uint8_t { kAlive = 0, kSuspect = 1, kDead = 2 };

class PeerLink {
 public:
  using Wire = std::shared_ptr<const std::vector<std::uint8_t>>;

  /// `metrics` is the owning peer's; the link counts its sends, flushes,
  /// acks, retransmits and watchdog transitions there.
  PeerLink(PlayerId id, std::size_t n_players, const WatchmenConfig& cfg,
           net::Transport& net, const crypto::KeyRegistry& keys,
           PeerMetrics& metrics);
  PeerLink(const PeerLink&) = delete;
  PeerLink& operator=(const PeerLink&) = delete;

  /// The frame the link stamps retransmit deadlines and judges silence in.
  void begin_frame(Frame f) { frame_ = f; }
  /// Heartbeats and re-grades `proxy` (this peer's proxy) and `proxied`
  /// (the players it proxies, sorted), then retransmits what is due.
  void run_timers(Frame f, PlayerId proxy, std::span<const PlayerId> proxied);
  /// Crash recovery: drops queued batches, tracked wires and watchdog
  /// grades; the link resumes at frame f.
  void reset(Frame f);

  // --- sending ------------------------------------------------------------
  /// Seals header+body as this peer with the next sequence number.
  std::vector<std::uint8_t> seal(MsgType type, PlayerId subject, Frame frame,
                                 std::span<const std::uint8_t> body);
  /// Queues a wire this peer sends in its own right.
  void send(PlayerId to, Wire wire);
  void send(PlayerId to, std::vector<std::uint8_t> wire) {
    send(to, std::make_shared<const std::vector<std::uint8_t>>(std::move(wire)));
  }
  /// Queues a wire relayed on another origin's behalf.
  void forward(PlayerId to, Wire wire);
  /// Sends a control-class wire whose header is `h`: counted as sent when
  /// this peer is its origin, as forwarded otherwise. Hardened, it is
  /// ack-tracked under `h` (a loopback send is never acked, so never
  /// tracked); otherwise a handoff is sent a second time, bare, so the copy
  /// does not share the original's datagram and its loss.
  void send_control(PlayerId to, const Wire& wire, const MsgHeader& h);
  /// send_control for the wire this link sealed last.
  void send_control(PlayerId to, const Wire& wire) {
    send_control(to, wire, last_sealed_);
  }
  /// Sends the queued batches: bare when a destination holds one wire, one
  /// kBatch container otherwise. Called at the end of every event slice, so
  /// a batch leaves at the instant its messages were produced.
  void flush();

  // --- receiving ----------------------------------------------------------
  /// Acks a control-class message back to its immediate sender.
  void maybe_ack(const net::Envelope& env, const MsgHeader& h);
  /// Consumes an ack whose header is `h`: clears the tracked control wire
  /// it names.
  void on_ack(const net::Envelope& env, const MsgHeader& h, const AckBody& a);
  /// Records liveness evidence: p was heard from at frame f.
  void heard(PlayerId p, Frame f) {
    last_heard_[p] = std::max(last_heard_[p], f);
  }
  /// Last frame anything was heard from p (-1: never).
  Frame last_heard(PlayerId p) const { return last_heard_[p]; }

  // --- liveness -----------------------------------------------------------
  /// Watchdog grade for p (kAlive when the profile is off).
  PeerLiveness liveness_of(PlayerId p) const {
    return static_cast<PeerLiveness>(
        watchdog_state_.empty() ? 0 : watchdog_state_.at(p));
  }
  /// True when emergency failover is on (the hardened profile).
  bool failover_on() const { return hardened_; }
  /// True when failover is on and `px` has been silent past the watchdog's
  /// Suspect grade (protocol::kWatchdogSuspectFrames).
  bool proxy_silent(PlayerId px) const;

 private:
  /// Frames since anything was heard from p (from frame f's viewpoint).
  Frame silence_of(PlayerId p, Frame f) const {
    return f - std::max<Frame>(last_heard_[p], 0);
  }
  void run_watchdog(Frame f, PlayerId proxy, std::span<const PlayerId> proxied);
  /// Frames until retransmit number `attempt` + 1 of the wire headed `h`:
  /// the backoff, doubling per attempt, plus that attempt's jitter.
  static Frame retry_delay(const MsgHeader& h, std::uint32_t attempt);
  void flush_retransmits(Frame f);
  /// Single egress point: queues the wire in its destination's batch.
  void enqueue(PlayerId to, Wire wire);

  /// Wires queued for one destination, in first-touch order.
  struct BatchSlot {
    PlayerId to = kInvalidPlayer;
    std::vector<Wire> wires;
  };
  void flush_slot(BatchSlot& slot);

  /// A control wire in flight, awaiting its ack.
  struct PendingReliable {
    PlayerId to = kInvalidPlayer;
    MsgHeader acked;  ///< origin, seq and type the receiver's ack echoes
    Wire wire;
    Frame next_retry = 0;
    std::uint32_t attempt = 0;  ///< retransmits so far
  };

  PlayerId id_;
  std::size_t n_;
  bool hardened_;
  net::Transport* net_;
  const crypto::KeyRegistry* keys_;
  PeerMetrics* metrics_;

  Frame frame_ = 0;
  std::uint32_t seq_ = 0;
  MsgHeader last_sealed_;
  std::vector<BatchSlot> batch_buf_;
  std::vector<PendingReliable> pending_;
  std::vector<Frame> last_heard_;
  /// Watchdog grades per player (PeerLiveness values); sized on the first
  /// watchdog run, so the paper profile stays allocation-free.
  std::vector<std::uint8_t> watchdog_state_;
};

}  // namespace watchmen::core
