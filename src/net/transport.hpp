#pragma once
// net::Transport — the message fabric the protocol stack runs on.
//
// Two production implementations exist behind this interface:
//
//  * SimNetwork (net/network.hpp): the discrete-event simulated network the
//    experiments replay through — pairwise latency models, i.i.d. loss,
//    scripted FaultPlan chaos, per-node upload serialization.
//  * UdpTransport (net/udp_transport.hpp): real nonblocking UDP sockets over
//    127.0.0.1, one per node, usable single-process or across processes
//    (tools/wmproc) via inherited pre-bound sockets.
//
// The UDP backend make_transport builds is a SimNetwork that carries its
// deliveries over a UdpTransport: one event loop renders every loss,
// latency and fault verdict, so the same seed draws identical decisions
// over real datagrams, which is what lets every chaos scenario run
// unchanged on sockets.
//
// The driving contract is shared by all implementations: send() may be
// called from any thread between run_until() calls; run_until() belongs to
// a single driving thread and invokes receive handlers on it, unlocked.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/clock.hpp"
#include "net/fault.hpp"
#include "net/latency.hpp"
#include "util/ids.hpp"
#include "util/stats.hpp"

namespace watchmen::net {

struct Envelope {
  PlayerId from = kInvalidPlayer;
  PlayerId to = kInvalidPlayer;
  TimeMs sent_at = 0;      ///< when the application handed it to the stack
  TimeMs delivered_at = 0; ///< when the receiver's handler runs
  std::size_t wire_bits = 0;
  std::shared_ptr<const std::vector<std::uint8_t>> payload;

  std::span<const std::uint8_t> bytes() const {
    return payload ? std::span<const std::uint8_t>(*payload)
                   : std::span<const std::uint8_t>{};
  }
};

struct NetStats {
  /// Message-class buckets for drop attribution. The network classifies a
  /// datagram by its first payload byte — for sealed Watchmen traffic that
  /// is the MsgType — clamped into the last bucket when out of range, so
  /// net/ stays ignorant of core/'s enum.
  static constexpr std::size_t kClassBuckets = 16;

  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t bits_sent = 0;
  /// Payloads rejected at send because they exceed the configured MTU (see
  /// Transport::set_mtu) — reported, never silently delivered.
  std::uint64_t oversize = 0;
  /// Queued datagrams shed by the bounded send queue under backpressure
  /// (UdpTransport; oldest-unreliable-first, control classes never shed).
  std::uint64_t shed = 0;
  /// Inbound datagrams rejected by the framing decoder (bad magic/version,
  /// truncated header, out-of-range node ids) — real-socket noise immunity.
  std::uint64_t rx_rejects = 0;
  std::array<std::uint64_t, kClassBuckets> dropped_by_class{};
  /// On-the-wire bits by message class (same bucketing as dropped_by_class);
  /// feeds the per-class bandwidth breakdown in the obs registry and wmtop.
  std::array<std::uint64_t, kClassBuckets> bits_sent_by_class{};
  /// One sample per delivery: delivered_at - sent_at in ms (the net.delivery
  /// _age latency-SLO input; exported as summary gauges by the session).
  Samples delivery_age_ms;
};

/// Per-UDP-datagram overhead we model: 28 bytes of IP+UDP headers.
constexpr std::size_t kUdpOverheadBits = 28 * 8;

class Transport {
 public:
  using Handler = std::function<void(const Envelope&)>;
  /// Invoked (on the sending thread, no transport lock held) when a payload
  /// exceeds the configured MTU and is rejected instead of sent.
  using OversizeHandler =
      std::function<void(PlayerId from, PlayerId to, std::size_t bytes)>;

  virtual ~Transport() = default;

  /// The transport's virtual clock — advanced only by run_until on the
  /// driving thread. Real-socket backends keep the same simulated-time
  /// discipline (tools/wmproc paces it against wall time), so protocol code
  /// never reads a wall clock.
  virtual SimClock& clock() = 0;
  const SimClock& clock() const { return const_cast<Transport*>(this)->clock(); }

  virtual std::size_t size() const = 0;

  /// Driving-thread only: swapping a handler while run_until is delivering
  /// to it is a contract violation, not a data race we lock against.
  virtual void set_handler(PlayerId node, Handler handler) = 0;

  /// Per-node upload rate in bits/s; 0 means unconstrained (default).
  /// Real-socket backends without an upload model accept and ignore it.
  virtual void set_upload_bps(PlayerId node, double bps) = 0;

  /// Installs a scripted fault schedule (see net/fault.hpp). Fault
  /// randomness comes from its own Rng substream, so the same plan + seed
  /// reproduces identical NetStats on every backend.
  virtual void set_fault_plan(FaultPlan plan) = 0;
  virtual FaultPlan fault_plan() const = 0;

  /// Queues a message. `payload_bits` defaults to 8*payload.size(); UDP/IP
  /// overhead is added on top. Loss is decided at send (deterministically)
  /// but only takes effect at delivery time — senders cannot observe a
  /// drop, just as over real UDP. `sent_at` < 0 (the default) stamps the
  /// envelope with the transport clock; a SimNetwork relaying a datagram
  /// through its carrier at the due time passes the application's original
  /// send time so Envelope::sent_at stays backend-exact.
  virtual void send(PlayerId from, PlayerId to,
                    std::shared_ptr<const std::vector<std::uint8_t>> payload,
                    std::size_t payload_bits = 0, TimeMs sent_at = -1) = 0;

  void send(PlayerId from, PlayerId to, std::vector<std::uint8_t> payload) {
    send(from, to,
         std::make_shared<const std::vector<std::uint8_t>>(std::move(payload)));
  }

  /// Delivers all messages due up to and including time t, advancing the
  /// clock. Driving-thread only (handlers run on this thread, unlocked).
  virtual void run_until(TimeMs t) = 0;

  /// Point-in-time copy — a consistent snapshot even while other threads
  /// send.
  virtual NetStats stats() const = 0;
  virtual std::uint64_t bits_sent_by(PlayerId node) const = 0;
  /// Resets the per-node bit counters (e.g. at a measurement-window boundary).
  virtual void reset_bit_counters() = 0;

  /// Maximum payload bytes a single send may carry; 0 (default) disables
  /// the check on simulated backends (real sockets always enforce the
  /// 64 KiB datagram ceiling). Oversize payloads are counted in
  /// NetStats::oversize and reported through the oversize handler.
  virtual void set_mtu(std::size_t bytes) = 0;
  virtual void set_oversize_handler(OversizeHandler handler) = 0;
};

enum class TransportKind {
  kSim,          ///< in-process discrete-event SimNetwork
  kUdpLoopback,  ///< SimNetwork verdicts carried over UDP on 127.0.0.1
};

/// Parses a WATCHMEN_TRANSPORT-style selector ("sim" | "udp"); anything
/// else — including null — resolves to the simulated backend.
TransportKind transport_kind_from_string(const char* value);

/// Reads WATCHMEN_TRANSPORT from the environment (the hook that lets the
/// unchanged chaos suite run over real sockets: ctest registers a second
/// chaos target with WATCHMEN_TRANSPORT=udp).
TransportKind transport_kind_from_env();

struct TransportConfig {
  TransportKind kind = TransportKind::kSim;
  std::size_t n_nodes = 0;
  std::unique_ptr<LatencyModel> latency;  ///< required (both backends model it)
  double loss_rate = 0.0;
  std::uint64_t seed = 0;
  /// Lead-class bitmask the UDP send queue must never shed (the reliable
  /// control plane); callers build it from core::MsgType values.
  std::uint32_t control_class_mask = 0;
  /// Base port for UDP node sockets; 0 binds ephemeral ports (parallel-test
  /// safe — the in-process address table is learned via getsockname).
  std::uint16_t udp_port_base = 0;
  /// Multi-process UDP deployment (tools/wmproc): udp_fds[i] >= 0 is this
  /// process's pre-bound socket for local node i (inherited across fork;
  /// the transport takes ownership), -1 a node in a sibling process reached
  /// through udp_ports[i]. Empty binds every node locally. See
  /// UdpTransport::Options::fds/ports.
  std::vector<int> udp_fds;
  std::vector<std::uint16_t> udp_ports;
};

/// The one sanctioned way to build a transport (wmlint's transport-factory
/// check rejects direct SimNetwork construction outside tests and net/).
/// kSim returns a SimNetwork; kUdpLoopback returns a SimNetwork carried
/// over a UdpTransport, so FaultPlans and loss behave identically on both.
std::unique_ptr<Transport> make_transport(TransportConfig cfg);

}  // namespace watchmen::net
