#pragma once
// UdpTransport: net::Transport over real nonblocking UDP sockets.
//
// One socket per node, bound to 127.0.0.1 — either all in this process
// (single-process integration tests) or a local subset with the rest
// reached through a shared port table (tools/wmproc forks one process per
// player group; children inherit their pre-bound sockets, so a killed and
// re-forked group reclaims the same endpoints).
//
// Datagram framing (little-endian): 'W' 'M' | version u8 | from u16 |
// to u16 | sent_at i64 | payload. The decoder is truncation-safe: short,
// foreign or out-of-range datagrams bump NetStats::rx_rejects and are
// discarded — a real socket receives whatever the network hands it.
//
// Graceful degradation, not exceptions, on the data path: a send that the
// kernel rejects with EWOULDBLOCK/ENOBUFS parks on a bounded deferred
// queue flushed by run_until; when the queue overflows, the oldest
// non-control datagram is shed (control classes — the reliable
// handoff/subscribe/churn/ack plane — are never shed). Any other socket
// error counts the datagram as dropped and carries on.
//
// Time is the same virtual SimClock discipline as SimNetwork: run_until(t)
// advances the clock and drains sockets; protocol code never reads a wall
// clock (tools/wmproc paces run_until against real time from outside the
// src/ tree). Loss, latency and fault injection against real datagrams
// come from a SimNetwork that carries its deliveries over this transport
// (net::make_transport's UDP backend).
//
// Thread-safety: mu_ guards the counters and the deferred queue, so send()
// may be called from any thread; run_until()/handlers belong to the single
// driving thread, exactly as on SimNetwork.

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "net/clock.hpp"
#include "net/fault.hpp"
#include "net/transport.hpp"
#include "util/ids.hpp"
#include "util/thread_annotations.hpp"

namespace watchmen::net {

/// Hard per-datagram payload ceiling (IPv4 UDP maximum minus our frame
/// header, conservatively rounded); always enforced regardless of MTU.
constexpr std::size_t kMaxDatagramPayload = 65000;

class UdpTransport final : public Transport {
 public:
  using Transport::send;

  struct Options {
    std::size_t n_nodes = 0;
    /// Base port: node i binds 127.0.0.1:(port_base + i). 0 → ephemeral
    /// ports (parallel-test safe; the table is learned via getsockname).
    std::uint16_t port_base = 0;
    /// Lead-class bitmask the deferred queue must never shed.
    std::uint32_t control_class_mask = 0;
    /// Bound on the deferred-send queue (datagrams parked on EWOULDBLOCK).
    std::size_t max_queue = 256;
    std::size_t mtu_bytes = 0;  ///< 0 → kMaxDatagramPayload only
    /// Multi-process mode: fds[i] >= 0 is this process's pre-bound socket
    /// for local node i (inherited across fork); -1 marks a node living in
    /// a sibling process, reached via ports[i]. Empty → bind every node
    /// locally. The transport takes ownership of the given fds.
    std::vector<int> fds;
    /// Port table (host order) for every node; required with `fds`.
    std::vector<std::uint16_t> ports;
  };

  explicit UdpTransport(Options opts);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  SimClock& clock() override { return clock_; }
  using Transport::clock;
  std::size_t size() const override { return n_nodes_; }

  void set_handler(PlayerId node, Handler handler) override;
  /// Accepted and ignored: real sockets pace themselves (a SimNetwork
  /// carried over this transport models upload serialization).
  void set_upload_bps(PlayerId node, double bps) override;
  /// Stored for fault_plan() symmetry only; injection lives in the
  /// SimNetwork that carries over this transport.
  void set_fault_plan(FaultPlan plan) override EXCLUDES(mu_);
  FaultPlan fault_plan() const override EXCLUDES(mu_);

  void send(PlayerId from, PlayerId to,
            std::shared_ptr<const std::vector<std::uint8_t>> payload,
            std::size_t payload_bits = 0, TimeMs sent_at = -1) override
      EXCLUDES(mu_);

  void run_until(TimeMs t) override EXCLUDES(mu_);

  NetStats stats() const override EXCLUDES(mu_);
  std::uint64_t bits_sent_by(PlayerId node) const override EXCLUDES(mu_);
  void reset_bit_counters() override EXCLUDES(mu_);

  void set_mtu(std::size_t bytes) override EXCLUDES(mu_);
  void set_oversize_handler(OversizeHandler handler) override;

  /// The port node's socket is bound to (wmproc shares these with children).
  std::uint16_t port_of(PlayerId node) const { return ports_.at(node); }
  bool is_local(PlayerId node) const { return fds_.at(node) >= 0; }

  /// Test hook: park every send on the deferred queue instead of calling
  /// sendto, so queue bounding and shedding are exercised deterministically
  /// (the kernel almost never backpressures loopback).
  void set_test_block_sends(bool on) EXCLUDES(mu_);

 private:
  struct Deferred {
    PlayerId from;
    PlayerId to;
    std::uint8_t cls;
    std::vector<std::uint8_t> datagram;
  };

  /// sendto with graceful degradation. Returns false when the kernel asks
  /// us to defer (EWOULDBLOCK/ENOBUFS); hard errors count as dropped and
  /// return true (the datagram is consumed either way).
  bool try_sendto(PlayerId from, PlayerId to, std::uint8_t cls,
                  const std::uint8_t* data, std::size_t len) REQUIRES(mu_);
  void enqueue_deferred(Deferred d) REQUIRES(mu_);
  void flush_deferred() REQUIRES(mu_);
  void count_drop(std::uint8_t cls) REQUIRES(mu_);
  void process_datagram(PlayerId node, const std::uint8_t* data,
                        std::size_t len) EXCLUDES(mu_);

  const std::size_t n_nodes_;
  const std::uint32_t control_class_mask_;
  const std::size_t max_queue_;
  SimClock clock_;                 ///< driving-thread owned
  std::vector<Handler> handlers_;  ///< driving-thread owned
  std::vector<int> fds_;           ///< -1 = node lives in another process
  std::vector<std::uint16_t> ports_;
  mutable util::Mutex mu_;
  std::deque<Deferred> pending_ GUARDED_BY(mu_);
  std::vector<std::uint64_t> node_bits_ GUARDED_BY(mu_);
  NetStats stats_ GUARDED_BY(mu_);
  FaultPlan plan_ GUARDED_BY(mu_);
  std::size_t mtu_bytes_ GUARDED_BY(mu_) = 0;
  bool test_block_ GUARDED_BY(mu_) = false;
  OversizeHandler oversize_;  ///< driving-thread owned, like handlers_
};

}  // namespace watchmen::net
