#pragma once
// Discrete-event simulated network (the net::Transport reference backend).
//
// Models what the experiments need from UDP over the Internet:
//  * pairwise one-way latency from a LatencyModel,
//  * baseline i.i.d. message loss (paper simulates 1 %),
//  * optional scripted faults from a net::FaultPlan — bursty
//    (Gilbert–Elliott) loss windows, partitions, link blackouts, latency
//    spikes and targeted per-class drops — for the chaos harness,
//  * per-node upload serialization: each node drains an upload queue at its
//    configured upload rate, so over-budget senders see queueing delay —
//    this is what makes bandwidth a real constraint in the scaling bench.
//
// All of those verdicts are drawn by a LinkConditioner
// (net/conditioner.hpp).
//
// Optional carrier: constructed with another Transport (in practice a
// UdpTransport on loopback), the network keeps every verdict, the (due,
// seq) event order and all accounting, but instead of calling a handler it
// relays each surviving datagram through the carrier at exactly its due
// time — advance the carrier to `due`, send the one datagram, drain the
// carrier again — so handlers run in the same order as without it, and
// their re-entrant sends land back on this event queue. Lost datagrams
// never touch the carrier. That is what lets the chaos suite run unchanged
// over real sockets (ctest chaos_test_udp); tests/transport_test.cpp
// asserts identical delivery logs and NetStats with and without it.
//
// Payloads are shared between multicast recipients; `wire_bits` is the
// modelled on-the-wire size (payload + UDP/IP overhead), used both for the
// bandwidth meter and the serialization delay.
//
// Thread-safety (checked by clang -Wthread-safety, DESIGN.md §5g): mu_
// guards the event queue, the conditioner (rngs, fault windows, upload
// model) and all counters, so send() and the stats readers may be called
// from any thread — the prerequisite for the sharded scale-out, where
// shard threads inject cross-shard traffic while a monitor thread
// snapshots stats. Delivery stays single-threaded by contract: run_until()
// pops one due event per lock acquisition and invokes the receiver's
// handler with mu_ RELEASED (the deliver-under-lock smell from ISSUE 7
// satellite 2 — a handler that calls send() would self-deadlock
// otherwise), so handlers_ and clock_ belong to the single driving thread
// and are deliberately unguarded. Cross-thread senders must therefore send
// between run_until calls (shards run frames in lock-step), because send()
// timestamps off clock_, which only run_until advances. A carrier, like
// the handlers, is driven from the driving thread only.

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "net/clock.hpp"
#include "net/conditioner.hpp"
#include "net/fault.hpp"
#include "net/latency.hpp"
#include "net/transport.hpp"
#include "util/ids.hpp"
#include "util/thread_annotations.hpp"

namespace watchmen::net {

class SimNetwork : public Transport {
 public:
  using Transport::send;

  /// @param loss_rate   baseline i.i.d. drop probability per message
  /// @param carrier     null: handlers are called in-process; otherwise
  ///                    delivered datagrams travel through it (it must span
  ///                    the same node ids) and handlers live on it
  SimNetwork(std::size_t n_nodes, std::unique_ptr<LatencyModel> latency,
             double loss_rate, std::uint64_t seed,
             std::unique_ptr<Transport> carrier = nullptr);

  // Clock reads belong to the driving thread (see header comment); the
  // mutable accessor exists for tests that pre-advance time.
  SimClock& clock() override { return clock_; }
  using Transport::clock;
  std::size_t size() const override { return n_nodes_; }

  void set_handler(PlayerId node, Handler handler) override;

  void set_upload_bps(PlayerId node, double bps) override EXCLUDES(mu_);

  void set_fault_plan(FaultPlan plan) override EXCLUDES(mu_);
  FaultPlan fault_plan() const override EXCLUDES(mu_);

  void send(PlayerId from, PlayerId to,
            std::shared_ptr<const std::vector<std::uint8_t>> payload,
            std::size_t payload_bits = 0, TimeMs sent_at = -1) override
      EXCLUDES(mu_);

  void run_until(TimeMs t) override EXCLUDES(mu_);

  /// The network's own accounting, plus the carrier's socket-level
  /// oversize/shed/rx_reject counters when there is one.
  NetStats stats() const override EXCLUDES(mu_);
  std::uint64_t bits_sent_by(PlayerId node) const override EXCLUDES(mu_);
  void reset_bit_counters() override EXCLUDES(mu_);

  /// Payloads larger than this many bytes are rejected at send — counted in
  /// NetStats::oversize and reported to the oversize handler — instead of
  /// being silently delivered as datagrams no real UDP socket could carry.
  /// 0 (the default) disables the check, preserving pre-MTU behaviour.
  void set_mtu(std::size_t bytes) override EXCLUDES(mu_);
  void set_oversize_handler(OversizeHandler handler) override;

 private:
  struct Pending {
    TimeMs due;
    std::uint64_t seq;  // FIFO tie-break
    bool dropped;       // vanishes at `due` instead of being delivered
    Envelope env;
    bool operator>(const Pending& o) const {
      return due != o.due ? due > o.due : seq > o.seq;
    }
  };

  /// Pops and delivers the single next event due at or before t. Returns
  /// false when none remains. The receiver's handler (or the carrier) runs
  /// with mu_ released.
  bool deliver_one(TimeMs t) EXCLUDES(mu_);

  const std::size_t n_nodes_;
  SimClock clock_;  ///< driving-thread owned (advanced only inside run_until)
  mutable util::Mutex mu_;
  LinkConditioner cond_ GUARDED_BY(mu_);
  std::vector<Handler> handlers_;  ///< driving-thread owned
  std::vector<std::uint64_t> node_bits_ GUARDED_BY(mu_);
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> queue_
      GUARDED_BY(mu_);
  std::uint64_t seq_ GUARDED_BY(mu_) = 0;
  NetStats stats_ GUARDED_BY(mu_);
  std::size_t mtu_bytes_ GUARDED_BY(mu_) = 0;
  OversizeHandler oversize_;  ///< driving-thread owned, like handlers_
  const std::unique_ptr<Transport> carrier_;  ///< driving-thread driven
  /// Set by the carrier's oversize handler when it refuses the datagram
  /// deliver_one just handed it; driving-thread owned.
  bool carrier_refused_ = false;
};

}  // namespace watchmen::net
