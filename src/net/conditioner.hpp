#pragma once
// LinkConditioner: SimNetwork's seed-deterministic drop/delay decision
// engine.
//
// Every verdict a simulated link renders — baseline i.i.d. loss, the
// FaultPlan's partition/blackout blocks, Gilbert–Elliott burst chains,
// targeted class drops, latency-spike extras, the pairwise latency sample
// and the per-node upload serialization delay — is drawn here, in one
// fixed order per send. A SimNetwork carried over real sockets consults it
// exactly as an in-process one does, so the same FaultPlan + seed produces
// the same decisions over real datagrams as in simulation (asserted by
// tests/transport_test.cpp), which is what makes a chaos failure on the
// UDP backend reproducible in-process.
//
// Not thread-safe: SimNetwork holds its queue mutex across decide().

#include <cstdint>
#include <memory>
#include <vector>

#include "net/fault.hpp"
#include "net/latency.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace watchmen::net {

struct LinkDecision {
  bool drop = false;  ///< decided at send, takes effect at `due`
  TimeMs due = 0;     ///< delivery (or silent-drop accounting) time
};

class LinkConditioner {
 public:
  LinkConditioner(std::size_t n_nodes, std::unique_ptr<LatencyModel> latency,
                  double loss_rate, std::uint64_t seed);

  void set_fault_plan(FaultPlan plan);
  const FaultPlan& fault_plan() const { return plan_; }

  /// Per-node upload rate in bits/s; 0 means unconstrained (default).
  void set_upload_bps(PlayerId node, double bps);

  /// Renders the fate of one datagram. Advances the Rng streams — call
  /// exactly once per send, in send order.
  LinkDecision decide(PlayerId from, PlayerId to, std::uint8_t msg_class,
                      std::size_t wire_bits, TimeMs now_ms);

 private:
  bool fault_drop(PlayerId from, PlayerId to, std::uint8_t msg_class,
                  TimeMs now);

  const std::size_t n_nodes_;
  std::unique_ptr<LatencyModel> latency_;
  const double loss_rate_;
  Rng rng_;
  FaultPlan plan_;
  bool has_faults_ = false;
  Rng fault_rng_;
  // per directed link: chain in bad state
  std::vector<std::uint8_t> ge_bad_;
  std::vector<double> upload_bps_;
  // per-node queue drain time (ms)
  std::vector<double> upload_free_at_;
};

}  // namespace watchmen::net
