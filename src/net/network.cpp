#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace watchmen::net {

using util::MutexLock;

SimNetwork::SimNetwork(std::size_t n_nodes,
                       std::unique_ptr<LatencyModel> latency, double loss_rate,
                       std::uint64_t seed, std::unique_ptr<Transport> carrier)
    : n_nodes_(n_nodes),
      cond_(n_nodes, std::move(latency), loss_rate, seed),
      handlers_(n_nodes),
      node_bits_(n_nodes, 0),
      carrier_(std::move(carrier)) {
  if (carrier_ && carrier_->size() != n_nodes) {
    throw std::invalid_argument("SimNetwork: carrier spans other node ids");
  }
}

void SimNetwork::set_handler(PlayerId node, Handler handler) {
  if (carrier_) {
    carrier_->set_handler(node, std::move(handler));
  } else {
    handlers_.at(node) = std::move(handler);
  }
}

void SimNetwork::set_upload_bps(PlayerId node, double bps) {
  const MutexLock lock(mu_);
  cond_.set_upload_bps(node, bps);
}

void SimNetwork::set_fault_plan(FaultPlan plan) {
  const MutexLock lock(mu_);
  cond_.set_fault_plan(std::move(plan));
}

FaultPlan SimNetwork::fault_plan() const {
  const MutexLock lock(mu_);
  return cond_.fault_plan();
}

void SimNetwork::set_mtu(std::size_t bytes) {
  const MutexLock lock(mu_);
  mtu_bytes_ = bytes;
}

void SimNetwork::set_oversize_handler(OversizeHandler handler) {
  oversize_ = std::move(handler);
}

void SimNetwork::send(PlayerId from, PlayerId to,
                      std::shared_ptr<const std::vector<std::uint8_t>> payload,
                      std::size_t payload_bits, TimeMs sent_at) {
  if (from >= n_nodes_ || to >= n_nodes_) {
    throw std::out_of_range("SimNetwork::send: bad node id");
  }
  if (payload_bits == 0 && payload) payload_bits = payload->size() * 8;
  const std::size_t wire_bits = payload_bits + kUdpOverheadBits;

  // Class = the datagram's leading message-type byte, with the header tag
  // bit core::seal sets masked off.
  const std::uint8_t lead_class =
      (payload && !payload->empty() ? (*payload)[0] : 0) & 0x7f;
  const TimeMs now_ms = clock_.now();
  const std::size_t payload_bytes = payload ? payload->size() : 0;

  {
    const MutexLock lock(mu_);
    // MTU enforcement (when configured): the datagram is rejected before
    // any conditioner draw, so enabling it never desynchronizes the Rng
    // streams of messages that do fit.
    if (mtu_bytes_ != 0 && payload_bytes > mtu_bytes_) {
      ++stats_.oversize;
    } else {
      ++stats_.sent;
      stats_.bits_sent += wire_bits;
      stats_.bits_sent_by_class[std::min<std::size_t>(
          lead_class, NetStats::kClassBuckets - 1)] += wire_bits;
      node_bits_[from] += wire_bits;

      const LinkDecision d =
          cond_.decide(from, to, lead_class, wire_bits, now_ms);

      Envelope env;
      env.from = from;
      env.to = to;
      env.sent_at = sent_at >= 0 ? sent_at : now_ms;
      env.delivered_at = d.due;
      env.wire_bits = wire_bits;
      env.payload = std::move(payload);
      queue_.push(Pending{d.due, seq_++, d.drop, std::move(env)});
      return;
    }
  }
  // Oversize path: report outside the lock (the handler may log or re-send
  // a split payload through this same transport).
  if (oversize_) oversize_(from, to, payload_bytes);
}

bool SimNetwork::deliver_one(TimeMs t) {
  // Pop exactly one deliverable event per lock acquisition, then run the
  // handler unlocked: handlers re-enter send() (acks, retransmits,
  // forwarded updates), and messages they enqueue that are due at or
  // before t must be seen by the caller's next iteration — which one-at-a-
  // time popping gives us for free, preserving the exact delivery order of
  // the pre-refactor loop.
  Envelope env;
  {
    const MutexLock lock(mu_);
    for (;;) {
      if (queue_.empty() || queue_.top().due > t) return false;
      Pending p = queue_.top();
      queue_.pop();
      clock_.advance_to(p.due);
      if (p.dropped) {
        ++stats_.dropped;
        const std::uint8_t cls =
            (p.env.payload && !p.env.payload->empty() ? (*p.env.payload)[0]
                                                      : 0) &
            0x7f;
        ++stats_.dropped_by_class[std::min<std::size_t>(
            cls, NetStats::kClassBuckets - 1)];
        continue;  // a drop is not an event the driving thread observes
      }
      ++stats_.delivered;
      stats_.delivery_age_ms.add(static_cast<double>(p.due - p.env.sent_at));
      env = std::move(p.env);
      break;
    }
  }
  if (carrier_) {
    // Deliver at exactly `due` in carrier time: advance the carrier (and
    // drain any stragglers), push the one datagram through, drain again so
    // its handler runs before the next event is considered.
    carrier_->run_until(env.delivered_at);
    carrier_->send(env.from, env.to, std::move(env.payload),
                   env.wire_bits - kUdpOverheadBits, env.sent_at);
    carrier_->run_until(env.delivered_at);
    return true;
  }
  Handler& handler = handlers_[env.to];
  if (handler) handler(env);
  return true;
}

void SimNetwork::run_until(TimeMs t) {
  while (deliver_one(t)) {
  }
  clock_.advance_to(t);
  if (carrier_) carrier_->run_until(t);
}

NetStats SimNetwork::stats() const {
  NetStats out;
  {
    const MutexLock lock(mu_);
    out = stats_;
  }
  if (carrier_) {
    // Socket-level counters live in the carrier; everything the conditioner
    // decides lives here. Merging gives callers one view.
    const NetStats c = carrier_->stats();
    out.rx_rejects += c.rx_rejects;
    out.shed += c.shed;
    out.oversize += c.oversize;
  }
  return out;
}

std::uint64_t SimNetwork::bits_sent_by(PlayerId node) const {
  const MutexLock lock(mu_);
  return node_bits_.at(node);
}

void SimNetwork::reset_bit_counters() {
  const MutexLock lock(mu_);
  for (auto& b : node_bits_) b = 0;
}

}  // namespace watchmen::net
