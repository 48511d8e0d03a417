#include "net/transport.hpp"

#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "net/network.hpp"
#include "net/udp_transport.hpp"

namespace watchmen::net {

TransportKind transport_kind_from_string(const char* value) {
  if (value != nullptr &&
      (std::strcmp(value, "udp") == 0 || std::strcmp(value, "udp_loopback") == 0)) {
    return TransportKind::kUdpLoopback;
  }
  return TransportKind::kSim;
}

TransportKind transport_kind_from_env() {
  return transport_kind_from_string(std::getenv("WATCHMEN_TRANSPORT"));
}

std::unique_ptr<Transport> make_transport(TransportConfig cfg) {
  if (cfg.n_nodes == 0) {
    throw std::invalid_argument("make_transport: zero nodes");
  }
  switch (cfg.kind) {
    case TransportKind::kSim:
      return std::make_unique<SimNetwork>(cfg.n_nodes, std::move(cfg.latency),
                                          cfg.loss_rate, cfg.seed);
    case TransportKind::kUdpLoopback: {
      UdpTransport::Options o;
      o.n_nodes = cfg.n_nodes;
      o.port_base = cfg.udp_port_base;
      o.control_class_mask = cfg.control_class_mask;
      o.fds = std::move(cfg.udp_fds);
      o.ports = std::move(cfg.udp_ports);
      return std::make_unique<SimNetwork>(
          cfg.n_nodes, std::move(cfg.latency), cfg.loss_rate, cfg.seed,
          std::make_unique<UdpTransport>(std::move(o)));
    }
  }
  throw std::invalid_argument("make_transport: bad transport kind");
}

}  // namespace watchmen::net
