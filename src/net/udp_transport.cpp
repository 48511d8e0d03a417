#include "net/udp_transport.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace watchmen::net {

using util::MutexLock;

namespace {

// Frame header: 'W' 'M' | version u8 | from u16 | to u16 | sent_at i64.
constexpr std::size_t kHeaderBytes = 15;
constexpr std::uint8_t kMagic0 = 'W';
constexpr std::uint8_t kMagic1 = 'M';
constexpr std::uint8_t kFrameVersion = 1;

void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v & 0xff);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

void put_i64(std::uint8_t* p, std::int64_t v) {
  auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(u >> (8 * i));
}

std::int64_t get_i64(const std::uint8_t* p) {
  std::uint64_t u = 0;
  for (int i = 0; i < 8; ++i) u |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return static_cast<std::int64_t>(u);
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

int make_bound_socket(std::uint16_t port, std::uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("UdpTransport: socket() failed");
  // Big receive buffer: a carrying SimNetwork drains after every datagram,
  // but a raw multi-process run can burst a whole frame of traffic between
  // polls.
  int rcvbuf = 1 << 20;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in addr = loopback_addr(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("UdpTransport: bind() failed");
  }
  sockaddr_in got{};
  socklen_t len = sizeof got;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&got), &len) != 0) {
    ::close(fd);
    throw std::runtime_error("UdpTransport: getsockname() failed");
  }
  *bound_port = ntohs(got.sin_port);
  return fd;
}

}  // namespace

UdpTransport::UdpTransport(Options opts)
    : n_nodes_(opts.n_nodes),
      control_class_mask_(opts.control_class_mask),
      max_queue_(std::max<std::size_t>(1, opts.max_queue)),
      handlers_(opts.n_nodes),
      node_bits_(opts.n_nodes, 0),
      mtu_bytes_(opts.mtu_bytes) {
  if (n_nodes_ == 0) throw std::invalid_argument("UdpTransport: zero nodes");
  if (!opts.fds.empty()) {
    if (opts.fds.size() != n_nodes_ || opts.ports.size() != n_nodes_) {
      throw std::invalid_argument("UdpTransport: fd/port table size mismatch");
    }
    fds_ = std::move(opts.fds);
    ports_ = std::move(opts.ports);
  } else {
    fds_.assign(n_nodes_, -1);
    ports_.assign(n_nodes_, 0);
    for (std::size_t i = 0; i < n_nodes_; ++i) {
      const std::uint16_t want =
          opts.port_base == 0
              ? 0
              : static_cast<std::uint16_t>(opts.port_base + i);
      fds_[i] = make_bound_socket(want, &ports_[i]);
    }
  }
}

UdpTransport::~UdpTransport() {
  for (const int fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
}

void UdpTransport::set_handler(PlayerId node, Handler handler) {
  handlers_.at(node) = std::move(handler);
}

void UdpTransport::set_upload_bps(PlayerId, double) {}

void UdpTransport::set_fault_plan(FaultPlan plan) {
  const MutexLock lock(mu_);
  plan_ = std::move(plan);
}

FaultPlan UdpTransport::fault_plan() const {
  const MutexLock lock(mu_);
  return plan_;
}

void UdpTransport::set_mtu(std::size_t bytes) {
  const MutexLock lock(mu_);
  mtu_bytes_ = bytes;
}

void UdpTransport::set_oversize_handler(OversizeHandler handler) {
  oversize_ = std::move(handler);
}

void UdpTransport::set_test_block_sends(bool on) {
  const MutexLock lock(mu_);
  test_block_ = on;
}

void UdpTransport::count_drop(std::uint8_t cls) {
  ++stats_.dropped;
  ++stats_.dropped_by_class[std::min<std::size_t>(cls,
                                                  NetStats::kClassBuckets - 1)];
}

bool UdpTransport::try_sendto(PlayerId from, PlayerId to, std::uint8_t cls,
                              const std::uint8_t* data, std::size_t len) {
  const sockaddr_in addr = loopback_addr(ports_[to]);
  const ssize_t r =
      ::sendto(fds_[from], data, len, 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  if (r >= 0) return true;
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) {
    return false;  // transient backpressure: caller defers
  }
  // Hard socket error (peer process died, interface trouble): the datagram
  // is lost, exactly like loss on a real path. Count it and carry on.
  count_drop(cls);
  return true;
}

void UdpTransport::enqueue_deferred(Deferred d) {
  if (pending_.size() >= max_queue_) {
    // Oldest-unreliable-first shedding: control-plane classes (acks,
    // handoffs, churn/rejoin notices) are never shed — they carry the
    // protocol's agreement state and have their own retransmit budget.
    const auto victim = std::find_if(
        pending_.begin(), pending_.end(), [this](const Deferred& q) {
          return ((control_class_mask_ >> q.cls) & 1u) == 0;
        });
    if (victim != pending_.end()) {
      ++stats_.shed;
      pending_.erase(victim);
    } else if (((control_class_mask_ >> d.cls) & 1u) == 0) {
      ++stats_.shed;  // queue is all-control and the newcomer is not: shed it
      return;
    }
    // else: an all-control queue grows for a control newcomer — bounded in
    // practice by the reliable layer's retry budget.
  }
  pending_.push_back(std::move(d));
}

void UdpTransport::flush_deferred() {
  while (!pending_.empty()) {
    Deferred& d = pending_.front();
    if (fds_[d.from] < 0) {
      // The origin socket vanished (local node torn down): drop.
      count_drop(d.cls);
      pending_.pop_front();
      continue;
    }
    if (!try_sendto(d.from, d.to, d.cls, d.datagram.data(),
                    d.datagram.size())) {
      return;  // still backpressured; keep FIFO order and retry next tick
    }
    pending_.pop_front();
  }
}

void UdpTransport::send(
    PlayerId from, PlayerId to,
    std::shared_ptr<const std::vector<std::uint8_t>> payload,
    std::size_t payload_bits, TimeMs sent_at) {
  if (from >= n_nodes_ || to >= n_nodes_) {
    throw std::out_of_range("UdpTransport::send: bad node id");
  }
  if (fds_[from] < 0) {
    throw std::logic_error("UdpTransport::send: node is not local");
  }
  const std::size_t payload_bytes = payload ? payload->size() : 0;
  if (payload_bits == 0 && payload) payload_bits = payload_bytes * 8;
  const std::size_t wire_bits = payload_bits + kUdpOverheadBits;
  const std::uint8_t cls =
      (payload && !payload->empty() ? (*payload)[0] : 0) & 0x7f;

  std::size_t limit = kMaxDatagramPayload;
  {
    const MutexLock lock(mu_);
    if (mtu_bytes_ != 0) limit = std::min(limit, mtu_bytes_);
  }
  if (payload_bytes > limit) {
    {
      const MutexLock lock(mu_);
      ++stats_.oversize;
    }
    if (oversize_) oversize_(from, to, payload_bytes);
    return;
  }

  std::vector<std::uint8_t> datagram(kHeaderBytes + payload_bytes);
  datagram[0] = kMagic0;
  datagram[1] = kMagic1;
  datagram[2] = kFrameVersion;
  put_u16(&datagram[3], static_cast<std::uint16_t>(from));
  put_u16(&datagram[5], static_cast<std::uint16_t>(to));
  put_i64(&datagram[7], sent_at >= 0 ? sent_at : clock_.now());
  if (payload_bytes != 0) {
    std::memcpy(&datagram[kHeaderBytes], payload->data(), payload_bytes);
  }

  const MutexLock lock(mu_);
  ++stats_.sent;
  stats_.bits_sent += wire_bits;
  stats_.bits_sent_by_class[std::min<std::size_t>(
      cls, NetStats::kClassBuckets - 1)] += wire_bits;
  node_bits_[from] += wire_bits;
  // FIFO per origin: once anything is deferred, later sends queue behind it.
  if (test_block_ || !pending_.empty() ||
      !try_sendto(from, to, cls, datagram.data(), datagram.size())) {
    enqueue_deferred(Deferred{from, to, cls, std::move(datagram)});
  }
}

void UdpTransport::process_datagram(PlayerId node, const std::uint8_t* data,
                                    std::size_t len) {
  if (len < kHeaderBytes || data[0] != kMagic0 || data[1] != kMagic1 ||
      data[2] != kFrameVersion) {
    const MutexLock lock(mu_);
    ++stats_.rx_rejects;
    return;
  }
  const PlayerId from = get_u16(&data[3]);
  const PlayerId to = get_u16(&data[5]);
  if (from >= n_nodes_ || to >= n_nodes_ || to != node) {
    const MutexLock lock(mu_);
    ++stats_.rx_rejects;
    return;
  }
  const TimeMs sent_at = get_i64(&data[7]);

  Envelope env;
  env.from = from;
  env.to = to;
  env.sent_at = sent_at;
  env.delivered_at = clock_.now();
  env.wire_bits = (len - kHeaderBytes) * 8 + kUdpOverheadBits;
  env.payload = std::make_shared<const std::vector<std::uint8_t>>(
      data + kHeaderBytes, data + len);
  {
    const MutexLock lock(mu_);
    ++stats_.delivered;
    stats_.delivery_age_ms.add(static_cast<double>(
        std::max<TimeMs>(0, env.delivered_at - env.sent_at)));
  }
  Handler& handler = handlers_[to];
  if (handler) handler(env);
}

void UdpTransport::run_until(TimeMs t) {
  clock_.advance_to(t);
  {
    const MutexLock lock(mu_);
    flush_deferred();
  }
  std::uint8_t buf[65536];
  for (PlayerId node = 0; node < n_nodes_; ++node) {
    const int fd = fds_[node];
    if (fd < 0) continue;
    for (;;) {
      const ssize_t r = ::recvfrom(fd, buf, sizeof buf, 0, nullptr, nullptr);
      if (r < 0) break;  // EAGAIN (drained) or transient ICMP error
      process_datagram(node, buf, static_cast<std::size_t>(r));
    }
  }
}

NetStats UdpTransport::stats() const {
  const MutexLock lock(mu_);
  return stats_;
}

std::uint64_t UdpTransport::bits_sent_by(PlayerId node) const {
  const MutexLock lock(mu_);
  return node_bits_.at(node);
}

void UdpTransport::reset_bit_counters() {
  const MutexLock lock(mu_);
  for (auto& b : node_bits_) b = 0;
}

}  // namespace watchmen::net
