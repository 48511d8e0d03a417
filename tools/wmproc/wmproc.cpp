// wmproc: multi-process chaos harness (ISSUE 9 acceptance gate).
//
// The parent binds one UDP loopback socket per player (port 0 — parallel-CI
// safe), forks one child process per player group, and paces nothing: each
// child runs its own WatchmenSession over the SAME recorded trace, simulates
// only its local players (SessionOptions::local_players), and reaches the
// others through the inherited sockets (net::TransportConfig::udp_fds and
// udp_ports).
// Virtual frames are paced against the wall clock (kFramePeriod per frame)
// so the processes stay loosely in step, exactly the discipline a real
// client loop would impose.
//
// Mid-round the parent SIGKILLs the second group — a real crash: no
// destructors, no goodbye datagrams, sockets simply go quiet. The surviving
// group's liveness watchdogs must grade the silence and run the emergency
// proxy failover. At the scripted rejoin frame the parent re-forks the
// group; the new process reclaims the same sockets (the parent kept its
// copies open across the kill), starts at SessionOptions::start_frame, and
// its peers run crash recovery back into the pool.
//
// The parent gates (exit 0/1):
//   * every surviving child reports zero honest players flagged;
//   * at least one emergency failover adoption happened;
//   * the re-forked group completes the trace.
//
// Scripted CrashEvents for the killed players ride in every child's
// FaultPlan so detectors discount the blackout window and absolve the
// silence evidence on rejoin — churn, not cheating.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "game/map.hpp"
#include "game/trace.hpp"
#include "net/fault.hpp"
#include "net/latency.hpp"
#include "net/transport.hpp"

using namespace watchmen;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kPlayers = 6;
constexpr std::size_t kGroupSize = 3;  // players [0,3) and [3,6)
constexpr Frame kFrames = 360;
constexpr Frame kCrashFrame = 150;   // mid-round (rounds are 40 frames)
constexpr Frame kRejoinFrame = 240;  // > crash + kWatchdogDeadFrames
constexpr std::uint64_t kSeed = 42;
constexpr auto kFramePeriod = std::chrono::milliseconds(5);

int group_of(PlayerId p) { return p < kGroupSize ? 0 : 1; }

std::uint32_t control_class_mask() {
  std::uint32_t mask = 0;
  for (const core::MsgType t :
       {core::MsgType::kSubscribe, core::MsgType::kHandoff,
        core::MsgType::kChurnNotice, core::MsgType::kAck,
        core::MsgType::kRejoinNotice}) {
    mask |= 1u << static_cast<std::uint8_t>(t);
  }
  return mask;
}

struct Endpoint {
  int fd = -1;
  std::uint16_t port = 0;
};

Endpoint bind_loopback() {
  Endpoint ep;
  ep.fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (ep.fd < 0) throw std::runtime_error("wmproc: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(ep.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    throw std::runtime_error("wmproc: bind() failed");
  }
  sockaddr_in got{};
  socklen_t len = sizeof got;
  if (::getsockname(ep.fd, reinterpret_cast<sockaddr*>(&got), &len) != 0) {
    throw std::runtime_error("wmproc: getsockname() failed");
  }
  ep.port = ntohs(got.sin_port);
  return ep;
}

net::FaultPlan crash_plan() {
  net::FaultPlan plan;
  for (PlayerId p = 0; p < kPlayers; ++p) {
    if (group_of(p) == 1) plan.crashes.push_back({kCrashFrame, p, kRejoinFrame});
  }
  return plan;
}

core::SessionOptions child_options(int group,
                                   const std::vector<Endpoint>& eps,
                                   Frame start_frame) {
  core::SessionOptions opts;
  opts.watchmen.reliable_control = true;
  opts.watchmen.liveness_watchdog = true;
  opts.watchmen.rate_loss_allowance = 0.30;
  opts.watchmen.starve_loss_allowance = 0.8;
  opts.watchmen.starve_floor = 0.15;
  opts.seed = kSeed;
  opts.faults = crash_plan();
  opts.start_frame = start_frame;
  for (PlayerId p = 0; p < kPlayers; ++p) {
    if (group_of(p) == group) opts.local_players.push_back(p);
  }
  opts.transport_factory = [group, &eps](std::size_t n) {
    net::TransportConfig tc;
    tc.kind = net::TransportKind::kUdpLoopback;
    tc.n_nodes = n;
    tc.latency = std::make_unique<net::FixedLatency>(25.0);
    tc.loss_rate = 0.01;
    tc.seed = kSeed;
    tc.control_class_mask = control_class_mask();
    tc.udp_fds.resize(n, -1);
    tc.udp_ports.resize(n, 0);
    for (PlayerId p = 0; p < n; ++p) {
      tc.udp_ports[p] = eps[p].port;
      if (group_of(p) == group) {
        tc.udp_fds[p] = eps[p].fd;  // inherited across fork; transport owns it
      } else {
        ::close(eps[p].fd);  // never read a sibling's socket
      }
    }
    return net::make_transport(std::move(tc));
  };
  return opts;
}

/// Child body: replay the shared trace for this group's players, pacing
/// virtual frames against the wall clock, then report through `report_fd`.
int run_child(int group, const std::vector<Endpoint>& eps,
              Clock::time_point epoch, Frame start_frame, int report_fd) {
  const game::GameMap map = game::make_longest_yard();
  game::SessionConfig cfg;
  cfg.n_players = kPlayers;
  cfg.n_frames = static_cast<std::size_t>(kFrames);
  cfg.seed = kSeed;
  const game::GameTrace trace = game::record_session(map, cfg);

  core::WatchmenSession session(trace, map, child_options(group, eps,
                                                          start_frame));
  for (Frame f = start_frame; f < kFrames; ++f) {
    std::this_thread::sleep_until(epoch + f * kFramePeriod);
    session.run_frames(1);
  }

  std::size_t flagged = 0;
  std::uint64_t adoptions = 0, deaths = 0;
  for (PlayerId p = 0; p < kPlayers; ++p) {
    if (session.connected(p) && session.detector().flagged(p)) ++flagged;
    if (!session.is_local(p)) continue;
    adoptions += session.peer(p).metrics().failover_adoptions;
    deaths += session.peer(p).metrics().watchdog_deaths;
  }
  char line[128];
  const int n = std::snprintf(
      line, sizeof line, "group %d flagged %zu adoptions %llu deaths %llu\n",
      group, flagged, static_cast<unsigned long long>(adoptions),
      static_cast<unsigned long long>(deaths));
  if (n > 0) {
    [[maybe_unused]] const ssize_t w = ::write(report_fd, line, n);
  }
  return flagged == 0 ? 0 : 1;
}

struct ChildProc {
  pid_t pid = -1;
  int report_rd = -1;
};

ChildProc spawn(int group, const std::vector<Endpoint>& eps,
                Clock::time_point epoch, Frame start_frame) {
  int pipefd[2];
  if (::pipe(pipefd) != 0) throw std::runtime_error("wmproc: pipe() failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("wmproc: fork() failed");
  if (pid == 0) {
    ::close(pipefd[0]);
    int code = 2;
    try {
      code = run_child(group, eps, epoch, start_frame, pipefd[1]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "wmproc child %d: %s\n", group, e.what());
    }
    ::_exit(code);
  }
  ::close(pipefd[1]);
  return ChildProc{pid, pipefd[0]};
}

std::string drain(int fd) {
  std::string out;
  char buf[256];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof buf);
    if (r <= 0) break;
    out.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);
  return out;
}

/// "... adoptions 3 ..." -> 3 (0 when the key is absent).
std::uint64_t parse_field(const std::string& report, const char* key) {
  const auto at = report.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(report.c_str() + at + std::strlen(key), nullptr, 10);
}

}  // namespace

int main() {
  std::vector<Endpoint> eps(kPlayers);
  for (auto& ep : eps) ep = bind_loopback();

  // Margin for both children to record the trace before frame 0.
  const auto epoch = Clock::now() + std::chrono::milliseconds(500);
  ChildProc survivor = spawn(0, eps, epoch, 0);
  ChildProc victim = spawn(1, eps, epoch, 0);

  // A real mid-round crash: SIGKILL, no teardown. The parent's copies of
  // the group's sockets keep the endpoints alive for the re-fork.
  std::this_thread::sleep_until(epoch + kCrashFrame * kFramePeriod);
  ::kill(victim.pid, SIGKILL);
  int status = 0;
  ::waitpid(victim.pid, &status, 0);
  ::close(victim.report_rd);
  std::printf("wmproc: killed group 1 at frame %lld\n",
              static_cast<long long>(kCrashFrame));

  std::this_thread::sleep_until(epoch + kRejoinFrame * kFramePeriod);
  ChildProc rejoiner = spawn(1, eps, epoch, kRejoinFrame);
  std::printf("wmproc: re-forked group 1 at frame %lld\n",
              static_cast<long long>(kRejoinFrame));

  int survivor_status = 0, rejoiner_status = 0;
  ::waitpid(survivor.pid, &survivor_status, 0);
  ::waitpid(rejoiner.pid, &rejoiner_status, 0);
  const std::string survivor_report = drain(survivor.report_rd);
  const std::string rejoiner_report = drain(rejoiner.report_rd);
  std::printf("%s%s", survivor_report.c_str(), rejoiner_report.c_str());

  const bool exits_ok =
      WIFEXITED(survivor_status) && WEXITSTATUS(survivor_status) == 0 &&
      WIFEXITED(rejoiner_status) && WEXITSTATUS(rejoiner_status) == 0;
  const std::uint64_t adoptions =
      parse_field(survivor_report, "adoptions ") +
      parse_field(rejoiner_report, "adoptions ");
  const bool adopted = adoptions >= 1;

  std::printf("wmproc: exits %s, failover adoptions %llu (>= 1: %s)\n",
              exits_ok ? "clean" : "FAILED",
              static_cast<unsigned long long>(adoptions),
              adopted ? "yes" : "NO");
  for (const auto& ep : eps) ::close(ep.fd);
  return exits_ok && adopted ? 0 : 1;
}
