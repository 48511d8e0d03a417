#pragma once
// Metrics registry (ISSUE 5 tentpole, piece 1; DESIGN.md §5e).
//
// Named counters and gauges with near-zero-overhead inline recording:
// lookup happens once (registration returns a stable reference), after
// which recording is a single add/store on the hot path. Distributions are
// exported as summary gauges by their owners (e.g. the session's
// delivery-age quantiles), not stored here.
// Per-player metrics use the label overloads, which mangle the player id
// into the metric name ("staleness_p99{player=7}").
//
// Two feeding models coexist:
//  * push — code that owns a Counter&/Gauge& updates it inline;
//  * pull — subsystems that already keep their own counters (PeerMetrics,
//    NetStats, Detector) register a collector, run at snapshot() time, that
//    mirrors those values into the registry. The hot paths stay untouched
//    and the snapshot still has one schema.
//
// snapshot_json() serializes everything through obs::JsonWriter — the same
// writer the bench reports use — with keys in sorted (map) order, so output
// is byte-deterministic for a deterministic session.
//
// Thread-safety: registration and snapshot take mu_ (annotations checked by
// clang -Wthread-safety, DESIGN.md §5g); recording through a previously
// obtained Counter&/Gauge& is lock-free but not synchronized — the session
// records from the sequential frame loop only (the parallel interest phase
// does not touch the registry), matching how PeerMetrics is used today.
// Collectors are user callbacks that re-enter the registry, so collect()
// copies them out and runs them with mu_ released — EXCLUDES(mu_) makes
// calling it (or snapshot_json) with the lock held a compile error rather
// than a deadlock.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "util/ids.hpp"
#include "util/thread_annotations.hpp"

namespace watchmen::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_ += n; }
  void set(std::uint64_t v) { v_ = v; }  ///< for pull-model mirroring
  std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { v_ = v; }
  double value() const { return v_; }

 private:
  double v_ = 0.0;
};

class Registry {
 public:
  using CollectorId = std::size_t;

  /// Find-or-create. References stay valid for the registry's lifetime
  /// (metrics live in deques; the maps only hold pointers).
  Counter& counter(std::string_view name) EXCLUDES(mu_) {
    const util::MutexLock lock(mu_);
    return find_or_create(counters_, counter_slab_, name);
  }
  Gauge& gauge(std::string_view name) EXCLUDES(mu_) {
    const util::MutexLock lock(mu_);
    return find_or_create(gauges_, gauge_slab_, name);
  }

  // Per-player label overloads.
  Counter& counter(std::string_view name, PlayerId player) {
    return counter(labeled(name, player));
  }
  Gauge& gauge(std::string_view name, PlayerId player) {
    return gauge(labeled(name, player));
  }

  static std::string labeled(std::string_view name, PlayerId player) {
    std::string s(name);
    s += "{player=";
    s += std::to_string(player);
    s += '}';
    return s;
  }

  /// Registers a pull-model collector, run (in registration order) at the
  /// start of every snapshot. Returns an id for remove_collector — owners
  /// whose lifetime is shorter than the registry's must deregister.
  CollectorId add_collector(std::function<void(Registry&)> fn) EXCLUDES(mu_) {
    const util::MutexLock lock(mu_);
    const CollectorId id = next_collector_id_++;
    collectors_.emplace_back(id, std::move(fn));
    return id;
  }

  void remove_collector(CollectorId id) EXCLUDES(mu_) {
    const util::MutexLock lock(mu_);
    std::erase_if(collectors_,
                  [id](const auto& c) { return c.first == id; });
  }

  /// Runs collectors, then serializes every metric:
  ///   {"counters": {...}, "gauges": {...}}
  std::string snapshot_json() EXCLUDES(mu_) {
    collect();
    const util::MutexLock lock(mu_);
    JsonWriter j;
    j.begin_object();
    j.key("counters");
    j.begin_object();
    for (const auto& [name, c] : counters_) j.kv(name, c->value());
    j.end_object();
    j.key("gauges");
    j.begin_object();
    for (const auto& [name, g] : gauges_) j.kv(name, g->value());
    j.end_object();
    j.end_object();
    return j.take();
  }

  /// Runs the collectors without serializing (e.g. before reading gauges).
  void collect() EXCLUDES(mu_) {
    // Copy under the lock, run outside it: collectors re-enter the registry.
    std::vector<std::function<void(Registry&)>> fns;
    {
      const util::MutexLock lock(mu_);
      fns.reserve(collectors_.size());
      for (const auto& [id, fn] : collectors_) fns.push_back(fn);
    }
    for (const auto& fn : fns) fn(*this);
  }

  std::size_t num_metrics() const EXCLUDES(mu_) {
    const util::MutexLock lock(mu_);
    return counters_.size() + gauges_.size();
  }

 private:
  template <typename T>
  static T& find_or_create(std::map<std::string, T*, std::less<>>& index,
                           std::deque<T>& slab, std::string_view name) {
    if (const auto it = index.find(name); it != index.end()) return *it->second;
    slab.emplace_back();
    index.emplace(std::string(name), &slab.back());
    return slab.back();
  }

  mutable util::Mutex mu_;
  std::map<std::string, Counter*, std::less<>> counters_ GUARDED_BY(mu_);
  std::map<std::string, Gauge*, std::less<>> gauges_ GUARDED_BY(mu_);
  std::deque<Counter> counter_slab_ GUARDED_BY(mu_);
  std::deque<Gauge> gauge_slab_ GUARDED_BY(mu_);
  std::vector<std::pair<CollectorId, std::function<void(Registry&)>>>
      collectors_ GUARDED_BY(mu_);
  CollectorId next_collector_id_ GUARDED_BY(mu_) = 0;
};

}  // namespace watchmen::obs
