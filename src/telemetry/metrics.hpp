// Unified metrics layer: a process-global registry of named counters,
// gauges and log2-bucketed histograms, shared by every subsystem of the
// simulator (sim engine, HT links, northbridges, WC units, tcmsg).
//
// Design rules:
//  * Instruments are registered lazily by name and live for the process;
//    components cache the returned reference and increment through it, so a
//    hot-path update is one non-atomic add (the simulator is
//    single-threaded by construction).
//  * Metrics are cumulative across every Engine/TcCluster instance in the
//    process, like Prometheus process counters. Benches that want a clean
//    slate call MetricsRegistry::global().reset_values().
//  * Every call site is wrapped in TCC_METRIC(...), which compiles to
//    nothing when the build sets TCC_TELEMETRY_ENABLED=0 (CMake option
//    -DTCC_TELEMETRY=OFF) — the zero-cost-when-disabled contract.
//
// The catalogue of every registered metric name lives in
// docs/OBSERVABILITY.md; a test diffs that table against this registry.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"

#ifndef TCC_TELEMETRY_ENABLED
#define TCC_TELEMETRY_ENABLED 1
#endif

#if TCC_TELEMETRY_ENABLED
#define TCC_METRIC(stmt) \
  do {                   \
    stmt;                \
  } while (0)
#else
#define TCC_METRIC(stmt) \
  do {                   \
  } while (0)
#endif

namespace tcc::telemetry {

/// Monotonically increasing event count.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  void inc(std::uint64_t n = 1) { value_ += n; }
  /// Includes increments a model has deferred: `deferred` reports events
  /// that already happened in simulated time but are charged in bulk later
  /// (poll elision, opteron::ElidedLoads), so a read never lags the model.
  [[nodiscard]] std::uint64_t value() const {
    return value_ + (deferred_ != nullptr ? deferred_() : 0);
  }
  void set_deferred(std::uint64_t (*deferred)()) { deferred_ = deferred; }
  [[nodiscard]] const std::string& name() const { return name_; }
  void reset() { value_ = 0; }

 private:
  std::string name_;
  std::uint64_t value_ = 0;
  std::uint64_t (*deferred_)() = nullptr;
};

/// Point-in-time (or cumulative-sum) double value.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  void reset() { value_ = 0.0; }

 private:
  std::string name_;
  double value_ = 0.0;
};

/// Log2-bucketed histogram of non-negative integer samples: bucket i counts
/// samples whose bit width is i (i.e. values in [2^(i-1), 2^i - 1], bucket 0
/// holds zeros). Cheap enough for hot paths, mergeable across registries.
class Histogram {
 public:
  static constexpr int kBuckets = 65;  // bit_width of uint64 is 0..64

  explicit Histogram(std::string name) : name_(std::move(name)) {}

  void add(std::uint64_t v);
  void merge(const Histogram& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] std::uint64_t min() const { return count_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const { return count_ ? max_ : 0; }
  [[nodiscard]] double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  [[nodiscard]] std::uint64_t bucket(int i) const { return buckets_[static_cast<std::size_t>(i)]; }

  /// Upper bound of the bucket at or above the p-th percentile (p in
  /// [0,100]). An estimate — exact within a factor of 2 — good enough for
  /// queue-depth/occupancy shapes.
  [[nodiscard]] std::uint64_t percentile_bound(double p) const;

  [[nodiscard]] const std::string& name() const { return name_; }
  void reset();

 private:
  std::string name_;
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Name -> instrument registry. Lookup is O(log n) and meant for
/// construction time only: cache the reference, then update through it.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every subsystem records into.
  static MetricsRegistry& global();

  /// Get-or-create. Registering the same name with a different instrument
  /// kind is a programming error and asserts.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// All registered names (sorted), regardless of kind.
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Zero every instrument but keep the registrations (bench isolation).
  void reset_values();

  /// Serialize every instrument as a JSON document (schema in
  /// docs/OBSERVABILITY.md).
  [[nodiscard]] std::string to_json() const;

  /// to_json() straight to a file.
  Status write_json(const std::string& path) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& get_or_create(const std::string& name, Kind kind);

  std::map<std::string, Entry> entries_;
};

}  // namespace tcc::telemetry
