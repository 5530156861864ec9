// Shared harness of the perfbench workloads.
//
// A workload is one function that builds a fresh cluster, runs a fixed
// amount of simulated work generated from the seed, checks the outputs and
// returns a Rep. It observes the simulator only from outside: host time
// around public calls, deltas of the process-global MetricsRegistry (which
// is cumulative, so every figure is a window delta), engine statistics and
// the RPC span logs / link tracers the layers already expose.
#pragma once

#include <time.h>

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "tccluster/cluster.hpp"
#include "tcsvc/rpc.hpp"

namespace perfbench {

/// Host time is the process's CPU time: the simulator is single-threaded,
/// and CPU time leaves out the time other tenants of the host hold the core,
/// which wall time on a shared machine does not.
struct Clock {
  using time_point = double;
  static time_point now() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }
};

inline double seconds_since(Clock::time_point t0) { return Clock::now() - t0; }

/// Nearest-rank percentile (p in [0, 100]) of a sample set; 0 when empty.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// Host-time breakdown of set-up, seconds.
struct SetupTimes {
  double plan_s = 0.0;      ///< TcCluster::create
  double boot_s = 0.0;      ///< TcCluster::boot
  double services_s = 0.0;  ///< RPC nodes, services, clients
  double prefill_s = 0.0;   ///< engine run up to the first measured op
  [[nodiscard]] double total() const { return plan_s + boot_s + services_s + prefill_s; }
};

/// Snapshot of every registry counter and engine statistic the per-layer
/// metrics are built from. Take one at window start and one at window end.
struct Counters {
  std::map<std::string, double> v;

  static Counters take(const std::vector<const tcc::sim::Engine*>& engines);
  [[nodiscard]] Counters minus(const Counters& before) const;
  [[nodiscard]] Counters plus(const Counters& other) const;
  [[nodiscard]] double get(const std::string& name) const;
};

/// One client op as the benchmark saw it (simulated time).
struct OpSpan {
  int peer = -1;  ///< chip the op was routed to first
  tcc::Picoseconds start{};
  tcc::Picoseconds end{};
  bool ok = true;
};

/// Accumulates per-wire-direction busy time from a cluster's link tracers
/// and clears them, so tracer memory stays bounded on long windows.
class LinkBusy {
 public:
  void drain(tcc::cluster::TcCluster& cl);
  [[nodiscard]] double hottest_ps() const;
  [[nodiscard]] std::uint64_t drops() const { return drops_; }

 private:
  std::map<std::pair<int, std::string>, double> busy_ps_;
  std::uint64_t drops_ = 0;
};

/// Every workload issues its ops from chip 0.
inline constexpr int kClientChip = 0;

/// The result of one rep of one workload.
struct Rep {
  SetupTimes setup;
  double run_s = 0.0;
  /// The window's host time in slices of fixed simulated work (same count
  /// and work in every rep of a seed); sum == run_s.
  std::vector<double> run_slices;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< correctness failures, empty = correct
  /// Deterministic figures: simulated latency/throughput and per-op counts.
  /// Identical for every rep of one seed, traced or not.
  std::map<std::string, double> det;
  Counters window;  ///< counter deltas over the measured window
  bool traced = false;
  std::map<std::string, double> span_metrics;  ///< traced reps only
  std::string perfetto_json;                   ///< traced reps only

  void check(bool ok, const std::string& what) {
    if (!ok && errors.size() < 20) errors.push_back(what);
  }
};

/// The measured window of a workload inside one engine run: open it at the
/// first measured op and close it when the last completes (a workload with
/// several phases opens one per phase; close() accumulates). While
/// open, a sampler stamps the host clock every `slice` of simulated time, so
/// the window's host time splits into slices that are the same simulated
/// work in every rep of a seed (see Rep::run_slices). The sampler only reads
/// the clock; its wake-ups add window / slice events to the count.
class Window {
 public:
  void open(tcc::sim::Engine& eng, tcc::Picoseconds slice);
  /// Adds the window's counter deltas and host time to `rep`.
  void close(const tcc::sim::Engine& eng, Rep& rep);

  tcc::Picoseconds start{};
  tcc::Picoseconds end{};

 private:
  bool open_ = false;
  std::vector<Clock::time_point> stamps_;
  Counters c0_;
};

/// Per-op latencies (simulated microseconds) into p50/p99/p999 and
/// goodput, plus the per-op work counts of the window, into rep.det.
void finish_rep(Rep& rep, std::vector<double> latencies_us, double window_s,
                std::uint64_t ops);

/// Span joins for a traced rep: rpc client/server/fabric times, the
/// replication leg, op self time, the hot wire's busy share of the window;
/// and the Perfetto JSON of all spans. `nodes` are every RPC node of the rig
/// (none on fabric_stream); only spans from `window_start` on count.
void analyse_trace(Rep& rep, std::vector<OpSpan> ops,
                   const std::vector<tcc::tcsvc::RpcNode*>& nodes,
                   tcc::Picoseconds window_start, tcc::Picoseconds window,
                   const LinkBusy& busy);

/// Seeded input generator: one stream per purpose so adding a draw in one
/// place does not shift the inputs of another.
inline std::mt19937_64 stream(std::uint64_t seed, std::uint64_t purpose) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed), static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(purpose)};
  return std::mt19937_64(seq);
}

/// Deterministic filler bytes for (seed, a, b): payloads that a reader can
/// regenerate to check what arrived.
void fill_pattern(std::uint8_t* out, std::size_t n, std::uint64_t seed, std::uint64_t a,
                  std::uint64_t b);

// Workloads. `traced` turns on RPC span capture and link tracing.
Rep run_kv_ring(std::uint64_t seed, bool traced);
Rep run_store_torus(std::uint64_t seed, bool traced);
Rep run_fabric_stream(std::uint64_t seed, bool traced);

/// The paper's Fig. 6/7 kernels on the two-board cable, exactly as
/// bench/fig6_bandwidth and bench/fig7_latency run them.
struct PaperProbe {
  double half_rtt_ns = 0.0;   ///< 48 B payload (one 64 B line), 200 iterations
  double weak_mbps = 0.0;     ///< 4 KiB messages, 2 MiB, weakly ordered
  double strict_mbps = 0.0;   ///< 4 KiB messages, 2 MiB, strict (Sfence per line)
  [[nodiscard]] double fidelity_err_pct() const;
};
PaperProbe run_paper_probe();

}  // namespace perfbench
