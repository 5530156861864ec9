// TcCluster: the top-level public API. One object = one simulated TCCluster
// machine room: planned topology, chips and links, firmware boot, per-node
// drivers and message libraries.
//
// Typical use (see examples/quickstart.cpp):
//
//   TcCluster::Options opt;
//   opt.topology.shape = topology::ClusterShape::kCable;
//   auto cluster = TcCluster::create(opt).value();
//   cluster->boot().expect("boot");
//   auto* ep0 = cluster->msg(0).connect(1).value();
//   ... spawn simulated programs on cluster->engine(), co_await ep0->send(...)
//   cluster->engine().run();
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "firmware/boot.hpp"
#include "firmware/machine.hpp"
#include "ht/trace.hpp"
#include "tccluster/driver.hpp"
#include "tccluster/fault.hpp"
#include "tccluster/msg.hpp"
#include "tccluster/reliable.hpp"

namespace tcc::cluster {

class TcCluster {
 public:
  struct Options {
    topology::ClusterConfig topology;
    firmware::BootOptions boot;
    /// Northbridge outbound queue depth (Fig. 6 issue-timing artifact raises
    /// this to model a deep buffering chain).
    int nb_outbound_depth = opteron::kNbOutboundDepth;
    /// Per-node rendezvous region (uncacheable, remotely writable).
    std::uint64_t shared_bytes = 4_MiB;
    /// Scripted faults, armed right after boot() completes (times are
    /// absolute, so schedule them past the boot sequence, which takes a few
    /// microseconds of simulated time).
    std::vector<FaultEvent> faults;
    /// Tuning for the per-node reliable message libraries (rel()).
    RelConfig rel;
    /// Event-queue implementation. kHeapReference exists for the
    /// determinism suite (diff timelines against the calendar queue) and
    /// for honest before/after benchmarking; leave at kCalendar otherwise.
    sim::Scheduler scheduler = sim::Scheduler::kCalendar;
    /// Receive-poll model. kLiteral exists for the determinism suite (diff
    /// timelines against the elided default); leave at kElided otherwise.
    PollModel poll_model = PollModel::kElided;
  };

  /// Plan + assemble the machine (powered off). Fails on impossible
  /// topologies (port budget, register budget, alignment).
  static Result<std::unique_ptr<TcCluster>> create(Options options);

  /// Run the firmware sequence on all Supernodes and load the per-node
  /// drivers. Uses engine().run() internally.
  Status boot();

  [[nodiscard]] bool booted() const { return booted_; }

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] firmware::Machine& machine() { return *machine_; }
  [[nodiscard]] const topology::ClusterPlan& plan() const { return machine_->plan(); }
  [[nodiscard]] const firmware::BootSequencer& boot_sequencer() const { return *boot_; }

  [[nodiscard]] int num_nodes() const { return machine_->num_chips(); }
  [[nodiscard]] opteron::Core& core(int chip, int core_index = 0) {
    return machine_->chip(chip).core(core_index);
  }
  [[nodiscard]] TcDriver& driver(int chip) {
    return *drivers_.at(static_cast<std::size_t>(chip));
  }
  /// The default message library of a node (bound to core 0).
  [[nodiscard]] MsgLibrary& msg(int chip) {
    return *libraries_.at(static_cast<std::size_t>(chip));
  }
  /// The default reliable (tcrel) library of a node (bound to core 0).
  /// Raw msg() and rel() endpoints to the same (peer, channel) share a ring
  /// and must not be mixed; the middleware uses rel().
  [[nodiscard]] ReliableLibrary& rel(int chip) {
    return *rel_libraries_.at(static_cast<std::size_t>(chip));
  }
  /// The reliability tuning every rel() library was built with (middleware
  /// layers constructing their own ReliableLibrary reuse it).
  [[nodiscard]] const RelConfig& rel_config() const { return options_.rel; }

  /// Attach an owned protocol analyzer to every plan wire. Call before
  /// boot() to capture link-training and enumeration traffic too.
  /// Idempotent; `max_records` is a per-link cap — past it a tracer sheds
  /// records and counts them in dropped().
  void enable_tracing(std::size_t max_records = 65536);

  [[nodiscard]] bool tracing_enabled() const { return !tracers_.empty(); }
  /// The tracer on plan wire `link`, or nullptr when tracing is off.
  [[nodiscard]] ht::LinkTracer* tracer(int link) {
    if (tracers_.empty()) return nullptr;
    return tracers_.at(static_cast<std::size_t>(link)).get();
  }

  // ---- fault domain ------------------------------------------------------

  /// Arm one more fault at runtime (same validation as Options::faults).
  /// An `at` at or before the current instant strikes on the current tick —
  /// Engine::schedule_at clamps non-future times instead of dropping them.
  Status inject(const FaultEvent& fault);

  /// What the injector has armed and fired so far.
  [[nodiscard]] std::vector<std::string> fault_log() const {
    return injector_ ? injector_->log() : std::vector<std::string>{};
  }

  /// Recompute routing around every plan wire currently down (failed or
  /// forced) and reprogram the northbridges — the firmware reaction to a
  /// dead cable. No-op (success) when every wire is up. Under the default
  /// strict policy, fails with kUnavailable when the dead wires partition
  /// the cluster; under kBestEffort, survivors are reprogrammed anyway and
  /// unreachable Supernodes answer kUnavailable per address (plane-cut
  /// recovery: the rest of the torus keeps serving).
  Status reroute_around_failed_links(
      topology::RouteAroundPolicy policy = topology::RouteAroundPolicy::kStrict);

  /// Start/stop the driver keepalive on every node (peer-death detection;
  /// see TcDriver::start_keepalive). Stop before expecting engine().run()
  /// to drain.
  void start_keepalives(Picoseconds interval = Picoseconds::from_us(2.0),
                        Picoseconds timeout = Picoseconds::from_us(10.0));
  void stop_keepalives();

  // ---- diagnostics -------------------------------------------------------

  /// Register a section that diag::health_report appends verbatim (e.g. the
  /// serving layer's shard-placement table — diag cannot depend on tcsvc, so
  /// upper layers push their views down through this hook). Returns an id
  /// for remove_diag_section(); the callback must stay valid until removed.
  int add_diag_section(std::function<std::string()> section);
  void remove_diag_section(int id);
  /// Render every registered section (used by diag::health_report).
  [[nodiscard]] std::string diag_sections() const;

 private:
  TcCluster(Options options, topology::ClusterPlan plan);

  Options options_;
  sim::Engine engine_;
  std::unique_ptr<firmware::Machine> machine_;
  std::unique_ptr<firmware::BootSequencer> boot_;
  std::vector<std::unique_ptr<TcDriver>> drivers_;
  std::vector<std::unique_ptr<MsgLibrary>> libraries_;
  std::vector<std::unique_ptr<ReliableLibrary>> rel_libraries_;
  std::vector<std::unique_ptr<ht::LinkTracer>> tracers_;  // one per plan wire
  std::unique_ptr<FaultInjector> injector_;
  std::map<int, std::function<std::string()>> diag_sections_;
  int next_diag_section_id_ = 1;
  bool booted_ = false;
};

}  // namespace tcc::cluster
