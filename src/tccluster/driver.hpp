// TcDriver: the simulated equivalent of the paper's Linux device driver (§V
// "Enabling Remote Access" / §VI).
//
// Responsibilities, mirroring the real driver:
//  * verify the firmware left the machine in TCCluster state (links
//    non-coherent, NodeID 0, remote apertures mapped, interrupts suppressed),
//  * reserve and type the receive-ring region (uncacheable — TCCluster
//    writes cannot invalidate caches on the receiver),
//  * hand out page-granular mappings of remote apertures (write-only) and of
//    local shared memory (read/write),
//  * expose the layout constants the message library builds on.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "firmware/machine.hpp"

namespace tcc::cluster {

/// Ring geometry (§IV.A: "each node has to allocate a 4 KB ring buffer for
/// each endpoint it wants to communicate with").
inline constexpr std::uint64_t kRingBytes = 4096;
inline constexpr std::uint64_t kSlotBytes = 64;
/// Slot 0 of each ring is the control block (remote-written ack counter);
/// the remaining 63 slots carry messages.
inline constexpr int kDataSlots = 63;

/// Layout of the control block (slot 0) of ring(owner, sender): every word
/// is written remotely by `sender` and read locally by `owner`, so all four
/// travel the same posted path (same-VC ordering holds between them):
///   +0   tcmsg cumulative slots-consumed ack — `sender`'s count of slots it
///        consumed from the opposite-direction ring (flow control),
///   +8   driver keepalive beat (kApp channel only),
///   +16  tcrel cumulative delivered-message ack (reliable.hpp),
///   +24  tcrel membership-epoch word (low 32 bits epoch, bit 32 sync flag).
/// Disjoint words, so the layers never race each other.
inline constexpr std::uint64_t kHeartbeatOffset = 8;
inline constexpr std::uint64_t kRelAckOffset = 16;
inline constexpr std::uint64_t kRelEpochOffset = 24;

/// Independent ring channels per endpoint pair. Channel 0 carries
/// application/MPI traffic; 1 and 2 carry PGAS active-message requests and
/// responses (each ring has exactly one consumer, so the channels never
/// steal each other's messages).
inline constexpr int kNumChannels = 3;
enum class RingChannel : int { kApp = 0, kPgasRequest = 1, kPgasResponse = 2 };

/// How a receiver waiting on an empty ring is simulated. Both models give
/// the same timeline and the same modelled counters; they differ only in
/// host cost (docs/SIMULATOR.md, "Poll elision").
enum class PollModel : std::uint8_t {
  kElided,   ///< park on a DRAM write-watch and replay the poll schedule
  kLiteral,  ///< simulate every marker load (the determinism suite's oracle)
};

/// A write-only user-space view of remote memory.
class RemoteWindow {
 public:
  RemoteWindow() = default;
  RemoteWindow(AddrRange range, int home_chip) : range_(range), home_chip_(home_chip) {}

  [[nodiscard]] const AddrRange& range() const { return range_; }
  [[nodiscard]] int home_chip() const { return home_chip_; }
  [[nodiscard]] PhysAddr at(std::uint64_t offset) const {
    TCC_ASSERT(offset < range_.size, "offset outside the mapped window");
    return range_.base + offset;
  }

 private:
  AddrRange range_;
  int home_chip_ = -1;
};

/// A read/write view of local (or Supernode-local) memory.
class LocalWindow {
 public:
  LocalWindow() = default;
  explicit LocalWindow(AddrRange range) : range_(range) {}
  [[nodiscard]] const AddrRange& range() const { return range_; }
  [[nodiscard]] PhysAddr at(std::uint64_t offset) const {
    TCC_ASSERT(offset < range_.size, "offset outside the mapped window");
    return range_.base + offset;
  }

 private:
  AddrRange range_;
};

class TcDriver {
 public:
  /// One driver instance per chip ("node" in paper terms).
  TcDriver(firmware::Machine& machine, int chip);

  /// Module load: precondition checks + ring-region setup. Must run after
  /// the firmware boot completed.
  Status load();

  [[nodiscard]] bool loaded() const { return loaded_; }
  [[nodiscard]] int chip() const { return chip_; }

  // ---- layout ---------------------------------------------------------------

  /// The receive-ring region of `owner_chip` (at the bottom of its DRAM):
  /// one kRingBytes ring per (possible sender, channel).
  [[nodiscard]] AddrRange ring_region(int owner_chip) const;

  /// Ring inside `owner_chip`'s memory that `sender_chip` writes into.
  [[nodiscard]] AddrRange ring(int owner_chip, int sender_chip,
                               RingChannel channel = RingChannel::kApp) const;

  /// Local shared (rendezvous) region: uncacheable, remotely writable.
  [[nodiscard]] AddrRange shared_region(int owner_chip) const;

  /// Bytes of shared region per node (configurable before load()).
  void set_shared_bytes(std::uint64_t bytes) { shared_bytes_ = bytes; }
  [[nodiscard]] std::uint64_t shared_bytes() const { return shared_bytes_; }

  /// Receive-poll model of every message endpoint on this node.
  void set_poll_model(PollModel model) { poll_model_ = model; }
  [[nodiscard]] PollModel poll_model() const { return poll_model_; }

  // ---- mappings --------------------------------------------------------------

  /// Map (part of) a remote node's ring/shared space for writing. Page
  /// granular; rejects local addresses and unreachable nodes.
  [[nodiscard]] Result<RemoteWindow> map_remote(int target_chip, std::uint64_t offset,
                                                std::uint64_t bytes);

  /// Map local memory (for polling receive rings / reading rendezvous data).
  [[nodiscard]] Result<LocalWindow> map_local(std::uint64_t offset, std::uint64_t bytes);

  // ---- keepalive ---------------------------------------------------------------

  /// Liveness record for one peer, as this driver last judged it.
  struct PeerHealth {
    bool alive = true;  ///< optimistic until a timeout proves otherwise
    std::uint64_t beats_seen = 0;
    Picoseconds last_progress{};
  };

  /// Start the driver keepalive thread: every `interval` it remote-writes an
  /// incrementing beat into each peer's control block and checks the beats
  /// peers wrote here; a peer silent for longer than `timeout` is declared
  /// dead (tcmsg alone cannot tell — it has no retransmit and polls forever).
  /// The process runs until stop_keepalive(), so tests driving engine.run()
  /// to completion must stop it (or use run_until).
  ///
  /// `domain` bounds the monitoring set: beats go to (and verdicts form
  /// about) only those chips. Empty means every chip — fine on a handful
  /// of nodes, but a beat round is a sequential remote store per peer, so
  /// on a large fabric an all-to-all round cannot even finish within a
  /// tight interval. Services name the peers they actually judge instead;
  /// chips outside the domain stay optimistically alive.
  void start_keepalive(Picoseconds interval, Picoseconds timeout,
                       std::vector<int> domain = {});
  /// Grow a running keepalive's monitoring domain (a node admitted after
  /// start). No-op if already monitored; the new peer starts optimistically
  /// alive and is beaten from the next round on.
  void add_keepalive_peer(int peer_chip);
  /// Verdict edges: invoked whenever the keepalive flips a peer's liveness
  /// (alive -> dead on a missed-beat timeout, dead -> alive on the first
  /// fresh beat). Membership layers hook this to evict/readmit. One callback
  /// per driver; replaces any previous one.
  void set_verdict_callback(std::function<void(int peer, bool alive)> cb) {
    verdict_cb_ = std::move(cb);
  }
  void stop_keepalive() {
    ka_stop_ = true;
    // If the process is mid-sleep, cut it short so it observes the stop flag
    // now; the cancelled interval timer never fires.
    (void)machine_.engine().wake(ka_sleep_);
  }
  [[nodiscard]] bool keepalive_running() const { return ka_running_; }

  /// Fault injection: a hung driver stops emitting heartbeats (its peers'
  /// keepalive declares it dead) but keeps judging others.
  void set_hung(bool hung) { hung_ = hung; }
  [[nodiscard]] bool hung() const { return hung_; }

  /// This driver's current verdict on `peer_chip` (optimistic before the
  /// keepalive gathered evidence).
  [[nodiscard]] bool peer_alive(int peer_chip) const {
    return peers_.empty() || peers_.at(static_cast<std::size_t>(peer_chip)).alive;
  }
  /// Peers currently considered dead, ascending.
  [[nodiscard]] std::vector<int> dead_peers() const;

  // ---- diagnostics -------------------------------------------------------------

  /// The precondition report produced by load() (one line per check).
  [[nodiscard]] const std::vector<std::string>& probe_log() const { return probe_log_; }

 private:
  [[nodiscard]] bool same_supernode(int other_chip) const;
  [[nodiscard]] sim::Task<void> keepalive_process();

  firmware::Machine& machine_;
  int chip_;
  std::uint64_t shared_bytes_ = 4_MiB;
  PollModel poll_model_ = PollModel::kElided;
  bool loaded_ = false;
  std::vector<std::string> probe_log_;

  bool hung_ = false;
  bool ka_running_ = false;
  bool ka_stop_ = false;
  sim::TimerHandle ka_sleep_;  ///< armed while the beat loop sleeps
  Picoseconds ka_interval_{};
  Picoseconds ka_timeout_{};
  std::uint64_t ka_beat_ = 0;
  std::vector<PeerHealth> peers_;  // indexed by chip; empty until started
  std::vector<int> ka_domain_;     // chips beaten/judged; see start_keepalive()
  std::function<void(int, bool)> verdict_cb_;  // liveness edges; may be empty
};

}  // namespace tcc::cluster
