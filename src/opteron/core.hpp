// A simulated Opteron core: the execution context simulated software (the
// firmware, the message library, benchmark kernels) runs on.
//
// The core dispatches memory operations according to the MTRR type of the
// target — write-back (cacheable local memory), write-combining (the
// TCCluster remote aperture), or uncacheable (receive rings, device MMIO) —
// which is exactly the distinction the paper's driver sets up (§V/§VI).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "opteron/mtrr.hpp"
#include "opteron/northbridge.hpp"
#include "opteron/timing.hpp"
#include "opteron/write_combine.hpp"
#include "sim/engine.hpp"

namespace tcc::opteron {

class Core {
 public:
  Core(sim::Engine& engine, std::string name, Northbridge& nb);

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] MtrrFile& mtrr() { return mtrr_; }
  [[nodiscard]] const MtrrFile& mtrr() const { return mtrr_; }
  [[nodiscard]] WriteCombiningUnit& wc() { return wc_; }
  [[nodiscard]] Northbridge& northbridge() { return nb_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }

  /// Current simulated time (for benchmark kernels).
  [[nodiscard]] Picoseconds now() const { return engine_.now(); }

  /// Burn compute time.
  [[nodiscard]] sim::DelayAwaiter compute(Picoseconds d) { return engine_.delay(d); }

  // ---- memory operations -------------------------------------------------

  /// Store up to 8 bytes (one machine store). Dispatch path depends on the
  /// MTRR type of `addr`.
  [[nodiscard]] sim::Task<Status> store(PhysAddr addr, std::span<const std::uint8_t> bytes);

  /// Store an arbitrary buffer as a sequence of aligned 8-byte stores —
  /// what memcpy-to-aperture compiles to in the paper's message library.
  [[nodiscard]] sim::Task<Status> store_bytes(PhysAddr addr,
                                              std::span<const std::uint8_t> bytes);

  [[nodiscard]] sim::Task<Status> store_u64(PhysAddr addr, std::uint64_t value);

  /// Load up to 8 bytes. Loads from WC/TCCluster apertures are rejected —
  /// the network is write-only (§IV.A).
  [[nodiscard]] sim::Task<Result<std::vector<std::uint8_t>>> load(PhysAddr addr,
                                                                  std::uint32_t size);

  [[nodiscard]] sim::Task<Result<std::uint64_t>> load_u64(PhysAddr addr);

  /// Issue-to-sample latency of a load that reads_local_dram(): the DRAM
  /// word is sampled this long after the load instruction issues.
  static constexpr Picoseconds kLocalDramLoad = kLoadIssue + kNbLookup + kMemReadLatency;

  /// True if a load of `addr` is uncached and served by this node's memory
  /// controller. Such a load is a pure kLocalDramLoad delay followed by a
  /// sample of the word — no queue or unit is occupied on the way — so a
  /// poll loop on it can be replayed analytically (tcmsg poll elision).
  [[nodiscard]] bool reads_local_dram(PhysAddr addr) const;

  /// Account `n` such loads that were replayed rather than simulated: the
  /// core, northbridge and memory-controller counters see them as issued.
  void charge_elided_loads(std::uint64_t n);

  /// Load an arbitrary buffer (sequence of 8-byte loads).
  [[nodiscard]] sim::Task<Status> load_bytes(PhysAddr addr, std::span<std::uint8_t> out);

  /// Sfence: drain the WC buffers, wait for the northbridge outbound queues
  /// to accept everything, and pay the pipeline serialization cost. After
  /// completion all prior stores are ordered ahead of all later stores in
  /// the posted channel (§IV.A / §VI).
  [[nodiscard]] sim::Task<Status> sfence();

  // ---- statistics ----------------------------------------------------------

  [[nodiscard]] std::uint64_t stores() const { return stores_; }
  [[nodiscard]] std::uint64_t loads() const { return loads_; }
  [[nodiscard]] std::uint64_t sfences() const { return sfences_; }

 private:
  sim::Engine& engine_;
  std::string name_;
  Northbridge& nb_;
  MtrrFile mtrr_;
  WriteCombiningUnit wc_;

  std::uint64_t stores_ = 0;
  std::uint64_t loads_ = 0;
  std::uint64_t sfences_ = 0;
};

}  // namespace tcc::opteron
