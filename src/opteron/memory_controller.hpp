// DDR2 memory controller with sparse backing storage.
//
// Holds the actual bytes of one node's DRAM so messages carry real data
// end-to-end through the simulated fabric. Timing: closed-page DDR2-800
// constants from opteron/timing.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "opteron/timing.hpp"
#include "sim/engine.hpp"

namespace tcc::opteron {

class MemoryController;

/// A write-watch over a byte range of one memory controller's DRAM.
/// on_write() runs inside the write that makes new bytes visible: a
/// post_write() landing (kMemWriteLatency after it was posted) or a poke(),
/// whenever the written range overlaps the watched one. A receiver parked on
/// a marker word uses it instead of re-reading the word in a loop. Disarming
/// (or destroying) a watch from inside its own callback is safe.
class WriteWatch {
 public:
  WriteWatch() = default;
  WriteWatch(const WriteWatch&) = delete;
  WriteWatch& operator=(const WriteWatch&) = delete;

  void arm(MemoryController& mc, PhysAddr addr, std::uint64_t bytes);
  void disarm();
  [[nodiscard]] bool armed() const { return mc_ != nullptr; }

 protected:
  ~WriteWatch() { disarm(); }
  virtual void on_write() = 0;

 private:
  friend class MemoryController;
  MemoryController* mc_ = nullptr;
  std::uint64_t lo_ = 0;  ///< watched [lo_, hi_) as absolute addresses
  std::uint64_t hi_ = 0;
};

class MemoryController {
 public:
  MemoryController(sim::Engine& engine, AddrRange dram_range)
      : engine_(engine), range_(dram_range) {}
  ~MemoryController();

  MemoryController(const MemoryController&) = delete;
  MemoryController& operator=(const MemoryController&) = delete;

  [[nodiscard]] const AddrRange& range() const { return range_; }

  /// Firmware Memory-Init stage: place this node's DIMMs into the physical
  /// address map. Discards any previous contents.
  void set_range(AddrRange range) {
    range_ = range;
    pages_.clear();
  }

  /// Accept a posted write: data becomes visible to reads after the DRAM
  /// write latency. (Models the MC write buffer + array write.)
  void post_write(PhysAddr addr, std::span<const std::uint8_t> data);

  /// Timed read: suspends for the DRAM read latency, then samples memory —
  /// so a write that lands during the access is observed, like a real
  /// just-in-time poll.
  [[nodiscard]] sim::Task<void> timed_read(PhysAddr addr, std::span<std::uint8_t> out);

  /// Zero-time peeks/pokes for test setup and checking (not timed).
  void poke(PhysAddr addr, std::span<const std::uint8_t> data) { write_raw(addr, data); }
  void peek(PhysAddr addr, std::span<std::uint8_t> out) const { read_raw(addr, out); }

  /// Account `n` uncacheable reads whose timing a caller reproduced without
  /// simulating them one by one (tcmsg poll elision).
  void charge_reads(std::uint64_t n) { reads_ += n; }

  [[nodiscard]] std::uint64_t writes() const { return writes_; }
  [[nodiscard]] std::uint64_t reads() const { return reads_; }
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  static constexpr std::uint64_t kPageSize = 4096;
  using Page = std::array<std::uint8_t, kPageSize>;

  void write_raw(PhysAddr addr, std::span<const std::uint8_t> data);
  void read_raw(PhysAddr addr, std::span<std::uint8_t> out) const;
  Page& page_for(std::uint64_t page_index);
  void notify_watches(std::uint64_t lo, std::uint64_t hi);

  friend class WriteWatch;
  sim::Engine& engine_;
  AddrRange range_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;
  std::uint64_t writes_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t bytes_written_ = 0;
  /// Armed watches in arming order (the order their callbacks run). A watch
  /// disarmed mid-notification leaves a null slot, swept afterwards.
  std::vector<WriteWatch*> watches_;
  bool notifying_ = false;
};

}  // namespace tcc::opteron
