#include "opteron/memory_controller.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/error.hpp"

namespace tcc::opteron {

void WriteWatch::arm(MemoryController& mc, PhysAddr addr, std::uint64_t bytes) {
  disarm();
  mc_ = &mc;
  lo_ = addr.value();
  hi_ = addr.value() + bytes;
  mc.watches_.push_back(this);
}

void WriteWatch::disarm() {
  if (mc_ == nullptr) return;
  auto& list = mc_->watches_;
  const auto it = std::find(list.begin(), list.end(), this);
  if (mc_->notifying_) {
    *it = nullptr;
  } else {
    list.erase(it);
  }
  mc_ = nullptr;
}

MemoryController::~MemoryController() {
  // A receiver coroutine parked on a watch may outlive its controller (the
  // engine destroys suspended frames last); leave it nothing to unlink.
  for (WriteWatch* w : watches_) {
    if (w != nullptr) w->mc_ = nullptr;
  }
}

void MemoryController::notify_watches(std::uint64_t lo, std::uint64_t hi) {
  // Watches armed by a callback wait for the next write; disarmed ones
  // become null slots so the indices stay valid.
  notifying_ = true;
  const std::size_t n = watches_.size();
  for (std::size_t i = 0; i < n; ++i) {
    WriteWatch* w = watches_[i];
    if (w != nullptr && w->lo_ < hi && lo < w->hi_) w->on_write();
  }
  notifying_ = false;
  std::erase(watches_, nullptr);
}

void MemoryController::post_write(PhysAddr addr, std::span<const std::uint8_t> data) {
  TCC_ASSERT(range_.contains(addr), "MC write outside its DRAM range");
  ++writes_;
  bytes_written_ += data.size();
  // Visibility after the array write completes.
  std::vector<std::uint8_t> copy(data.begin(), data.end());
  engine_.schedule(kMemWriteLatency, [this, addr, copy = std::move(copy)] {
    write_raw(addr, copy);
  });
}

sim::Task<void> MemoryController::timed_read(PhysAddr addr, std::span<std::uint8_t> out) {
  TCC_ASSERT(range_.contains(addr), "MC read outside its DRAM range");
  ++reads_;
  co_await engine_.delay(kMemReadLatency);
  read_raw(addr, out);
}

void MemoryController::write_raw(PhysAddr addr, std::span<const std::uint8_t> data) {
  std::uint64_t off = addr - range_.base;
  std::size_t done = 0;
  while (done < data.size()) {
    const std::uint64_t page_index = (off + done) / kPageSize;
    const std::uint64_t in_page = (off + done) % kPageSize;
    const std::size_t chunk =
        std::min<std::size_t>(data.size() - done, kPageSize - in_page);
    std::memcpy(page_for(page_index).data() + in_page, data.data() + done, chunk);
    done += chunk;
  }
  if (!watches_.empty()) notify_watches(addr.value(), addr.value() + data.size());
}

void MemoryController::read_raw(PhysAddr addr, std::span<std::uint8_t> out) const {
  std::uint64_t off = addr - range_.base;
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t page_index = (off + done) / kPageSize;
    const std::uint64_t in_page = (off + done) % kPageSize;
    const std::size_t chunk =
        std::min<std::size_t>(out.size() - done, kPageSize - in_page);
    auto it = pages_.find(page_index);
    if (it == pages_.end()) {
      std::memset(out.data() + done, 0, chunk);  // untouched DRAM reads as zero
    } else {
      std::memcpy(out.data() + done, it->second->data() + in_page, chunk);
    }
    done += chunk;
  }
}

MemoryController::Page& MemoryController::page_for(std::uint64_t page_index) {
  auto& slot = pages_[page_index];
  if (!slot) {
    slot = std::make_unique<Page>();
    slot->fill(0);
  }
  return *slot;
}

}  // namespace tcc::opteron
