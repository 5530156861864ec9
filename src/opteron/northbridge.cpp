#include "opteron/northbridge.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"
#include "telemetry/metrics.hpp"

namespace tcc::opteron {

#if TCC_TELEMETRY_ENABLED
namespace {

/// Cumulative address-map counters across every northbridge in the process
/// (see docs/OBSERVABILITY.md for the catalogue).
struct NbMetrics {
  telemetry::Counter& route_lookups = telemetry::MetricsRegistry::global().counter(
      "opteron.nb.route_lookups");
  telemetry::Counter& dram_hits =
      telemetry::MetricsRegistry::global().counter("opteron.nb.dram_hits");
  telemetry::Counter& mmio_hits =
      telemetry::MetricsRegistry::global().counter("opteron.nb.mmio_hits");
  telemetry::Counter& master_aborts = telemetry::MetricsRegistry::global().counter(
      "opteron.nb.master_aborts");
  telemetry::Counter& forwarded = telemetry::MetricsRegistry::global().counter(
      "opteron.nb.requests_forwarded");
  telemetry::Counter& sunk =
      telemetry::MetricsRegistry::global().counter("opteron.nb.requests_sunk");
  telemetry::Counter& adaptive_escapes = telemetry::MetricsRegistry::global().counter(
      "opteron.nb.adaptive_escapes");

  NbMetrics() {
    // A replayed poll's local DRAM read counts as one lookup and one hit.
    route_lookups.set_deferred(&ElidedLoads::pending_lookups);
    dram_hits.set_deferred(&ElidedLoads::pending_lookups);
  }
};

NbMetrics& nb_metrics() {
  static NbMetrics m;
  return m;
}

}  // namespace
#endif  // TCC_TELEMETRY_ENABLED

namespace {

std::vector<const ElidedLoads*>& elided_sources() {
  static std::vector<const ElidedLoads*> sources;
  return sources;
}

}  // namespace

ElidedLoads::ElidedLoads() { elided_sources().push_back(this); }

ElidedLoads::~ElidedLoads() { std::erase(elided_sources(), this); }

std::uint64_t ElidedLoads::pending_lookups() {
  std::uint64_t n = 0;
  for (const ElidedLoads* s : elided_sources()) n += s->lookups_due();
  return n;
}

Northbridge::Northbridge(sim::Engine& engine, std::string name, MemoryController& mc,
                         int outbound_depth)
    : engine_(engine),
      name_(std::move(name)),
      mc_(mc),
      outbound_depth_(outbound_depth),
      tag_freed_(std::make_unique<sim::Trigger>(engine)) {
  ingress_.resize(kMaxLinks);
  outbound_.resize(kMaxLinks);
  for (auto& p : pending_) {
    p = std::make_unique<PendingRead>();
    p->ready = std::make_unique<sim::Trigger>(engine_);
  }
}

void Northbridge::attach_link(int index, ht::HtEndpoint& endpoint) {
  TCC_ASSERT(index >= 0 && index < kMaxLinks, "link index out of range");
  TCC_ASSERT(links_[static_cast<std::size_t>(index)] == nullptr,
             "link port already attached");
  links_[static_cast<std::size_t>(index)] = &endpoint;
  outbound_[static_cast<std::size_t>(index)] = std::make_unique<sim::BoundedChannel<ht::Packet>>(
      engine_, static_cast<std::size_t>(outbound_depth_));
  engine_.spawn(ingress_process(index));
  engine_.spawn(egress_process(index));
}

Northbridge::Route Northbridge::route_request(PhysAddr addr) const {
  TCC_METRIC(nb_metrics().route_lookups.inc());
  // Stage 1: DRAM base/limit -> home NodeID (§IV.C).
  if (const DramRangeReg* d = regs_.dram_lookup(addr)) {
    TCC_METRIC(nb_metrics().dram_hits.inc());
    if (is_local(*d)) return Route{Route::Kind::kLocalMemory, -1, true};
    const RouteReg& r = regs_.routes.at(static_cast<std::size_t>(d->dst_node));
    return Route{Route::Kind::kLink, r.request_link, true};
  }
  // Stage 2: MMIO base/limit -> egress link directly.
  if (const MmioRangeReg* m = regs_.mmio_lookup(addr)) {
    TCC_METRIC(nb_metrics().mmio_hits.inc());
    return Route{Route::Kind::kLink, m->dst_link, m->non_posted_allowed};
  }
  return Route{Route::Kind::kMasterAbort, -1, false};
}

bool Northbridge::is_local(const DramRangeReg& d) const {
  return d.dst_node == regs_.node_id ||
         regs_.routes.at(static_cast<std::size_t>(d.dst_node)).request_link ==
             RouteReg::kSelf;
}

bool Northbridge::reads_local_dram(PhysAddr addr) const {
  const DramRangeReg* d = regs_.dram_lookup(addr);
  return d != nullptr && is_local(*d);
}

void Northbridge::charge_local_reads(std::uint64_t n) {
  TCC_METRIC(nb_metrics().route_lookups.inc(n));
  TCC_METRIC(nb_metrics().dram_hits.inc(n));
  mc_.charge_reads(n);
}

sim::Task<Status> Northbridge::core_posted_write(ht::Packet packet) {
  // Posted writes are fire-and-forget: the address-map lookup is pipelined
  // inside the northbridge and must not stall the issuing core (it is
  // charged on the egress/local-sink path instead). The core only blocks
  // here when the outbound queue is full — that is the real backpressure.
  packet.src.node = static_cast<std::uint8_t>(regs_.node_id);
  co_return co_await dispatch(route_request(packet.address), std::move(packet),
                              Ingress{Ingress::Kind::kCore, -1});
}

sim::Task<Status> Northbridge::core_broadcast() {
  co_await engine_.delay(kNbLookup);
  ++irqs_;  // delivered locally as well
  for (int i = 0; i < kMaxLinks; ++i) {
    const bool is_tcc = (regs_.tccluster_links >> i) & 1u;
    const bool masked = (regs_.broadcast_forward_mask >> i) & 1u;
    if (links_[static_cast<std::size_t>(i)] == nullptr || !masked) continue;
    if (regs_.tccluster_mode && is_tcc && regs_.suppress_remote_broadcasts) {
      ++regs_.dropped_broadcasts;
      continue;
    }
    ht::Packet b = ht::Packet::broadcast(PhysAddr{0},
                                         {static_cast<std::uint8_t>(regs_.node_id), 0, 0});
    b.coherent = links_[static_cast<std::size_t>(i)]->regs().kind == ht::LinkKind::kCoherent;
    co_await outbound_[static_cast<std::size_t>(i)]->push(std::move(b));
  }
  co_return Status{};
}

sim::Task<Status> Northbridge::dispatch(Route route, ht::Packet packet, Ingress from) {
  switch (route.kind) {
    case Route::Kind::kLocalMemory: {
      TCC_ASSERT(packet.command == ht::Command::kSizedWritePosted,
                 "dispatch(kLocalMemory) only handles posted writes here");
      ++sunk_;
      TCC_METRIC(nb_metrics().sunk.inc());
      if (from.kind == Ingress::Kind::kLink &&
          links_[static_cast<std::size_t>(from.link)]->regs().kind ==
              ht::LinkKind::kNonCoherent) {
        ++regs_.io_bridge_conversions;  // ncHT -> cHT on the way to DRAM
      }
      if (from.kind == Ingress::Kind::kCore) {
        // Core-side sink: the lookup/crossbar traversal happens inside the
        // northbridge pipeline, off the core's critical path.
        engine_.schedule(kNbLookup, [this, p = std::move(packet)] {
          mc_.post_write(p.address, p.data);
        });
      } else {
        mc_.post_write(packet.address, packet.data);
      }
      co_return Status{};
    }
    case Route::Kind::kLink: {
      // Opt-in adaptive escape (firmware programs the table only when the
      // plan was built with adaptive_routing): a posted write whose primary
      // egress queue would block may take the planner-approved alternate.
      // Both ports are minimal for the address, so escaping never lengthens
      // the path — congestion picks between shortest paths, nothing more.
      if (packet.command == ht::Command::kSizedWritePosted) {
        if (const AdaptiveRouteReg* ar = regs_.adaptive_lookup(packet.address)) {
          const int alt = ar->alt_link;
          if (ar->primary_link == route.link && alt != route.link &&
              alt >= 0 && alt < kMaxLinks &&
              links_[static_cast<std::size_t>(alt)] != nullptr &&
              !(from.kind == Ingress::Kind::kLink && alt == from.link) &&
              outbound_[static_cast<std::size_t>(route.link)]->full() &&
              !outbound_[static_cast<std::size_t>(alt)]->full()) {
            route.link = alt;
            ++adaptive_escapes_;
            TCC_METRIC(nb_metrics().adaptive_escapes.inc());
          }
        }
      }
      if (from.kind == Ingress::Kind::kLink && route.link == from.link) {
        ++regs_.master_aborts;
        TCC_METRIC(nb_metrics().master_aborts.inc());
        co_return make_error(ErrorCode::kConfigConflict,
                             name_ + ": routing loop, egress == ingress link");
      }
      ht::HtEndpoint* ep = links_[static_cast<std::size_t>(route.link)];
      if (ep == nullptr) {
        ++regs_.master_aborts;
        TCC_METRIC(nb_metrics().master_aborts.inc());
        co_return make_error(ErrorCode::kConfigConflict,
                             name_ + ": route names an unattached link");
      }
      const bool egress_coherent = ep->regs().kind == ht::LinkKind::kCoherent;
      if (packet.coherent != egress_coherent) {
        ++regs_.io_bridge_conversions;  // the IO bridge reframes the packet
        packet.coherent = egress_coherent;
      }
      if (from.kind == Ingress::Kind::kLink) {
        ++forwarded_;
        TCC_METRIC(nb_metrics().forwarded.inc());
      }
      co_await outbound_[static_cast<std::size_t>(route.link)]->push(std::move(packet));
      co_return Status{};
    }
    case Route::Kind::kMasterAbort:
    default:
      ++regs_.master_aborts;
      TCC_METRIC(nb_metrics().master_aborts.inc());
      co_return make_error(ErrorCode::kOutOfRange,
                           name_ + ": address matches no DRAM or MMIO range");
  }
}

sim::Task<Result<std::vector<std::uint8_t>>> Northbridge::core_read(PhysAddr addr,
                                                                    std::uint32_t size) {
  co_await engine_.delay(kNbLookup);
  const Route route = route_request(addr);
  switch (route.kind) {
    case Route::Kind::kLocalMemory: {
      std::vector<std::uint8_t> out(size);
      co_await mc_.timed_read(addr, out);
      co_return out;
    }
    case Route::Kind::kLink: {
      const bool is_tcc = (regs_.tccluster_links >> route.link) & 1u;
      if (is_tcc) {
        // §IV.A: responses cannot be routed across a TCCluster fabric; the
        // driver forbids loads from remote apertures.
        co_return make_error(ErrorCode::kUnsupported,
                             name_ + ": load from TCCluster aperture (write-only network)");
      }
      if (!route.non_posted_allowed) {
        co_return make_error(ErrorCode::kUnsupported,
                             name_ + ": non-posted requests disabled for this MMIO range");
      }
      const int tag = co_await alloc_tag();
      ht::Packet rd = ht::Packet::sized_read(
          addr, size,
          {static_cast<std::uint8_t>(regs_.node_id), 0, static_cast<std::uint8_t>(tag)});
      rd.coherent =
          links_[static_cast<std::size_t>(route.link)]->regs().kind == ht::LinkKind::kCoherent;
      co_await outbound_[static_cast<std::size_t>(route.link)]->push(std::move(rd));
      PendingRead& p = *pending_[static_cast<std::size_t>(tag)];
      while (!p.done) {
        co_await p.ready->wait();
      }
      std::vector<std::uint8_t> data = std::move(p.data);
      free_tag(tag);
      co_return data;
    }
    case Route::Kind::kMasterAbort:
    default:
      ++regs_.master_aborts;
      TCC_METRIC(nb_metrics().master_aborts.inc());
      co_return make_error(ErrorCode::kOutOfRange,
                           name_ + ": read matches no DRAM or MMIO range");
  }
}

sim::Task<void> Northbridge::drain_outbound() {
  for (auto& q : outbound_) {
    if (q) co_await q->wait_empty();
  }
}

sim::Task<void> Northbridge::ingress_process(int link_index) {
  ht::HtEndpoint& ep = *links_[static_cast<std::size_t>(link_index)];
  for (;;) {
    ht::Packet p = co_await ep.receive();
    co_await engine_.delay(kNbLookup);
    co_await handle_ingress(link_index, std::move(p));
  }
}

sim::Task<void> Northbridge::handle_ingress(int link_index, ht::Packet packet) {
  const bool ingress_is_tcc = (regs_.tccluster_links >> link_index) & 1u;

  if (packet.is_response()) {
    if (packet.src.node == regs_.node_id) {
      PendingRead& p = *pending_[packet.src.tag];
      p.data = std::move(packet.data);
      p.done = true;
      p.ready->notify();
      co_return;
    }
    // Response for another node: forward along the response route.
    const RouteReg& r = regs_.routes.at(packet.src.node % kMaxCoherentNodes);
    if (r.response_link == RouteReg::kSelf ||
        links_[static_cast<std::size_t>(r.response_link)] == nullptr) {
      ++regs_.master_aborts;  // unroutable response — the §IV.A failure
      TCC_METRIC(nb_metrics().master_aborts.inc());
      co_return;
    }
    ++forwarded_;
    TCC_METRIC(nb_metrics().forwarded.inc());
    co_await outbound_[static_cast<std::size_t>(r.response_link)]->push(std::move(packet));
    co_return;
  }

  if (packet.command == ht::Command::kBroadcast) {
    ++irqs_;
    for (int i = 0; i < kMaxLinks; ++i) {
      if (i == link_index || links_[static_cast<std::size_t>(i)] == nullptr) continue;
      if (((regs_.broadcast_forward_mask >> i) & 1u) == 0) continue;
      const bool is_tcc = (regs_.tccluster_links >> i) & 1u;
      if (regs_.tccluster_mode && is_tcc && regs_.suppress_remote_broadcasts) {
        ++regs_.dropped_broadcasts;
        continue;
      }
      ht::Packet copy = packet;
      co_await outbound_[static_cast<std::size_t>(i)]->push(std::move(copy));
    }
    co_return;
  }

  if (packet.command == ht::Command::kSizedRead ||
      packet.command == ht::Command::kFlush ||
      packet.command == ht::Command::kSizedWriteNonPosted) {
    const Route route = route_request(packet.address);
    if (route.kind == Route::Kind::kLocalMemory) {
      if (regs_.tccluster_mode && ingress_is_tcc) {
        // No way to route the response back (every TCCluster node claims
        // NodeID 0): the request is dropped and counted. §IV.A.
        ++regs_.dropped_reads;
        co_return;
      }
      ht::HtEndpoint& back = *links_[static_cast<std::size_t>(link_index)];
      if (packet.command == ht::Command::kSizedRead) {
        std::vector<std::uint8_t> data(packet.size);
        co_await mc_.timed_read(packet.address, data);
        ht::Packet resp = ht::Packet::read_response(packet.src, data);
        resp.coherent = back.regs().kind == ht::LinkKind::kCoherent;
        co_await back.send_blocking(std::move(resp));
      } else {
        if (packet.command == ht::Command::kSizedWriteNonPosted) {
          mc_.post_write(packet.address, packet.data);
          ++sunk_;
          TCC_METRIC(nb_metrics().sunk.inc());
        }
        ht::Packet resp = ht::Packet::target_done(packet.src);
        resp.coherent = back.regs().kind == ht::LinkKind::kCoherent;
        co_await back.send_blocking(std::move(resp));
      }
      co_return;
    }
    Status s = co_await dispatch(route, std::move(packet),
                                 Ingress{Ingress::Kind::kLink, link_index});
    if (!s.ok()) {
      TCC_DEBUG("nb", "%s: dropped non-posted request: %s", name_.c_str(),
                s.error().to_string().c_str());
    }
    co_return;
  }

  // Posted write.
  Status s = co_await dispatch(route_request(packet.address), std::move(packet),
                               Ingress{Ingress::Kind::kLink, link_index});
  if (!s.ok()) {
    TCC_DEBUG("nb", "%s: dropped posted write: %s", name_.c_str(),
              s.error().to_string().c_str());
  }
}

sim::Task<void> Northbridge::egress_process(int link_index) {
  sim::BoundedChannel<ht::Packet>& q = *outbound_[static_cast<std::size_t>(link_index)];
  ht::HtEndpoint& ep = *links_[static_cast<std::size_t>(link_index)];
  for (;;) {
    ht::Packet p = co_await q.pop();
    co_await engine_.delay(kNbTxOverhead);
    Status s = co_await ep.send_blocking(std::move(p));
    if (!s.ok()) {
      TCC_WARN("nb", "%s: egress send failed on link %d: %s", name_.c_str(), link_index,
               s.error().to_string().c_str());
    }
  }
}

sim::Task<int> Northbridge::alloc_tag() {
  while (free_tags_ == 0) {
    co_await tag_freed_->wait();
  }
  for (int i = 0; i < kResponseTags; ++i) {
    if (!pending_[static_cast<std::size_t>(i)]->done &&
        pending_[static_cast<std::size_t>(i)]->in_use == false) {
      pending_[static_cast<std::size_t>(i)]->in_use = true;
      --free_tags_;
      co_return i;
    }
  }
  TCC_ASSERT(false, "tag accounting out of sync");
  co_return -1;
}

void Northbridge::free_tag(int tag) {
  PendingRead& p = *pending_[static_cast<std::size_t>(tag)];
  p.in_use = false;
  p.done = false;
  p.data.clear();
  ++free_tags_;
  tag_freed_->notify();
}

}  // namespace tcc::opteron
