#include "tccluster/cluster.hpp"

namespace tcc::cluster {

Result<std::unique_ptr<TcCluster>> TcCluster::create(Options options) {
  auto plan = topology::ClusterPlan::build(options.topology);
  if (!plan.ok()) return plan.error();
  // Not make_unique: the constructor is private.
  return std::unique_ptr<TcCluster>(
      new TcCluster(std::move(options), std::move(plan.value())));
}

TcCluster::TcCluster(Options options, topology::ClusterPlan plan)
    : options_(std::move(options)), engine_(options_.scheduler) {
  opteron::ChipConfig chip_template;
  chip_template.nb_outbound_depth = options_.nb_outbound_depth;
  machine_ = std::make_unique<firmware::Machine>(engine_, std::move(plan), chip_template);
  boot_ = std::make_unique<firmware::BootSequencer>(*machine_, options_.boot);
}

void TcCluster::enable_tracing(std::size_t max_records) {
  if (!tracers_.empty()) return;
  tracers_.reserve(static_cast<std::size_t>(machine_->num_links()));
  for (int i = 0; i < machine_->num_links(); ++i) {
    auto tracer = std::make_unique<ht::LinkTracer>();
    tracer->set_max_records(max_records);
    machine_->link(i).set_tracer(tracer.get());
    tracers_.push_back(std::move(tracer));
  }
}

Status TcCluster::boot() {
  if (booted_) {
    return make_error(ErrorCode::kFailedPrecondition, "cluster already booted");
  }
  if (Status s = boot_->run(); !s.ok()) return s;

  drivers_.clear();
  libraries_.clear();
  rel_libraries_.clear();
  for (int c = 0; c < machine_->num_chips(); ++c) {
    auto driver = std::make_unique<TcDriver>(*machine_, c);
    driver->set_shared_bytes(options_.shared_bytes);
    driver->set_poll_model(options_.poll_model);
    if (Status s = driver->load(); !s.ok()) return s;
    libraries_.push_back(
        std::make_unique<MsgLibrary>(*driver, machine_->chip(c).core(0)));
    rel_libraries_.push_back(std::make_unique<ReliableLibrary>(
        *driver, machine_->chip(c).core(0), options_.rel));
    drivers_.push_back(std::move(driver));
  }
  booted_ = true;
  for (const FaultEvent& ev : options_.faults) {
    if (Status s = inject(ev); !s.ok()) return s;
  }
  return {};
}

Status TcCluster::inject(const FaultEvent& fault) {
  if (!booted_) {
    return make_error(ErrorCode::kFailedPrecondition,
                      "fault injection needs a booted cluster");
  }
  if (!injector_) injector_ = std::make_unique<FaultInjector>(*this);
  return injector_->schedule(fault);
}

Status TcCluster::reroute_around_failed_links(topology::RouteAroundPolicy policy) {
  std::vector<std::size_t> failed;
  for (int i = 0; i < machine_->num_links(); ++i) {
    if (!machine_->link(i).up()) failed.push_back(static_cast<std::size_t>(i));
  }
  if (failed.empty()) return {};
  auto degraded = plan().route_around(failed, policy);
  if (!degraded.ok()) return degraded.error();
  return machine_->apply_routing(degraded.value());
}

void TcCluster::start_keepalives(Picoseconds interval, Picoseconds timeout) {
  for (auto& d : drivers_) d->start_keepalive(interval, timeout);
}

void TcCluster::stop_keepalives() {
  for (auto& d : drivers_) d->stop_keepalive();
}

int TcCluster::add_diag_section(std::function<std::string()> section) {
  const int id = next_diag_section_id_++;
  diag_sections_[id] = std::move(section);
  return id;
}

void TcCluster::remove_diag_section(int id) { diag_sections_.erase(id); }

std::string TcCluster::diag_sections() const {
  std::string out;
  for (const auto& [id, fn] : diag_sections_) out += fn();
  return out;
}

}  // namespace tcc::cluster
