#include "workloads/registry.hpp"

#include <stdexcept>

#include "core/types.hpp"
#include "workloads/dgemm.hpp"
#include "workloads/graph500.hpp"
#include "workloads/gups.hpp"
#include "workloads/latency_probe.hpp"
#include "workloads/minife.hpp"
#include "workloads/stream.hpp"
#include "workloads/xsbench.hpp"

namespace knl::workloads {

const std::vector<RegistryEntry>& registry() {
  static const std::vector<RegistryEntry> kRegistry = [] {
    std::vector<RegistryEntry> r;
    r.push_back({Dgemm(1024).info(), [](std::uint64_t b) -> std::unique_ptr<Workload> {
                   return std::make_unique<Dgemm>(Dgemm::from_footprint(b));
                 }});
    r.push_back({MiniFe(16).info(), [](std::uint64_t b) -> std::unique_ptr<Workload> {
                   return std::make_unique<MiniFe>(MiniFe::from_footprint(b));
                 }});
    r.push_back({Gups(1 << 20).info(), [](std::uint64_t b) -> std::unique_ptr<Workload> {
                   return std::make_unique<Gups>(Gups::from_footprint(b));
                 }});
    r.push_back({Graph500(8).info(), [](std::uint64_t b) -> std::unique_ptr<Workload> {
                   return std::make_unique<Graph500>(Graph500::from_footprint(b));
                 }});
    r.push_back({XsBench(100).info(), [](std::uint64_t b) -> std::unique_ptr<Workload> {
                   return std::make_unique<XsBench>(XsBench::from_footprint(b));
                 }});
    r.push_back({StreamTriad(1 << 20).info(), [](std::uint64_t b) -> std::unique_ptr<Workload> {
                   return std::make_unique<StreamTriad>(b);
                 }});
    r.push_back({LatencyProbe(1 << 20).info(), [](std::uint64_t b) -> std::unique_ptr<Workload> {
                   return std::make_unique<LatencyProbe>(b);
                 }});
    return r;
  }();
  return kRegistry;
}

const RegistryEntry& find_workload(const std::string& name) {
  for (const auto& entry : registry()) {
    if (entry.info.name == name) return entry;
  }
  throw std::invalid_argument("find_workload: unknown workload '" + name + "'");
}

}  // namespace knl::workloads
