// Workload registry: factory + the Table I inventory.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "workloads/workload.hpp"

namespace knl::workloads {

struct RegistryEntry {
  WorkloadInfo info;
  /// Build an instance whose footprint is ~`bytes`.
  std::function<std::unique_ptr<Workload>(std::uint64_t bytes)> make;
};

/// All applications of the paper's evaluation (Table I order), plus the two
/// micro-benchmarks.
[[nodiscard]] const std::vector<RegistryEntry>& registry();

/// Lookup by name (case-sensitive, e.g. "GUPS"). Throws if unknown.
[[nodiscard]] const RegistryEntry& find_workload(const std::string& name);

}  // namespace knl::workloads
