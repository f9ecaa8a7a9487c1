// Shared helpers for the bench binaries: a uniform print format so
// EXPERIMENTS.md can quote bench output directly. The paper's figures and
// tables run through `knl-repro run --only <id>`; these binaries hold the
// ablations and extensions the registry does not carry.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "report/figure.hpp"

namespace knl::bench {

/// Decimal GB helper matching the paper's axis labels.
constexpr std::uint64_t gb(double x) { return static_cast<std::uint64_t>(x * 1e9); }

/// Print a figure with a header naming the experiment and the paper's
/// expectation for its shape.
inline void print_figure(const std::string& experiment, const std::string& expectation,
                         const report::Figure& figure) {
  std::printf("==== %s ====\n", experiment.c_str());
  std::printf("paper shape: %s\n\n", expectation.c_str());
  std::printf("%s\n", figure.to_table().c_str());
}

}  // namespace knl::bench
