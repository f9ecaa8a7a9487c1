// Tests for AccessPhase validation and helpers.
#include "trace/access_phase.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace knl::trace {
namespace {

AccessPhase valid_phase() {
  AccessPhase p;
  p.name = "p";
  p.pattern = Pattern::Sequential;
  p.footprint_bytes = 1024;
  p.logical_bytes = 4096;
  return p;
}

TEST(AccessPhase, ValidPhasePasses) { EXPECT_NO_THROW(valid_phase().validate()); }

TEST(AccessPhase, AccessesDividesByGranule) {
  AccessPhase p = valid_phase();
  p.granule_bytes = 8;
  EXPECT_DOUBLE_EQ(p.accesses(), 512.0);
  p.granule_bytes = 0;  // degenerate: no crash
  EXPECT_DOUBLE_EQ(p.accesses(), 0.0);
}

TEST(AccessPhase, PatternNames) {
  EXPECT_EQ(to_string(Pattern::Sequential), "sequential");
  EXPECT_EQ(to_string(Pattern::Strided), "strided");
  EXPECT_EQ(to_string(Pattern::Random), "random");
  EXPECT_EQ(to_string(Pattern::PointerChase), "pointer-chase");
  EXPECT_EQ(to_string(Pattern::Compute), "compute");
}

// The field a case breaks. 64 bits wide so BadPhaseCase has no padding: gtest
// prints an unprintable parameter byte for byte into the test's name, so
// every byte must be fixed. (A label and a mutator function would put pointer
// bytes there, which move whenever the binary's layout does.)
enum class Field : std::uint64_t {
  Footprint,
  LogicalBytes,
  Flops,
  Granule,
  Sweeps,
  WriteFraction,
  StrideBytes,
  Chains,
  ComputeEfficiency,
  L2HitOverride,
  SmtBeta,
};

struct BadPhaseCase {
  Field field;
  double value;
};

void apply(const BadPhaseCase& c, AccessPhase& p) {
  switch (c.field) {
    case Field::Footprint: p.footprint_bytes = static_cast<std::uint64_t>(c.value); break;
    case Field::LogicalBytes: p.logical_bytes = c.value; break;
    case Field::Flops: p.flops = c.value; break;
    case Field::Granule: p.granule_bytes = static_cast<std::uint64_t>(c.value); break;
    case Field::Sweeps: p.sweeps = c.value; break;
    case Field::WriteFraction: p.write_fraction = c.value; break;
    case Field::StrideBytes:
      p.pattern = Pattern::Strided;
      p.stride_bytes = c.value;
      break;
    case Field::Chains:
      p.pattern = Pattern::PointerChase;
      p.chains_per_thread = static_cast<int>(c.value);
      break;
    case Field::ComputeEfficiency: p.compute_efficiency = c.value; break;
    case Field::L2HitOverride: p.l2_hit_override = c.value; break;
    case Field::SmtBeta: p.smt_beta = c.value; break;
  }
}

std::string label(const BadPhaseCase& c) {
  switch (c.field) {
    case Field::Footprint: return "zero_footprint";
    case Field::LogicalBytes: return "no_traffic";
    case Field::Flops: return "negative_flops";
    case Field::Granule: return "zero_granule";
    case Field::Sweeps: return "sweeps_below_one";
    case Field::WriteFraction:
      return c.value > 1.0 ? "write_fraction_above_one" : "negative_write_fraction";
    case Field::StrideBytes: return "strided_without_stride";
    case Field::Chains: return "chase_without_chains";
    case Field::ComputeEfficiency: return "compute_efficiency_zero";
    case Field::L2HitOverride: return "l2_override_above_one";
    case Field::SmtBeta: return "negative_smt_beta";
  }
  return "unknown";
}

class AccessPhaseValidation : public ::testing::TestWithParam<BadPhaseCase> {};

TEST_P(AccessPhaseValidation, RejectsInvalidField) {
  AccessPhase p = valid_phase();
  apply(GetParam(), p);
  EXPECT_THROW((void)p.validate(), std::invalid_argument) << label(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    BadFields, AccessPhaseValidation,
    ::testing::Values(BadPhaseCase{Field::Footprint, 0.0},
                      BadPhaseCase{Field::LogicalBytes, 0.0},
                      BadPhaseCase{Field::Flops, -1.0},
                      BadPhaseCase{Field::Granule, 0.0},
                      BadPhaseCase{Field::Sweeps, 0.5},
                      BadPhaseCase{Field::WriteFraction, 1.5},
                      BadPhaseCase{Field::WriteFraction, -0.1},
                      BadPhaseCase{Field::StrideBytes, 0.0},
                      BadPhaseCase{Field::Chains, 0.0},
                      BadPhaseCase{Field::ComputeEfficiency, 0.0},
                      BadPhaseCase{Field::L2HitOverride, 1.5},
                      BadPhaseCase{Field::SmtBeta, -0.1}),
    [](const ::testing::TestParamInfo<BadPhaseCase>& param_info) {
      return label(param_info.param);
    });

TEST(AccessPhase, ComputePhaseNeedsNoMemoryFields) {
  AccessPhase p;
  p.name = "flops";
  p.pattern = Pattern::Compute;
  p.flops = 1e9;
  EXPECT_NO_THROW(p.validate());
}

}  // namespace
}  // namespace knl::trace
