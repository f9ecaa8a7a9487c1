#include "sim/topology.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>

#include "core/fault/error.hpp"
#include "core/types.hpp"

namespace knl::sim {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void mix_bytes(std::uint64_t& h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

template <typename T>
void mix(std::uint64_t& h, T value) {
  mix_bytes(h, &value, sizeof(value));
}

void mix_string(std::uint64_t& h, const std::string& s) {
  const std::size_t n = s.size();
  mix(h, n);
  mix_bytes(h, s.data(), n);
}

/// Exact round-trip double formatting. Prefers the shortest *plain*
/// spelling (154, 130.4) over scientific notation so the machine files stay
/// human-readable. `to_chars(general, p)` is `%.*g` in the C locale, so the
/// output never depends on LC_NUMERIC.
std::string format_double(double v) {
  std::string exponent_form;
  for (int precision = 1; precision <= 17; ++precision) {
    char candidate[64];
    const auto printed = std::to_chars(candidate, candidate + sizeof(candidate), v,
                                       std::chars_format::general, precision);
    double back = 0.0;
    std::from_chars(candidate, printed.ptr, back);
    if (back != v) continue;
    const std::string text(candidate, printed.ptr);
    if (text.find('e') == std::string::npos) return text;
    if (exponent_form.empty()) exponent_form = text;
  }
  return exponent_form;
}

std::string trim(const std::string& s) {
  const std::size_t begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const std::size_t end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

[[noreturn]] void parse_fail(int line, const std::string& what) {
  throw Error::corrupt_input(
      "topology/parse", "machine file line " + std::to_string(line) + ": " + what);
}

/// A finite decimal spelling and nothing else: no hex, inf, nan or trailing
/// characters, and no dependence on the C locale.
double parse_double(const std::string& value, int line) {
  double parsed = 0.0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc() || ptr != end || !std::isfinite(parsed)) {
    parse_fail(line, "expected a finite decimal number, got '" + value + "'");
  }
  return parsed;
}

/// An exact integer: every character is part of the number.
template <typename Int>
Int parse_integer(const std::string& value, int line, const std::string& what) {
  Int parsed = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc() || ptr != end) {
    parse_fail(line, "expected an integer " + what + ", got '" + value + "'");
  }
  return parsed;
}

/// Byte counts are raw integers (kept exact) or decimals, with an optional
/// KiB/MiB/GiB/TiB suffix; either way a whole number of bytes below 2^64.
std::uint64_t parse_bytes(const std::string& value, int line) {
  const std::size_t split = value.find_first_not_of("0123456789.eE+-");
  const std::string number = value.substr(0, split);
  const std::string suffix = split == std::string::npos ? "" : trim(value.substr(split));
  std::uint64_t scale = 1;
  if (suffix == "KiB") {
    scale = KiB;
  } else if (suffix == "MiB") {
    scale = MiB;
  } else if (suffix == "GiB") {
    scale = GiB;
  } else if (suffix == "TiB") {
    scale = GiB * 1024;
  } else if (!suffix.empty()) {
    parse_fail(line, "unknown byte suffix '" + suffix + "' (KiB/MiB/GiB/TiB)");
  }
  if (number.find_first_not_of("0123456789") == std::string::npos) {
    const auto count = parse_integer<std::uint64_t>(number, line, "byte count");
    if (count <= std::numeric_limits<std::uint64_t>::max() / scale) return count * scale;
  } else {
    const double bytes = parse_double(number, line) * static_cast<double>(scale);
    if (bytes >= 0.0 && bytes < 0x1p64 && bytes == std::floor(bytes)) {
      return static_cast<std::uint64_t>(bytes);
    }
  }
  parse_fail(line, "byte count '" + value + "' is not a whole number of bytes below 2^64");
}

}  // namespace

std::string to_string(TierKind kind) {
  switch (kind) {
    case TierKind::HBM: return "hbm";
    case TierKind::DRAM: return "dram";
    case TierKind::NVM: return "nvm";
  }
  return "unknown";
}

double TierPlacement::fraction_in(int tier) const {
  const std::uint64_t total = total_bytes();
  if (!ok || total == 0) return 0.0;
  for (const TierShare& share : shares) {
    if (share.tier == tier) {
      return static_cast<double>(share.bytes) / static_cast<double>(total);
    }
  }
  return 0.0;
}

std::uint64_t TierPlacement::total_bytes() const {
  std::uint64_t total = 0;
  for (const TierShare& share : shares) total += share.bytes;
  return total;
}

void MemoryTopology::validate() const {
  if (tiers.empty()) {
    throw Error::corrupt_input("topology/empty",
                               "machine '" + name + "' declares no memory tiers");
  }
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const MemoryTier& t = tiers[i];
    const std::string where = "machine '" + name + "' tier " + std::to_string(i) +
                              " ('" + t.name + "')";
    if (t.name.empty()) {
      throw Error::corrupt_input("topology/duplicate-name", where + ": empty tier name");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (tiers[j].name == t.name) {
        throw Error::corrupt_input("topology/duplicate-name",
                                   where + ": name already used by tier " +
                                       std::to_string(j));
      }
    }
    if (t.params.capacity_bytes == 0) {
      throw Error::corrupt_input("topology/zero-capacity",
                                 where + ": tier capacity must be positive");
    }
    const auto positive = [](double x) { return std::isfinite(x) && x > 0.0; };
    if (!positive(t.params.peak_bw_gbs) || !positive(t.params.stream_bw_gbs) ||
        !positive(t.params.random_bw_gbs) || !positive(t.params.idle_latency_ns)) {
      throw Error::corrupt_input(
          "topology/bad-envelope",
          where + ": bandwidths and latency must be finite and positive");
    }
    if (t.controllers_end <= t.controllers_begin || t.controllers_begin < 0) {
      throw Error::corrupt_input(
          "topology/bad-range",
          where + ": controller range [" + std::to_string(t.controllers_begin) + ", " +
              std::to_string(t.controllers_end) + ") is empty or negative");
    }
    for (std::size_t j = 0; j < i; ++j) {
      const MemoryTier& other = tiers[j];
      const bool disjoint = t.controllers_end <= other.controllers_begin ||
                            other.controllers_end <= t.controllers_begin;
      if (!disjoint) {
        throw Error::corrupt_input(
            "topology/overlapping-ranges",
            where + ": controller range overlaps tier " + std::to_string(j) + " ('" +
                other.name + "')");
      }
    }
    if (t.backing == static_cast<int>(i) || t.backing < -1 ||
        t.backing >= static_cast<int>(tiers.size())) {
      throw Error::corrupt_input(
          "topology/bad-backing",
          where + ": backing index " + std::to_string(t.backing) +
              " is out of range or self-referential");
    }
    if (t.cache_front && t.backing == -1) {
      throw Error::corrupt_input(
          "topology/bad-cache-front",
          where + ": cache_front requires a backing tier to cache");
    }
  }
  // Cycle detection over the backing edges: each chain must terminate
  // within tier_count() hops.
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    int current = static_cast<int>(i);
    for (std::size_t hops = 0; hops <= tiers.size(); ++hops) {
      current = tiers[static_cast<std::size_t>(current)].backing;
      if (current == -1) break;
      if (current == static_cast<int>(i)) {
        throw Error::corrupt_input(
            "topology/backing-cycle",
            "machine '" + name + "': backing-store references form a cycle through "
            "tier " + std::to_string(i) + " ('" + tiers[i].name + "')");
      }
    }
  }
}

int MemoryTopology::find_tier(const std::string& tier_name) const {
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    if (tiers[i].name == tier_name) return static_cast<int>(i);
  }
  return -1;
}

int MemoryTopology::fast_tier() const {
  int best = 0;
  for (std::size_t i = 1; i < tiers.size(); ++i) {
    if (tiers[i].params.stream_bw_gbs >
        tiers[static_cast<std::size_t>(best)].params.stream_bw_gbs) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

int MemoryTopology::dram_tier() const {
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    if (tiers[i].kind == TierKind::DRAM) return static_cast<int>(i);
  }
  int best = 0;
  for (std::size_t i = 1; i < tiers.size(); ++i) {
    if (tiers[i].params.capacity_bytes >
        tiers[static_cast<std::size_t>(best)].params.capacity_bytes) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

std::vector<int> MemoryTopology::spill_chain(int from) const {
  std::vector<int> chain;
  int current = from;
  while (current != -1 && chain.size() <= tiers.size()) {
    chain.push_back(current);
    current = tiers.at(static_cast<std::size_t>(current)).backing;
  }
  return chain;
}

int MemoryTopology::cache_front_of(int backing_tier) const {
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    if (tiers[i].cache_front && tiers[i].backing == backing_tier) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::string MemoryTopology::tier_names() const {
  std::string names;
  for (const MemoryTier& t : tiers) {
    if (!names.empty()) names += ",";
    names += t.name;
  }
  return names;
}

void MemoryTopology::mix_fingerprint(std::uint64_t& h) const {
  mix_string(h, name);
  mix(h, tiers.size());
  for (const MemoryTier& t : tiers) {
    mix_string(h, t.name);
    mix(h, t.kind);
    mix(h, t.params.capacity_bytes);
    mix(h, t.params.peak_bw_gbs);
    mix(h, t.params.stream_bw_gbs);
    mix(h, t.params.random_bw_gbs);
    mix(h, t.params.idle_latency_ns);
    mix(h, t.controllers_begin);
    mix(h, t.controllers_end);
    mix(h, t.backing);
    mix(h, t.cache_front);
  }
}

std::string MemoryTopology::to_machine_file() const {
  std::ostringstream os;
  os << "# knlmem machine file (see docs/MACHINES.md)\n";
  os << "machine = " << name << "\n";
  os << "tiers = " << tiers.size() << "\n";
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const MemoryTier& t = tiers[i];
    os << "\n[tier " << i << "]\n";
    os << "name = " << t.name << "\n";
    os << "kind = " << to_string(t.kind) << "\n";
    os << "controllers = " << t.controllers_begin << ".." << t.controllers_end << "\n";
    os << "capacity_bytes = " << t.params.capacity_bytes << "\n";
    os << "peak_bw_gbs = " << format_double(t.params.peak_bw_gbs) << "\n";
    os << "stream_bw_gbs = " << format_double(t.params.stream_bw_gbs) << "\n";
    os << "random_bw_gbs = " << format_double(t.params.random_bw_gbs) << "\n";
    os << "idle_latency_ns = " << format_double(t.params.idle_latency_ns) << "\n";
    os << "backing = "
       << (t.backing == -1 ? std::string("none")
                           : tiers.at(static_cast<std::size_t>(t.backing)).name)
       << "\n";
    os << "cache_front = " << (t.cache_front ? "true" : "false") << "\n";
  }
  return os.str();
}

MemoryTopology MemoryTopology::parse_machine_file(const std::string& text) {
  MemoryTopology topology;
  topology.name.clear();
  std::vector<std::string> backing_names;  // resolved after all tiers parse

  std::istringstream is(text);
  std::string raw;
  int line_number = 0;
  int current_tier = -1;
  std::size_t declared_tiers = 0;

  while (std::getline(is, raw)) {
    ++line_number;
    std::string line = trim(raw);
    if (line.empty() || line[0] == '#') continue;

    if (line.front() == '[') {
      if (line.back() != ']') parse_fail(line_number, "unterminated section header");
      const std::string inner = trim(line.substr(1, line.size() - 2));
      if (inner.rfind("tier ", 0) != 0) {
        parse_fail(line_number, "unknown section '" + inner + "' (expected 'tier N')");
      }
      const int index = parse_integer<int>(trim(inner.substr(5)), line_number,
                                           "tier index");
      if (index != current_tier + 1) {
        parse_fail(line_number, "tier sections must appear in order; expected [tier " +
                                    std::to_string(current_tier + 1) + "]");
      }
      current_tier = index;
      topology.tiers.emplace_back();
      backing_names.emplace_back("none");
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      parse_fail(line_number, "expected 'key = value', got '" + line + "'");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));

    if (current_tier == -1) {
      if (key == "machine") {
        topology.name = value;
      } else if (key == "tiers") {
        declared_tiers = parse_integer<std::size_t>(value, line_number, "tier count");
      } else {
        throw Error::corrupt_input(
            "topology/unknown-field",
            "machine file line " + std::to_string(line_number) +
                ": unknown header field '" + key + "'");
      }
      continue;
    }

    MemoryTier& tier = topology.tiers.back();
    if (key == "name") {
      tier.name = value;
    } else if (key == "kind") {
      if (value == "hbm") {
        tier.kind = TierKind::HBM;
      } else if (value == "dram") {
        tier.kind = TierKind::DRAM;
      } else if (value == "nvm") {
        tier.kind = TierKind::NVM;
      } else {
        throw Error::corrupt_input(
            "topology/unknown-kind",
            "machine file line " + std::to_string(line_number) + ": unknown tier kind '" +
                value + "' (hbm/dram/nvm)");
      }
    } else if (key == "controllers") {
      const std::size_t dots = value.find("..");
      if (dots == std::string::npos) {
        parse_fail(line_number, "controllers must be 'begin..end', got '" + value + "'");
      }
      tier.controllers_begin =
          parse_integer<int>(trim(value.substr(0, dots)), line_number, "controller bound");
      tier.controllers_end =
          parse_integer<int>(trim(value.substr(dots + 2)), line_number, "controller bound");
    } else if (key == "capacity_bytes") {
      tier.params.capacity_bytes = parse_bytes(value, line_number);
    } else if (key == "peak_bw_gbs") {
      tier.params.peak_bw_gbs = parse_double(value, line_number);
    } else if (key == "stream_bw_gbs") {
      tier.params.stream_bw_gbs = parse_double(value, line_number);
    } else if (key == "random_bw_gbs") {
      tier.params.random_bw_gbs = parse_double(value, line_number);
    } else if (key == "idle_latency_ns") {
      tier.params.idle_latency_ns = parse_double(value, line_number);
    } else if (key == "backing") {
      backing_names.back() = value;
    } else if (key == "cache_front") {
      if (value != "true" && value != "false") {
        parse_fail(line_number, "cache_front must be true or false, got '" + value + "'");
      }
      tier.cache_front = value == "true";
    } else {
      throw Error::corrupt_input(
          "topology/unknown-field",
          "machine file line " + std::to_string(line_number) + ": unknown tier field '" +
              key + "'");
    }
  }

  if (topology.name.empty()) {
    throw Error::corrupt_input("topology/parse",
                               "machine file declares no 'machine = <name>' header");
  }
  if (declared_tiers != topology.tiers.size()) {
    throw Error::corrupt_input(
        "topology/parse",
        "machine file header declares " + std::to_string(declared_tiers) +
            " tier(s) but " + std::to_string(topology.tiers.size()) + " were defined");
  }
  // Resolve backing references by name; unknown names are CorruptInput so a
  // typo'd machine file cannot silently drop its spill path.
  for (std::size_t i = 0; i < topology.tiers.size(); ++i) {
    const std::string& backing_name = backing_names[i];
    if (backing_name == "none") {
      topology.tiers[i].backing = -1;
      continue;
    }
    const int target = topology.find_tier(backing_name);
    if (target == -1) {
      throw Error::corrupt_input(
          "topology/bad-backing",
          "machine '" + topology.name + "' tier " + std::to_string(i) +
              ": backing tier '" + backing_name + "' is not declared");
    }
    topology.tiers[i].backing = target;
  }

  topology.validate();
  return topology;
}

MemoryTopology MemoryTopology::knl7210() {
  MemoryTopology topology;
  topology.name = "knl7210";
  topology.tiers = {
      // 8 on-package MCDRAM devices (EDC controllers 0..8).
      MemoryTier{.name = "MCDRAM",
                 .kind = TierKind::HBM,
                 .params = params::kHbm,
                 .controllers_begin = 0,
                 .controllers_end = 8,
                 .backing = 1,
                 .cache_front = true},
      // 6 DDR4-2400 channels (controllers 8..14).
      MemoryTier{.name = "DDR4",
                 .kind = TierKind::DRAM,
                 .params = params::kDdr,
                 .controllers_begin = 8,
                 .controllers_end = 14,
                 .backing = -1,
                 .cache_front = false},
  };
  return topology;
}

MemoryTopology MemoryTopology::xeon_max() {
  // Xeon Max 9480 (Sapphire Rapids + HBM), the Aurora-class node: 64 GiB
  // HBM2e on package and 8 DDR5-4800 channels. Envelope follows the Aurora
  // paper's published STREAM/idle-latency measurements; see docs/MACHINES.md
  // for the anchor table.
  MemoryTopology topology;
  topology.name = "xeonmax";
  topology.tiers = {
      MemoryTier{.name = "HBM2e",
                 .kind = TierKind::HBM,
                 .params = params::NodeParams{.capacity_bytes = 64 * GiB,
                                             .peak_bw_gbs = 1640.0,
                                             .stream_bw_gbs = 1140.0,
                                             .random_bw_gbs = 420.0,
                                             .idle_latency_ns = 185.0},
                 .controllers_begin = 0,
                 .controllers_end = 4,
                 .backing = 1,
                 .cache_front = true},
      MemoryTier{.name = "DDR5",
                 .kind = TierKind::DRAM,
                 .params = params::NodeParams{.capacity_bytes = 512 * GiB,
                                             .peak_bw_gbs = 307.0,
                                             .stream_bw_gbs = 220.0,
                                             .random_bw_gbs = 95.0,
                                             .idle_latency_ns = 112.0},
                 .controllers_begin = 4,
                 .controllers_end = 12,
                 .backing = -1,
                 .cache_front = false},
  };
  return topology;
}

MemoryTopology MemoryTopology::knl_nvm() {
  // The paper testbed with a third NVM-class tier behind DDR4, following
  // the NUMA-emulation paper's far-memory envelope (roughly 1/5 of DDR
  // stream bandwidth, ~2.6x its idle latency) — DDR overflow spills there
  // instead of failing.
  MemoryTopology topology = knl7210();
  topology.name = "knl_nvm";
  topology.tiers[1].backing = 2;
  topology.tiers.push_back(
      MemoryTier{.name = "NVM",
                 .kind = TierKind::NVM,
                 .params = params::NodeParams{.capacity_bytes = 512 * GiB,
                                             .peak_bw_gbs = 20.0,
                                             .stream_bw_gbs = 15.0,
                                             .random_bw_gbs = 4.0,
                                             .idle_latency_ns = 340.0},
                 .controllers_begin = 14,
                 .controllers_end = 16,
                 .backing = -1,
                 .cache_front = false});
  return topology;
}

TierPlacement place_waterfall(const MemoryTopology& topology, std::uint64_t bytes,
                              int preferred, bool strict) {
  TierPlacement placement;
  if (preferred < 0 || preferred >= static_cast<int>(topology.tier_count())) {
    placement.error = "placement: preferred tier index " + std::to_string(preferred) +
                      " is out of range";
    return placement;
  }

  std::uint64_t remaining = bytes;
  const std::vector<int> chain = topology.spill_chain(preferred);
  for (const int tier_index : chain) {
    const MemoryTier& tier = topology.tier(static_cast<std::size_t>(tier_index));
    const std::uint64_t taken = std::min(remaining, tier.params.capacity_bytes);
    if (taken > 0) {
      placement.shares.push_back(TierShare{tier_index, taken});
      remaining -= taken;
    }
    if (remaining == 0) break;
    if (strict) {
      placement.error = "membind: tier '" + tier.name + "' cannot hold " +
                        std::to_string(bytes) + " bytes (capacity " +
                        std::to_string(tier.params.capacity_bytes) + ")";
      placement.shares.clear();
      return placement;
    }
  }
  if (remaining > 0) {
    const MemoryTier& head = topology.tier(static_cast<std::size_t>(preferred));
    placement.error = "placement: " + std::to_string(remaining) +
                      " bytes overflow the backing chain from '" + head.name + "'";
    placement.shares.clear();
    return placement;
  }
  placement.ok = true;
  return placement;
}

}  // namespace knl::sim
