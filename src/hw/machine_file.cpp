#include "hw/machine_file.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "hw/registry.h"
#include "util/contracts.h"
#include "util/table.h"

namespace grophecy::hw {

namespace {

/// One settable/gettable field of a MachineSpec.
struct Field {
  std::function<void(MachineSpec&, const std::string&, int)> set;
  std::function<std::string(const MachineSpec&)> get;
};

double parse_double(const std::string& value, int line) {
  double parsed = 0.0;
  try {
    std::size_t consumed = 0;
    parsed = std::stod(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument(value);
  } catch (const std::exception&) {
    throw MachineParseError(line, "expected number, got '" + value + "'");
  }
  // NaN and infinity parse as doubles but poison every downstream model
  // quantity; a machine description containing them is malformed input.
  if (!std::isfinite(parsed))
    throw MachineParseError(line,
                            "expected finite number, got '" + value + "'");
  return parsed;
}

Field double_field(std::function<double&(MachineSpec&)> access) {
  return Field{
      [access](MachineSpec& m, const std::string& value, int line) {
        access(m) = parse_double(value, line);
      },
      [access](const MachineSpec& m) {
        return util::strfmt("%.9g", access(const_cast<MachineSpec&>(m)));
      }};
}

Field int_field(std::function<int&(MachineSpec&)> access) {
  return Field{
      [access](MachineSpec& m, const std::string& value, int line) {
        const double parsed = parse_double(value, line);
        access(m) = static_cast<int>(parsed);
      },
      [access](const MachineSpec& m) {
        return std::to_string(access(const_cast<MachineSpec&>(m)));
      }};
}

Field u32_field(std::function<std::uint32_t&(MachineSpec&)> access) {
  return Field{
      [access](MachineSpec& m, const std::string& value, int line) {
        access(m) = static_cast<std::uint32_t>(parse_double(value, line));
      },
      [access](const MachineSpec& m) {
        return std::to_string(access(const_cast<MachineSpec&>(m)));
      }};
}

Field u64_field(std::function<std::uint64_t&(MachineSpec&)> access) {
  return Field{
      [access](MachineSpec& m, const std::string& value, int line) {
        access(m) = static_cast<std::uint64_t>(parse_double(value, line));
      },
      [access](const MachineSpec& m) {
        return std::to_string(access(const_cast<MachineSpec&>(m)));
      }};
}

Field string_field(std::function<std::string&(MachineSpec&)> access) {
  return Field{
      [access](MachineSpec& m, const std::string& value, int line) {
        if (value.empty())
          throw MachineParseError(line, "expected a value");
        access(m) = value;
      },
      [access](const MachineSpec& m) {
        return access(const_cast<MachineSpec&>(m));
      }};
}

void add_pcie_profile_fields(std::map<std::string, Field>& fields,
                             const std::string& prefix,
                             std::function<PcieDirectionProfile&(MachineSpec&)>
                                 profile) {
  fields[prefix + ".latency_s"] = double_field(
      [profile](MachineSpec& m) -> double& { return profile(m).latency_s; });
  fields[prefix + ".asymptotic_gbps"] =
      double_field([profile](MachineSpec& m) -> double& {
        return profile(m).asymptotic_gbps;
      });
  fields[prefix + ".hump_extra_s"] =
      double_field([profile](MachineSpec& m) -> double& {
        return profile(m).hump_extra_s;
      });
  fields[prefix + ".hump_center_bytes"] =
      double_field([profile](MachineSpec& m) -> double& {
        return profile(m).hump_center_bytes;
      });
  fields[prefix + ".hump_log_width"] =
      double_field([profile](MachineSpec& m) -> double& {
        return profile(m).hump_log_width;
      });
  fields[prefix + ".page_staging_s_per_page"] =
      double_field([profile](MachineSpec& m) -> double& {
        return profile(m).page_staging_s_per_page;
      });
}

const std::map<std::string, Field>& field_registry() {
  static const std::map<std::string, Field> registry = [] {
    std::map<std::string, Field> f;
    // --- cpu ---
    f["name"] = string_field([](MachineSpec& m) -> std::string& { return m.name; });
    f["cpu.name"] = string_field([](MachineSpec& m) -> std::string& { return m.cpu.name; });
    f["cpu.sockets"] = int_field([](MachineSpec& m) -> int& { return m.cpu.sockets; });
    f["cpu.cores_per_socket"] = int_field([](MachineSpec& m) -> int& { return m.cpu.cores_per_socket; });
    f["cpu.threads"] = int_field([](MachineSpec& m) -> int& { return m.cpu.threads; });
    f["cpu.clock_ghz"] = double_field([](MachineSpec& m) -> double& { return m.cpu.clock_ghz; });
    f["cpu.flops_per_cycle_per_core"] = double_field([](MachineSpec& m) -> double& { return m.cpu.flops_per_cycle_per_core; });
    f["cpu.mem_bandwidth_gbps"] = double_field([](MachineSpec& m) -> double& { return m.cpu.mem_bandwidth_gbps; });
    f["cpu.per_core_bw_gbps"] = double_field([](MachineSpec& m) -> double& { return m.cpu.per_core_bw_gbps; });
    f["cpu.llc_bytes"] = u64_field([](MachineSpec& m) -> std::uint64_t& { return m.cpu.llc_bytes; });
    f["cpu.achieved_bw_fraction"] = double_field([](MachineSpec& m) -> double& { return m.cpu.achieved_bw_fraction; });
    f["cpu.parallel_efficiency"] = double_field([](MachineSpec& m) -> double& { return m.cpu.parallel_efficiency; });
    f["cpu.timing_jitter_sigma"] = double_field([](MachineSpec& m) -> double& { return m.cpu.timing_jitter_sigma; });
    // --- gpu ---
    f["gpu.name"] = string_field([](MachineSpec& m) -> std::string& { return m.gpu.name; });
    f["gpu.family"] = string_field([](MachineSpec& m) -> std::string& { return m.gpu.family; });
    f["gpu.memory_bytes"] = u64_field([](MachineSpec& m) -> std::uint64_t& { return m.gpu.memory_bytes; });
    f["gpu.num_sms"] = int_field([](MachineSpec& m) -> int& { return m.gpu.num_sms; });
    f["gpu.cores_per_sm"] = int_field([](MachineSpec& m) -> int& { return m.gpu.cores_per_sm; });
    f["gpu.core_clock_ghz"] = double_field([](MachineSpec& m) -> double& { return m.gpu.core_clock_ghz; });
    f["gpu.mem_bandwidth_gbps"] = double_field([](MachineSpec& m) -> double& { return m.gpu.mem_bandwidth_gbps; });
    f["gpu.warp_size"] = int_field([](MachineSpec& m) -> int& { return m.gpu.warp_size; });
    f["gpu.max_threads_per_sm"] = int_field([](MachineSpec& m) -> int& { return m.gpu.max_threads_per_sm; });
    f["gpu.max_blocks_per_sm"] = int_field([](MachineSpec& m) -> int& { return m.gpu.max_blocks_per_sm; });
    f["gpu.max_threads_per_block"] = int_field([](MachineSpec& m) -> int& { return m.gpu.max_threads_per_block; });
    f["gpu.registers_per_sm"] = u32_field([](MachineSpec& m) -> std::uint32_t& { return m.gpu.registers_per_sm; });
    f["gpu.shared_mem_per_sm_bytes"] = u32_field([](MachineSpec& m) -> std::uint32_t& { return m.gpu.shared_mem_per_sm_bytes; });
    f["gpu.reg_alloc_granularity"] = u32_field([](MachineSpec& m) -> std::uint32_t& { return m.gpu.reg_alloc_granularity; });
    f["gpu.smem_alloc_granularity_bytes"] = u32_field([](MachineSpec& m) -> std::uint32_t& { return m.gpu.smem_alloc_granularity_bytes; });
    f["gpu.dram_latency_cycles"] = double_field([](MachineSpec& m) -> double& { return m.gpu.dram_latency_cycles; });
    f["gpu.transaction_bytes"] = int_field([](MachineSpec& m) -> int& { return m.gpu.transaction_bytes; });
    f["gpu.flops_per_core_per_cycle"] = double_field([](MachineSpec& m) -> double& { return m.gpu.flops_per_core_per_cycle; });
    f["gpu.kernel_launch_overhead_s"] = double_field([](MachineSpec& m) -> double& { return m.gpu.kernel_launch_overhead_s; });
    f["gpu.achieved_bw_fraction"] = double_field([](MachineSpec& m) -> double& { return m.gpu.achieved_bw_fraction; });
    f["gpu.uncoalesced_replay_factor"] = double_field([](MachineSpec& m) -> double& { return m.gpu.uncoalesced_replay_factor; });
    f["gpu.indirect_access_penalty"] = double_field([](MachineSpec& m) -> double& { return m.gpu.indirect_access_penalty; });
    f["gpu.instruction_overhead"] = double_field([](MachineSpec& m) -> double& { return m.gpu.instruction_overhead; });
    f["gpu.sync_cycles"] = double_field([](MachineSpec& m) -> double& { return m.gpu.sync_cycles; });
    f["gpu.gather_stream_fraction"] = double_field([](MachineSpec& m) -> double& { return m.gpu.gather_stream_fraction; });
    f["gpu.timing_jitter_sigma"] = double_field([](MachineSpec& m) -> double& { return m.gpu.timing_jitter_sigma; });
    // --- pcie ---
    f["pcie.name"] = string_field([](MachineSpec& m) -> std::string& { return m.pcie.name; });
    f["pcie.generation"] = int_field([](MachineSpec& m) -> int& { return m.pcie.generation; });
    f["pcie.lanes"] = int_field([](MachineSpec& m) -> int& { return m.pcie.lanes; });
    add_pcie_profile_fields(f, "pcie.pinned_h2d",
                            [](MachineSpec& m) -> PcieDirectionProfile& { return m.pcie.pinned_h2d; });
    add_pcie_profile_fields(f, "pcie.pinned_d2h",
                            [](MachineSpec& m) -> PcieDirectionProfile& { return m.pcie.pinned_d2h; });
    add_pcie_profile_fields(f, "pcie.pageable_h2d",
                            [](MachineSpec& m) -> PcieDirectionProfile& { return m.pcie.pageable_h2d; });
    add_pcie_profile_fields(f, "pcie.pageable_d2h",
                            [](MachineSpec& m) -> PcieDirectionProfile& { return m.pcie.pageable_d2h; });
    f["pcie.noise.sigma_floor"] = double_field([](MachineSpec& m) -> double& { return m.pcie.noise.sigma_floor; });
    f["pcie.noise.sigma_small"] = double_field([](MachineSpec& m) -> double& { return m.pcie.noise.sigma_small; });
    f["pcie.noise.small_scale_bytes"] = double_field([](MachineSpec& m) -> double& { return m.pcie.noise.small_scale_bytes; });
    f["pcie.noise.outlier_probability"] = double_field([](MachineSpec& m) -> double& { return m.pcie.noise.outlier_probability; });
    f["pcie.noise.outlier_factor"] = double_field([](MachineSpec& m) -> double& { return m.pcie.noise.outlier_factor; });
    // --- alloc ---
    f["alloc.device_base_s"] = double_field([](MachineSpec& m) -> double& { return m.alloc.device_base_s; });
    f["alloc.device_per_mib_s"] = double_field([](MachineSpec& m) -> double& { return m.alloc.device_per_mib_s; });
    f["alloc.pageable_base_s"] = double_field([](MachineSpec& m) -> double& { return m.alloc.pageable_base_s; });
    f["alloc.pageable_per_page_s"] = double_field([](MachineSpec& m) -> double& { return m.alloc.pageable_per_page_s; });
    f["alloc.pinned_base_s"] = double_field([](MachineSpec& m) -> double& { return m.alloc.pinned_base_s; });
    f["alloc.pinned_per_page_s"] = double_field([](MachineSpec& m) -> double& { return m.alloc.pinned_per_page_s; });
    f["alloc.jitter_sigma"] = double_field([](MachineSpec& m) -> double& { return m.alloc.jitter_sigma; });
    return f;
  }();
  return registry;
}

std::string trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])))
    ++begin;
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])))
    --end;
  return std::string(text.substr(begin, end - begin));
}

}  // namespace

MachineSpec parse_machine(std::string_view text) {
  MachineSpec machine = anl_eureka();  // default seed: the paper's testbed
  bool any_field = false;
  bool base_allowed = true;
  std::set<std::string> seen_keys;

  int line_number = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t end = text.find('\n', pos);
    std::string_view raw =
        text.substr(pos, end == std::string_view::npos ? text.size() - pos
                                                       : end - pos);
    ++line_number;
    pos = end == std::string_view::npos ? text.size() + 1 : end + 1;

    const std::size_t hash = raw.find('#');
    if (hash != std::string_view::npos) raw = raw.substr(0, hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;

    const std::size_t space = line.find_first_of(" \t");
    const std::string key =
        space == std::string::npos ? line : line.substr(0, space);
    const std::string value =
        space == std::string::npos ? "" : trim(line.substr(space + 1));

    if (key == "base") {
      if (!base_allowed)
        throw MachineParseError(line_number,
                                "'base' must be the first directive");
      // `base` resolves against the built-in machines only, never the
      // registry: a file-backed machine basing on another file would make
      // its meaning depend on registry scan order (and recurse into the
      // global registry while it is being constructed).
      bool found = false;
      std::string valid_bases;
      for (MachineSpec& builtin : builtin_machines()) {
        if (!valid_bases.empty()) valid_bases += ", ";
        valid_bases += builtin.name;
        if (builtin.name == value) {
          machine = std::move(builtin);
          found = true;
        }
      }
      if (!found)
        throw MachineParseError(line_number, "unknown base machine '" +
                                                 value + "' (valid: " +
                                                 valid_bases + ")");
      base_allowed = false;
      continue;
    }
    base_allowed = false;

    const auto& registry = field_registry();
    const auto it = registry.find(key);
    if (it == registry.end())
      throw MachineParseError(line_number, "unknown field '" + key + "'");
    // A repeated key is almost certainly an editing mistake; silently
    // letting the last one win would hide it (same rationale as rejecting
    // unknown keys).
    if (!seen_keys.insert(key).second)
      throw MachineParseError(line_number, "duplicate field '" + key + "'");
    it->second.set(machine, value, line_number);
    any_field = true;
  }
  if (!any_field && base_allowed)
    throw MachineParseError(1, "empty machine description");
  return machine;
}

MachineSpec parse_machine_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw MachineParseError(path, 0, "cannot open file");
  std::ostringstream contents;
  contents << file.rdbuf();
  try {
    return parse_machine(contents.str());
  } catch (const MachineParseError& e) {
    throw MachineParseError(path, e.line(), e.message());
  }
}

std::string serialize_machine(const MachineSpec& machine) {
  std::ostringstream oss;
  oss << "# grophecy machine description (every known field)\n";
  for (const auto& [key, field] : field_registry())
    oss << key << ' ' << field.get(machine) << '\n';
  return oss.str();
}

std::vector<std::string> machine_field_names() {
  std::vector<std::string> names;
  for (const auto& [key, field] : field_registry()) {
    (void)field;
    names.push_back(key);
  }
  return names;
}

bool scale_machine_field(MachineSpec& machine, const std::string& field,
                         double factor) {
  const auto& registry = field_registry();
  const auto it = registry.find(field);
  if (it == registry.end())
    throw ContractViolation("unknown machine field: " + field);
  const std::string current = it->second.get(machine);
  // String fields (names) are not scalable.
  char* end = nullptr;
  const double value = std::strtod(current.c_str(), &end);
  if (end == current.c_str() || *end != '\0') return false;
  it->second.set(machine, util::strfmt("%.12g", value * factor), 0);
  return true;
}

}  // namespace grophecy::hw
