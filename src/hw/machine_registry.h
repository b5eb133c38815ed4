// The machine registry: every system the framework can project against.
//
// The paper recalibrates its bus model "automatically for each new system"
// (§I); the registry is where those systems live. It holds the three
// built-in machines (hw/registry.h) plus every `.gmach` spec found in the
// shipped `src/hw/machines/` directory and any extra directories named by
// the GROPHECY_MACHINE_PATH environment variable (colon-separated, scanned
// in order after the shipped set).
//
// Every admitted spec passes hw::validate_machine() — positive geometry,
// a known architecture family, interconnect bandwidths that fit inside the
// link's theoretical capacity — and names are unique, so a lookup error
// can list the complete valid fleet (same UsageError contract as
// workloads::find_workload).
//
// The process-wide fleet is MachineRegistry::global(): built once, then
// immutable, safe to read from concurrent sweep workers. Tests and tools
// build their own mutable instances.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hw/machine.h"

namespace grophecy::hw {

class MachineRegistry {
 public:
  MachineRegistry() = default;

  /// Validates and registers a spec. Throws UsageError if the spec fails
  /// validate_machine() or its name is already registered.
  void add(MachineSpec spec);

  /// Parses, validates, and registers one `.gmach` file. Throws
  /// MachineParseError for a malformed document, UsageError for an
  /// invalid or duplicate machine.
  void add_file(const std::string& path);

  /// Registers every `*.gmach` file in `dir`, in filename order (so
  /// registration order never depends on directory enumeration order).
  /// Returns the number of machines added. Throws UsageError if `dir` is
  /// not a directory; parse/validation errors propagate with the offending
  /// path attached.
  std::size_t scan_directory(const std::string& dir);

  /// Looks a machine up by name; throws UsageError listing every
  /// registered name if unknown.
  const MachineSpec& find(const std::string& name) const;

  /// Looks a machine up by name; nullptr if unknown.
  const MachineSpec* try_find(const std::string& name) const;

  /// Registered names in registration order (builtins first for the
  /// global registry). This is the canonical cross-machine sweep order.
  std::vector<std::string> names() const;

  /// The registered specs, registration order.
  const std::vector<std::shared_ptr<const MachineSpec>>& machines() const {
    return machines_;
  }

  std::size_t size() const { return machines_.size(); }
  bool empty() const { return machines_.empty(); }

  /// The process-wide fleet: builtins, then the shipped `src/hw/machines/`
  /// specs, then GROPHECY_MACHINE_PATH directories. Built on first use,
  /// immutable afterwards. A malformed shipped or user spec throws on
  /// first access — loudly, not lazily per lookup.
  static const MachineRegistry& global();

 private:
  void add_shared(std::shared_ptr<const MachineSpec> spec,
                  const std::string& source);

  std::vector<std::shared_ptr<const MachineSpec>> machines_;
  std::map<std::string, std::size_t> index_;
  /// Where each name came from ("builtin" or a file path), for duplicate
  /// diagnostics.
  std::map<std::string, std::string> sources_;
};

}  // namespace grophecy::hw
