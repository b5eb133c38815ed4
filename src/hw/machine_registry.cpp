#include "hw/machine_registry.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "hw/architecture.h"
#include "hw/machine_file.h"
#include "hw/registry.h"
#include "util/error.h"

namespace grophecy::hw {

namespace fs = std::filesystem;

void MachineRegistry::add(MachineSpec spec) {
  add_shared(std::make_shared<const MachineSpec>(std::move(spec)),
             "in-code spec");
}

void MachineRegistry::add_file(const std::string& path) {
  add_shared(std::make_shared<const MachineSpec>(parse_machine_file(path)),
             path);
}

void MachineRegistry::add_shared(std::shared_ptr<const MachineSpec> spec,
                                 const std::string& source) {
  validate_machine(*spec);
  const auto existing = sources_.find(spec->name);
  if (existing != sources_.end())
    throw UsageError("machine '" + spec->name + "' from " + source +
                     " is already registered (from " + existing->second +
                     "); registry names must be unique");
  index_.emplace(spec->name, machines_.size());
  sources_.emplace(spec->name, source);
  machines_.push_back(std::move(spec));
}

std::size_t MachineRegistry::scan_directory(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec))
    throw UsageError("machine directory '" + dir +
                     "' does not exist or is not a directory");
  std::vector<std::string> paths;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".gmach")
      paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) add_file(path);
  return paths.size();
}

const MachineSpec& MachineRegistry::find(const std::string& name) const {
  const MachineSpec* spec = try_find(name);
  if (spec == nullptr) {
    std::string valid;
    for (const auto& machine : machines_) {
      if (!valid.empty()) valid += ", ";
      valid += machine->name;
    }
    throw UsageError("unknown machine '" + name + "' (valid: " + valid + ")");
  }
  return *spec;
}

const MachineSpec* MachineRegistry::try_find(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : machines_[it->second].get();
}

std::vector<std::string> MachineRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(machines_.size());
  for (const auto& machine : machines_) result.push_back(machine->name);
  return result;
}

const MachineRegistry& MachineRegistry::global() {
  static const MachineRegistry registry = [] {
    MachineRegistry r;
    for (MachineSpec& machine : builtin_machines()) r.add(std::move(machine));
#ifdef GROPHECY_MACHINE_DIR
    // The shipped fleet. Tolerate a deleted directory (an installed binary
    // without the source tree) — scripts/verify.sh checks for drift — but
    // a *present* directory with a bad spec fails loudly here.
    std::error_code ec;
    if (fs::is_directory(GROPHECY_MACHINE_DIR, ec))
      r.scan_directory(GROPHECY_MACHINE_DIR);
#endif
    if (const char* extra = std::getenv("GROPHECY_MACHINE_PATH")) {
      std::string path(extra);
      std::size_t begin = 0;
      while (begin <= path.size()) {
        const std::size_t end = path.find(':', begin);
        const std::string dir =
            path.substr(begin, end == std::string::npos ? std::string::npos
                                                        : end - begin);
        if (!dir.empty()) r.scan_directory(dir);  // strict: user asked for it
        if (end == std::string::npos) break;
        begin = end + 1;
      }
    }
    return r;
  }();
  return registry;
}

}  // namespace grophecy::hw
