// Machine description files (.gmach).
//
// The paper's framework "is not application or system specific" and the
// bus model "is constructed automatically for each new system" (§I). The
// registry ships three machines; this module lets users describe their own
// system in a plain text file and project against it without recompiling:
//
//   # my_workstation.gmach — start from a registered machine, then override
//   base pcie3_kepler
//   name my_workstation
//   cpu.threads 24
//   cpu.mem_bandwidth_gbps 76
//   gpu.num_sms 46
//   gpu.mem_bandwidth_gbps 448
//   pcie.pinned_h2d.asymptotic_gbps 12.3
//
// Format: one `key value` pair per line; `#` comments; keys are the
// dotted field paths below. `base <registered machine>` (optional, first)
// seeds every field so a file only lists what differs; without it the
// paper's testbed (anl_eureka) is the seed. Unknown keys are errors, so
// typos cannot silently leave a field at its default.
//
// serialize_machine() writes every known field, so a round-tripped file
// doubles as a complete, documented record of a machine's parameters.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "hw/machine.h"
#include "util/error.h"

namespace grophecy::hw {

/// Error in a .gmach document. A grophecy::ParseError (ErrorKind::kParse);
/// what() is "<file>: line <N>: <message>", with the file part present when
/// the document came from a file (parse_machine_file attaches the path).
class MachineParseError : public grophecy::ParseError {
 public:
  MachineParseError(int line, const std::string& message)
      : grophecy::ParseError("", line, message) {}
  MachineParseError(std::string file, int line, std::string message)
      : grophecy::ParseError(std::move(file), line, std::move(message)) {}
};

/// Parses a .gmach document into a MachineSpec.
MachineSpec parse_machine(std::string_view text);

/// Reads and parses a .gmach file.
MachineSpec parse_machine_file(const std::string& path);

/// Writes every known field of `machine` in .gmach syntax.
std::string serialize_machine(const MachineSpec& machine);

/// The dotted field paths understood by the parser (for tooling/tests).
std::vector<std::string> machine_field_names();

/// Multiplies a numeric field by `factor` (sensitivity analysis / what-if
/// tooling). Returns false for string-valued fields; throws
/// ContractViolation for unknown field names.
bool scale_machine_field(MachineSpec& machine, const std::string& field,
                         double factor);

}  // namespace grophecy::hw
