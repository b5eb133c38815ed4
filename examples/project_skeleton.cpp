// Command-line projection tool: project a .gskel code skeleton on any
// registered machine without writing C++.
//
//   project_skeleton <file.gskel> [machine] [--iterations N] [--advise]
//                    [--machine-file <file.gmach>]
//   project_skeleton --list-machines
//
//   machine         any registry machine name (default anl_eureka); see
//                   --list-machines for the registered fleet
//   --machine-file  project against a user-defined .gmach machine
//   --iterations    overrides the skeleton's iteration count
//   --advise        also print the pinned/pageable memory-mode plan
//
// Example:
//   build/examples/project_skeleton examples/skeletons/matmul.gskel
#include <cstdio>
#include <cstring>
#include <string>

#include "core/grophecy.h"
#include "util/contracts.h"
#include "core/memory_advisor.h"
#include "hw/machine_file.h"
#include "hw/machine_registry.h"
#include "skeleton/parse.h"
#include "skeleton/print.h"

int main(int argc, char** argv) {
  using namespace grophecy;

  if (argc >= 2 && std::strcmp(argv[1], "--list-machines") == 0) {
    for (const auto& m : hw::MachineRegistry::global().machines())
      std::printf("%-18s %s + %s over %s\n", m->name.c_str(),
                  m->cpu.name.c_str(), m->gpu.name.c_str(),
                  m->pcie.name.c_str());
    return 0;
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <file.gskel> [machine] [--iterations N] "
                 "[--advise]\n       %s --list-machines\n",
                 argv[0], argv[0]);
    return 2;
  }

  std::string machine_name = "anl_eureka";
  std::string machine_file;
  int iterations_override = 0;
  bool advise = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--iterations") == 0 && i + 1 < argc) {
      iterations_override = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--machine-file") == 0 && i + 1 < argc) {
      machine_file = argv[++i];
    } else if (std::strcmp(argv[i], "--advise") == 0) {
      advise = true;
    } else {
      machine_name = argv[i];
    }
  }

  try {
    skeleton::AppSkeleton app = skeleton::parse_skeleton_file(argv[1]);
    if (iterations_override > 0) app.iterations = iterations_override;

    std::printf("%s\n", skeleton::to_string(app).c_str());

    const hw::MachineSpec machine =
        machine_file.empty()
            ? hw::MachineRegistry::global().find(machine_name)
            : hw::parse_machine_file(machine_file);
    core::Grophecy engine(machine);
    std::printf("machine: %s (%s, %s)\n", machine.name.c_str(),
                machine.gpu.name.c_str(), machine.pcie.name.c_str());
    std::printf("calibrated bus: H2D %s | D2H %s\n\n",
                engine.bus_model().h2d.describe().c_str(),
                engine.bus_model().d2h.describe().c_str());

    const core::ProjectionReport report = engine.project(app);
    std::printf("%s\n", report.describe().c_str());

    if (advise) {
      core::MemoryModeAdvisor advisor(machine);
      std::printf("%s", advisor.advise(app).describe().c_str());
    }
    return 0;
  } catch (const grophecy::ParseError& e) {
    // what() already names the offending file and line.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const grophecy::Error& e) {
    // An unknown machine name lands here (UsageError, listing the fleet).
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const grophecy::ContractViolation& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
