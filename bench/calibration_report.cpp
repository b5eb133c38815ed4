// Reproduces the §III-C calibration result: "On the system we use in this
// paper, alpha is on the order of 10 us and the transfer bandwidth (1/beta)
// is approximately 2.5 GB/s" — and demonstrates that the calibration is
// constructed automatically for each new system (the paper's portability
// claim) by calibrating all registered machines in both memory modes.
#include <cstdio>
#include <iostream>

#include "hw/registry.h"
#include "pcie/bus.h"
#include "pcie/calibrator.h"
#include "util/table.h"

int main() {
  using namespace grophecy;
  using util::strfmt;

  util::TextTable table({"Machine", "Memory", "H2D alpha (us)", "H2D GB/s",
                         "D2H alpha (us)", "D2H GB/s"});

  for (const hw::MachineSpec& machine : hw::builtin_machines()) {
    for (hw::HostMemory mem :
         {hw::HostMemory::kPinned, hw::HostMemory::kPageable}) {
      pcie::SimulatedBus bus(machine.pcie, /*seed=*/31);
      const pcie::BusModel model =
          pcie::TransferCalibrator().calibrate(bus, mem);
      table.add_row({
          machine.name,
          mem == hw::HostMemory::kPinned ? "pinned" : "pageable",
          strfmt("%.2f", model.h2d.alpha_s * 1e6),
          strfmt("%.2f", model.h2d.bandwidth_gbps()),
          strfmt("%.2f", model.d2h.alpha_s * 1e6),
          strfmt("%.2f", model.d2h.bandwidth_gbps()),
      });
    }
    table.add_separator();
  }

  std::printf("Calibration report — two-point linear model per machine\n");
  std::printf("(paper §III-C on anl_eureka: alpha ~10 us, ~2.5 GB/s "
              "pinned)\n\n");
  table.print(std::cout);
  util::export_csv_if_requested(table, "calibration_report");
  return 0;
}
