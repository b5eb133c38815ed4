// Porting plan: rank every .gskel skeleton in a directory by projected
// payoff — the workflow the paper's introduction motivates ("application
// developers often ponder ... whether it is indeed worth investing the
// time and effort to port their code", §II-C), run over a whole codebase's
// worth of kernels at once.
//
//   porting_plan [directory] [machine]     (default: examples/skeletons)
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <vector>

#include "core/grophecy.h"
#include "hw/machine_registry.h"
#include "skeleton/parse.h"
#include "util/contracts.h"
#include "util/table.h"
#include "util/units.h"

int main(int argc, char** argv) {
  using namespace grophecy;
  using util::strfmt;

  const std::string directory = argc > 1 ? argv[1] : "examples/skeletons";
  const std::string machine_name = argc > 2 ? argv[2] : "anl_eureka";

  std::vector<std::filesystem::path> files;
  std::error_code list_error;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory, list_error)) {
    if (entry.path().extension() == ".gskel") files.push_back(entry.path());
  }
  if (list_error || files.empty()) {
    std::fprintf(stderr, "no .gskel files found in '%s'\n",
                 directory.c_str());
    return 1;
  }
  std::sort(files.begin(), files.end());

  core::Grophecy engine(hw::MachineRegistry::global().find(machine_name));

  struct Candidate {
    std::string name;
    core::ProjectionReport report;
  };
  std::vector<Candidate> candidates;
  for (const std::filesystem::path& path : files) {
    try {
      const skeleton::AppSkeleton app =
          skeleton::parse_skeleton_file(path.string());
      candidates.push_back({path.filename().string(), engine.project(app)});
    } catch (const skeleton::ParseError& e) {
      std::fprintf(stderr, "skipping %s: %s\n", path.c_str(), e.what());
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.report.predicted_speedup_both() >
                     b.report.predicted_speedup_both();
            });

  util::TextTable table({"Rank", "Skeleton", "Kernel-only", "With transfer",
                         "Xfer share", "Fits GPU", "Recommendation"});
  int rank = 0;
  for (const Candidate& candidate : candidates) {
    const double honest = candidate.report.predicted_speedup_both();
    table.add_row({
        strfmt("%d", ++rank),
        candidate.name,
        strfmt("%.1fx", candidate.report.predicted_speedup_kernel_only()),
        strfmt("%.1fx", honest),
        strfmt("%.0f%%", candidate.report.predicted_transfer_s /
                             candidate.report.predicted_total_s() * 100.0),
        candidate.report.fits_device_memory ? "yes" : "NO",
        honest > 1.5   ? "port first"
        : honest > 1.0 ? "marginal"
                       : "keep on CPU",
    });
  }

  std::printf("Porting plan for %s on %s (ranked by transfer-aware "
              "projected speedup)\n\n",
              directory.c_str(), machine_name.c_str());
  table.print(std::cout);
  return 0;
}
