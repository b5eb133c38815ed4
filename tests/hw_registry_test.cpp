// Tests for the architecture-family layer and the machine registry: family
// resolution and occupancy rules, validate_machine's structural checks,
// .gmach round trips of the architecture fields, registry admission
// (validation, duplicate rejection, directory scans), the shipped fleet's
// gen1-gen5 coverage, and the cross-machine sweep axis (grid expansion,
// identity/byte stability, journal determinism across worker counts, and
// the shard wire protocol carrying the machine name).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "exec/shard/protocol.h"
#include "exec/sweep_request.h"
#include "hw/architecture.h"
#include "hw/machine_file.h"
#include "hw/machine_registry.h"
#include "hw/registry.h"
#include "util/error.h"

namespace grophecy::hw {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- architecture families ---

TEST(Architecture, FamiliesSpanTeslaThroughModern) {
  const std::vector<std::string> families = Architecture::families();
  ASSERT_GE(families.size(), 10u);
  EXPECT_EQ(families.front(), "tesla");  // oldest generation first
  const std::set<std::string> set(families.begin(), families.end());
  for (const char* required :
       {"tesla", "fermi", "kepler", "pascal", "volta", "ampere", "hopper",
        "cdna2"})
    EXPECT_EQ(set.count(required), 1u) << required;

  EXPECT_EQ(Architecture::of("tesla").wave_size(), 32);
  EXPECT_EQ(Architecture::of("cdna2").wave_size(), 64);
  EXPECT_EQ(Architecture::of("tesla").max_pcie_generation(), 2);
  EXPECT_EQ(Architecture::of("hopper").max_pcie_generation(), 5);
  EXPECT_EQ(Architecture::try_of("not_a_family"), nullptr);
}

TEST(Architecture, UnknownFamilyIsAUsageErrorListingTheFamilies) {
  try {
    Architecture::of("g80");  // plausible guess, wrong key
    FAIL() << "expected UsageError";
  } catch (const UsageError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("g80"), std::string::npos) << what;
    EXPECT_NE(what.find("tesla"), std::string::npos) << what;
    EXPECT_NE(what.find("hopper"), std::string::npos) << what;
  }
}

TEST(Architecture, AllocationGranularityRoundsUpOccupancy) {
  GpuSpec gpu = anl_eureka().gpu;
  gpu.max_threads_per_sm = 2048;
  gpu.max_blocks_per_sm = 32;
  gpu.max_threads_per_block = 1024;
  gpu.registers_per_sm = 65536;
  gpu.shared_mem_per_sm_bytes = 49152;

  const Architecture& arch = Architecture::of("tesla");
  // 96 threads x 33 regs = 3168 regs exact; 65536/3168 = 20 blocks.
  const Occupancy exact = arch.occupancy(gpu, 96, 33, 0);
  EXPECT_EQ(exact.blocks_per_sm, 20);
  EXPECT_STREQ(exact.limiter, "regs");

  // Real allocators round to 256: 3328 regs/block; 65536/3328 = 19.
  gpu.reg_alloc_granularity = 256;
  const Occupancy rounded = arch.occupancy(gpu, 96, 33, 0);
  EXPECT_EQ(rounded.blocks_per_sm, 19);
  EXPECT_STREQ(rounded.limiter, "regs");
  EXPECT_LT(rounded.fraction, exact.fraction);
}

// --- validate_machine ---

TEST(ValidateMachine, AcceptsEveryBuiltin) {
  for (const MachineSpec& machine : builtin_machines())
    EXPECT_NO_THROW(validate_machine(machine)) << machine.name;
}

TEST(ValidateMachine, RejectsMalformedSpecsNamingTheField) {
  const auto expect_rejected = [](MachineSpec machine, const char* needle) {
    try {
      validate_machine(machine);
      FAIL() << "expected UsageError mentioning " << needle;
    } catch (const UsageError& error) {
      EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
          << error.what();
    }
  };

  MachineSpec zero_sms = anl_eureka();
  zero_sms.gpu.num_sms = 0;
  expect_rejected(zero_sms, "gpu.num_sms");

  MachineSpec bad_family = anl_eureka();
  bad_family.gpu.family = "quantum";
  expect_rejected(bad_family, "quantum");

  // Claimed sustained bandwidth above the link's theoretical capacity.
  MachineSpec impossible_bus = anl_eureka();
  impossible_bus.pcie.pinned_h2d.asymptotic_gbps = 100.0;
  expect_rejected(impossible_bus, "asymptotic_gbps");

  // A G80-class device never shipped on a gen5 link.
  MachineSpec anachronism = anl_eureka();
  anachronism.pcie.generation = 5;
  expect_rejected(anachronism, "generation");

  // CUDA families schedule 32-wide warps; 64 is a CDNA wavefront.
  MachineSpec wrong_warp = pcie3_kepler();
  wrong_warp.gpu.warp_size = 64;
  expect_rejected(wrong_warp, "warp_size");
}

// --- .gmach round trips of the architecture fields ---

TEST(MachineFileArchitecture, NewFieldsParseAndRoundTrip) {
  const MachineSpec machine = parse_machine(R"(
base pcie3_kepler
name granular
gpu.family pascal
gpu.reg_alloc_granularity 256
gpu.smem_alloc_granularity_bytes 128
)");
  EXPECT_EQ(machine.gpu.family, "pascal");
  EXPECT_EQ(machine.gpu.reg_alloc_granularity, 256u);
  EXPECT_EQ(machine.gpu.smem_alloc_granularity_bytes, 128u);

  // Textual fixed point: serialize -> parse -> serialize is stable, so
  // the new fields survive a round trip like every other field.
  const std::string text = serialize_machine(machine);
  EXPECT_EQ(serialize_machine(parse_machine(text)), text);
}

TEST(MachineFileArchitecture, UnknownBaseListsTheValidBases) {
  try {
    parse_machine("base hopper_h100\n");  // shipped spec, but not a builtin
    FAIL() << "expected MachineParseError";
  } catch (const MachineParseError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("hopper_h100"), std::string::npos) << what;
    EXPECT_NE(what.find("pcie3_kepler"), std::string::npos) << what;
  }
}

TEST(MachineFileArchitecture, EveryShippedSpecSerializesToAFixedPoint) {
  for (const auto& machine : MachineRegistry::global().machines()) {
    const std::string text = serialize_machine(*machine);
    const MachineSpec reparsed = parse_machine(text);
    EXPECT_EQ(serialize_machine(reparsed), text) << machine->name;
    EXPECT_EQ(reparsed.gpu.family, machine->gpu.family) << machine->name;
  }
}

// --- registry admission ---

TEST(MachineRegistry, RejectsDuplicateNames) {
  MachineRegistry registry;
  registry.add(anl_eureka());
  try {
    registry.add(anl_eureka());
    FAIL() << "expected UsageError";
  } catch (const UsageError& error) {
    EXPECT_NE(std::string(error.what()).find("already registered"),
              std::string::npos)
        << error.what();
  }
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MachineRegistry, RejectsInvalidSpecsAtAdmission) {
  MachineRegistry registry;
  MachineSpec broken = anl_eureka();
  broken.gpu.num_sms = -4;
  EXPECT_THROW(registry.add(broken), UsageError);
  EXPECT_TRUE(registry.empty());
}

TEST(MachineRegistry, FindListsTheFleetForUnknownNames) {
  MachineRegistry registry;
  registry.add(anl_eureka());
  registry.add(pcie2_fermi());
  EXPECT_EQ(registry.find("anl_eureka").name, "anl_eureka");
  EXPECT_EQ(registry.try_find("nope"), nullptr);
  try {
    registry.find("nope");
    FAIL() << "expected UsageError";
  } catch (const UsageError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("anl_eureka"), std::string::npos) << what;
    EXPECT_NE(what.find("pcie2_fermi"), std::string::npos) << what;
  }
}

TEST(MachineRegistry, ScansDirectoriesInFilenameOrder) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "gmach_scan_test";
  fs::create_directories(dir);
  {
    std::ofstream b(dir / "b.gmach");
    b << "base pcie3_kepler\nname bbb\n";
    std::ofstream a(dir / "a.gmach");
    a << "base pcie2_fermi\nname aaa\n";
    std::ofstream skip(dir / "notes.txt");
    skip << "not a machine\n";
  }
  MachineRegistry registry;
  EXPECT_EQ(registry.scan_directory(dir.string()), 2u);
  const std::vector<std::string> names = registry.names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "aaa");  // filename order, not directory order
  EXPECT_EQ(names[1], "bbb");

  MachineRegistry missing;
  EXPECT_THROW(missing.scan_directory((dir / "absent").string()),
               UsageError);
  fs::remove_all(dir);
}

TEST(MachineRegistry, GlobalFleetSpansPcieGen1ToGen5) {
  const MachineRegistry& registry = MachineRegistry::global();
  EXPECT_GE(registry.size(), 8u);
  EXPECT_EQ(registry.names().front(), "anl_eureka");  // builtins first

  std::set<int> generations;
  for (const auto& machine : registry.machines()) {
    generations.insert(machine->pcie.generation);
    // Every registered family resolves — and therefore validated.
    EXPECT_NE(Architecture::try_of(machine->gpu.family), nullptr)
        << machine->name;
  }
  for (int generation = 1; generation <= 5; ++generation)
    EXPECT_EQ(generations.count(generation), 1u)
        << "no machine with a PCIe gen" << generation << " bus";

  // find resolves the whole fleet, not just the builtins.
  EXPECT_EQ(registry.find("hopper_h100").pcie.generation, 5);
}

// --- the cross-machine sweep axis ---

TEST(CrossMachineSweep, MachinesAreTheOutermostGridAxis) {
  const std::vector<exec::JobSpec> specs =
      exec::SweepRequest::on(anl_eureka())
          .machines({"pcie2_fermi", "hopper_h100"})
          .workloads({"CFD"})
          .sizes({"97K", "193K"})
          .jobs();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].machine, "pcie2_fermi");
  EXPECT_EQ(specs[1].machine, "pcie2_fermi");
  EXPECT_EQ(specs[2].machine, "hopper_h100");
  EXPECT_EQ(specs[3].machine, "hopper_h100");
  EXPECT_EQ(specs[0].key(), "CFD/97K/x1@pcie2_fermi");

  // Same grid point, different machine: distinct fingerprint and
  // decorrelated measurement stream.
  EXPECT_NE(specs[0].fingerprint(), specs[2].fingerprint());
  EXPECT_NE(specs[0].stream_seed(1), specs[2].stream_seed(1));
}

TEST(CrossMachineSweep, SingleMachineSpecsKeepTheirLegacyIdentity) {
  const exec::JobSpec legacy{"CFD", "97K", 1};
  EXPECT_EQ(legacy.machine, "");
  EXPECT_EQ(legacy.key(), "CFD/97K/x1");  // no "@" suffix
  // The expansion of a request without .machines() is byte-identical to
  // the pre-cross-machine builder: same specs, same fingerprints.
  const std::vector<exec::JobSpec> specs =
      exec::SweepRequest::on(anl_eureka())
          .workloads({"CFD"})
          .sizes({"97K"})
          .jobs();
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].machine, "");
  EXPECT_EQ(specs[0].fingerprint(), legacy.fingerprint());
}

TEST(CrossMachineSweep, UnknownMachineFailsAtExpansion) {
  try {
    exec::SweepRequest::on(anl_eureka())
        .machines({"warp_nine"})
        .workloads({"CFD"})
        .jobs();
    FAIL() << "expected UsageError";
  } catch (const UsageError& error) {
    EXPECT_NE(std::string(error.what()).find("anl_eureka"),
              std::string::npos)
        << error.what();
  }
}

TEST(CrossMachineSweep, JournalBytesAreIndependentOfWorkerCount) {
  const std::string serial_path =
      ::testing::TempDir() + "xmachine_serial.jsonl";
  const std::string pooled_path =
      ::testing::TempDir() + "xmachine_pooled.jsonl";
  std::remove(serial_path.c_str());
  std::remove(pooled_path.c_str());

  const auto run = [&](int workers, const std::string& journal_path) {
    exec::SweepOptions options;
    options.workers = workers;
    options.journal_path = journal_path;
    options.record_wall_time = false;  // journal = pure function of results
    return exec::SweepRequest::on(anl_eureka())
        .machines({"pcie2_fermi", "hopper_h100"})
        .workloads({"CFD"})
        .sizes({"97K"})
        .run(options);
  };

  const exec::SweepSummary serial = run(1, serial_path);
  const exec::SweepSummary pooled = run(4, pooled_path);
  ASSERT_EQ(serial.outcomes.size(), 2u);
  ASSERT_TRUE(serial.outcomes[0].ok() && serial.outcomes[1].ok());

  // The journal records carry the machine identity and the bytes are
  // identical whatever the worker count.
  const std::string serial_bytes = slurp(serial_path);
  EXPECT_NE(serial_bytes.find("hopper_h100"), std::string::npos);
  EXPECT_EQ(serial_bytes, slurp(pooled_path));

  // And the per-machine results genuinely differ: the gen5 machine beats
  // the gen2 machine on both device and bus time.
  const auto& fermi = *serial.outcomes[0].report;
  const auto& hopper = *serial.outcomes[1].report;
  EXPECT_LT(hopper.predicted_kernel_s, fermi.predicted_kernel_s);
  EXPECT_LT(hopper.predicted_transfer_s, fermi.predicted_transfer_s);

  std::remove(serial_path.c_str());
  std::remove(pooled_path.c_str());
}

TEST(CrossMachineSweep, ShardAssignmentsCarryTheMachine) {
  // The shard wire protocol must round-trip the machine name — dropping
  // it silently projects every shard job on the supervisor's base
  // machine (the exact bug this test pins).
  const exec::JobSpec spec{"CFD", "97K", 2, "volta_v100"};
  const auto decoded = exec::shard::decode_job(exec::shard::encode_job(7, spec));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->index, 7u);
  EXPECT_EQ(decoded->spec.machine, "volta_v100");
  EXPECT_EQ(decoded->spec.fingerprint(), spec.fingerprint());

  // Single-machine assignments keep their legacy bytes: no machine key.
  const exec::JobSpec legacy{"CFD", "97K", 2};
  EXPECT_EQ(exec::shard::encode_job(7, legacy).find("machine"),
            std::string::npos);
  const auto legacy_decoded =
      exec::shard::decode_job(exec::shard::encode_job(7, legacy));
  ASSERT_TRUE(legacy_decoded.has_value());
  EXPECT_EQ(legacy_decoded->spec.machine, "");
}

}  // namespace
}  // namespace grophecy::hw
