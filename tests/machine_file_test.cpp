// Tests for the .gmach machine-description format: parsing, base seeding,
// overrides, error reporting, serialization round trips, and end-to-end
// use (calibrating and projecting against a user-defined machine).
#include <gtest/gtest.h>

#include <fstream>

#include "core/grophecy.h"
#include "hw/machine_file.h"
#include "hw/registry.h"
#include "pcie/bus.h"
#include "pcie/calibrator.h"
#include "skeleton/builder.h"

namespace grophecy::hw {
namespace {

TEST(MachineFile, DefaultsToThePaperTestbed) {
  const MachineSpec machine = parse_machine("name just_renamed\n");
  EXPECT_EQ(machine.name, "just_renamed");
  EXPECT_EQ(machine.gpu.name, anl_eureka().gpu.name);
  EXPECT_DOUBLE_EQ(machine.pcie.pinned_h2d.asymptotic_gbps,
                   anl_eureka().pcie.pinned_h2d.asymptotic_gbps);
}

TEST(MachineFile, BaseAndOverrides) {
  const MachineSpec machine = parse_machine(R"(
# my workstation
base pcie3_kepler
name my_workstation
cpu.threads 24
gpu.num_sms 46
gpu.mem_bandwidth_gbps 448
pcie.pinned_h2d.asymptotic_gbps 12.3
alloc.pinned_base_s 25e-6
)");
  EXPECT_EQ(machine.name, "my_workstation");
  EXPECT_EQ(machine.cpu.threads, 24);
  EXPECT_EQ(machine.gpu.num_sms, 46);
  EXPECT_DOUBLE_EQ(machine.gpu.mem_bandwidth_gbps, 448.0);
  EXPECT_DOUBLE_EQ(machine.pcie.pinned_h2d.asymptotic_gbps, 12.3);
  EXPECT_DOUBLE_EQ(machine.alloc.pinned_base_s, 25e-6);
  // Unlisted fields come from the base.
  EXPECT_EQ(machine.gpu.max_threads_per_sm,
            pcie3_kepler().gpu.max_threads_per_sm);
}

TEST(MachineFile, NamesMayContainSpaces) {
  const MachineSpec machine =
      parse_machine("cpu.name AMD EPYC 7763 64-Core\n");
  EXPECT_EQ(machine.cpu.name, "AMD EPYC 7763 64-Core");
}

TEST(MachineFile, ErrorsCarryLineNumbers) {
  try {
    parse_machine("name x\ngpu.frobs 3\n");
    FAIL() << "expected MachineParseError";
  } catch (const MachineParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("unknown field"),
              std::string::npos);
  }
  EXPECT_THROW(parse_machine("gpu.num_sms not_a_number\n"),
               MachineParseError);
  EXPECT_THROW(parse_machine("name x\nbase anl_eureka\n"),
               MachineParseError);  // base must come first
  EXPECT_THROW(parse_machine("base no_such_machine\n"), MachineParseError);
  EXPECT_THROW(parse_machine(""), MachineParseError);
  EXPECT_THROW(parse_machine_file("/no/such/file.gmach"),
               MachineParseError);
}

TEST(MachineFile, ErrorsAreTypedParseErrors) {
  // MachineParseError slots into the framework taxonomy: catchable as
  // grophecy::ParseError and as grophecy::Error with kind kParse.
  try {
    parse_machine("gpu.frobs 3\n");
    FAIL() << "expected an error";
  } catch (const grophecy::Error& e) {
    EXPECT_EQ(e.kind(), grophecy::ErrorKind::kParse);
    EXPECT_FALSE(e.retryable());
  }
  try {
    parse_machine("gpu.num_sms nope\n");
    FAIL() << "expected an error";
  } catch (const grophecy::ParseError& e) {
    EXPECT_TRUE(e.file().empty());  // in-memory document, no file
    EXPECT_EQ(e.line(), 1);
    EXPECT_NE(e.message().find("expected number"), std::string::npos);
  }
}

TEST(MachineFile, OutOfRangeValuesAreParseErrors) {
  EXPECT_THROW(parse_machine("cpu.clock_ghz 1e999\n"), MachineParseError);
  EXPECT_THROW(parse_machine("cpu.clock_ghz 3..2\n"), MachineParseError);
}

TEST(MachineFile, FileErrorsNameTheFile) {
  const std::string path = ::testing::TempDir() + "bad_machine.gmach";
  {
    std::ofstream out(path);
    out << "name ok_so_far\ngpu.frobs 3\n";
  }
  try {
    parse_machine_file(path);
    FAIL() << "expected MachineParseError";
  } catch (const MachineParseError& e) {
    EXPECT_EQ(e.file(), path);
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  // Unreadable files carry the path too, with no line number.
  try {
    parse_machine_file("/no/such/file.gmach");
    FAIL() << "expected MachineParseError";
  } catch (const MachineParseError& e) {
    EXPECT_EQ(e.file(), "/no/such/file.gmach");
    EXPECT_EQ(e.line(), 0);
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

TEST(MachineFile, SerializeRoundTripsEveryRegisteredMachine) {
  for (const MachineSpec& machine : builtin_machines()) {
    const std::string text = serialize_machine(machine);
    const MachineSpec reparsed = parse_machine(text);
    // Textual fixed point implies field-for-field equality.
    EXPECT_EQ(serialize_machine(reparsed), text) << machine.name;
    EXPECT_EQ(reparsed.name, machine.name);
    EXPECT_DOUBLE_EQ(reparsed.gpu.mem_bandwidth_gbps,
                     machine.gpu.mem_bandwidth_gbps);
  }
}

TEST(MachineFile, FieldInventoryCoversEverySubsystem) {
  const auto names = machine_field_names();
  EXPECT_GT(names.size(), 55u);
  int cpu = 0, gpu = 0, pcie = 0, alloc = 0;
  for (const std::string& name : names) {
    if (name.rfind("cpu.", 0) == 0) ++cpu;
    if (name.rfind("gpu.", 0) == 0) ++gpu;
    if (name.rfind("pcie.", 0) == 0) ++pcie;
    if (name.rfind("alloc.", 0) == 0) ++alloc;
  }
  EXPECT_GE(cpu, 10);
  EXPECT_GE(gpu, 20);
  EXPECT_GE(pcie, 25);
  EXPECT_GE(alloc, 7);
}

TEST(MachineFile, UserMachineDrivesTheFullPipeline) {
  // A faster bus defined purely in text: calibration must pick it up and
  // shrink projected transfers accordingly.
  const MachineSpec fast = parse_machine(R"(
name fast_bus
pcie.pinned_h2d.asymptotic_gbps 25.0
pcie.pinned_d2h.asymptotic_gbps 24.0
)");
  core::Grophecy stock_engine{anl_eureka()};
  core::Grophecy fast_engine{fast};
  EXPECT_NEAR(fast_engine.bus_model().h2d.bandwidth_gbps(), 25.0, 1.0);

  skeleton::AppBuilder builder("copy");
  const auto a = builder.array("a", skeleton::ElemType::kF32, {1 << 22});
  const auto b = builder.array("b", skeleton::ElemType::kF32, {1 << 22});
  skeleton::KernelBuilder& k = builder.kernel("k");
  k.parallel_loop("i", 1 << 22);
  k.statement(1.0).load(a, {k.var("i")}).store(b, {k.var("i")});
  const skeleton::AppSkeleton app = builder.build();

  const double stock = stock_engine.project(app).predicted_transfer_s;
  const double quick = fast_engine.project(app).predicted_transfer_s;
  EXPECT_NEAR(stock / quick, 10.0, 2.0);
}

}  // namespace
}  // namespace grophecy::hw
