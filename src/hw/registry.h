// Built-in machines.
//
// `anl_eureka()` reproduces the paper's testbed (§IV-A): a node of Argonne's
// Eureka data analysis and visualization cluster with a quad-core Intel Xeon
// E5405 (2.00 GHz, 8 OpenMP threads) and an NVIDIA Quadro FX 5600 in a PCIe
// v1 x16 slot (alpha ~ 10 us, ~2.5 GB/s pinned bandwidth, §III-C).
//
// Two additional machines (PCIe v2 Fermi-class, PCIe v3 Kepler-class) are
// provided to exercise the claim that the framework is not system specific:
// the calibration benchmark rebuilds the bus model automatically on each.
//
// These three are the *built-in* machines: constructed in code, always
// available, and the only names a `.gmach` `base` directive may seed from
// (file-backed machines cannot base on each other — that would make a spec's
// meaning depend on registry scan order). The full fleet — builtins plus
// every shipped and user-provided `.gmach` spec — lives in MachineRegistry
// (hw/machine_registry.h); new code should look machines up there.
#pragma once

#include <vector>

#include "hw/machine.h"

namespace grophecy::hw {

/// The paper's testbed: Xeon E5405 + Quadro FX 5600 over PCIe v1 x16.
MachineSpec anl_eureka();

/// A PCIe v2 system: Westmere Xeon + Fermi-class Tesla C2050.
MachineSpec pcie2_fermi();

/// A PCIe v3 system: Sandy Bridge Xeon + Kepler-class Tesla K20.
MachineSpec pcie3_kepler();

/// The built-in machines, `anl_eureka()` first. These are the valid
/// `.gmach` `base` seeds.
std::vector<MachineSpec> builtin_machines();

}  // namespace grophecy::hw
