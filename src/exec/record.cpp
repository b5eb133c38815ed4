// JobSpec identity and JobRecord (de)serialization for the sweep journal.
//
// This file is the JSONL boundary of the sweep types: in memory the error
// taxonomy is grophecy::ErrorKind and the record status is RecordStatus;
// the strings ("measurement", "timeout", ..., "ok"/"failed") exist only
// on the wire, written and parsed here. The journal format is unchanged
// from the stringly-typed era, so any previously written journal resumes.
#include <cstdint>

#include "exec/sweep.h"
#include "util/checksum.h"
#include "util/jsonl.h"

namespace grophecy::exec {

namespace {

constexpr const char* to_string(RecordStatus status) {
  return status == RecordStatus::kOk ? "ok" : "failed";
}

std::optional<RecordStatus> record_status_from_string(std::string_view name) {
  if (name == "ok") return RecordStatus::kOk;
  if (name == "failed") return RecordStatus::kFailed;
  return std::nullopt;
}

}  // namespace

std::string JobSpec::key() const {
  std::string key =
      workload + "/" + size_label + "/x" + std::to_string(iterations);
  if (!machine.empty()) key += "@" + machine;
  return key;
}

/// The canonical identity string behind fingerprint() and stream_seed().
/// The separator byte keeps ("ab","c") distinct from ("a","bc"); the
/// iteration count is folded in via its decimal form. The machine joins
/// only when named: a legacy single-machine spec keeps the exact identity
/// (and so fingerprint, stream seed, and journal key) it always had.
static std::string identity_of(const JobSpec& spec) {
  std::string identity = spec.workload + '\x1f' + spec.size_label + '\x1f' +
                         std::to_string(spec.iterations);
  if (!spec.machine.empty()) identity += '\x1f' + spec.machine;
  return identity;
}

std::string JobSpec::fingerprint() const {
  return util::hex_digits(util::fnv1a64(identity_of(*this)), 16);
}

std::uint64_t JobSpec::stream_seed(std::uint64_t base_seed) const {
  return util::splitmix64(base_seed ^ util::fnv1a64(identity_of(*this)));
}

std::string JobRecord::to_json() const {
  util::FlatJson object;
  object.emplace_back("fp", fingerprint);
  object.emplace_back("workload", workload);
  object.emplace_back("size", size_label);
  object.emplace_back("iterations", static_cast<double>(iterations));
  object.emplace_back("status", std::string(to_string(status)));
  object.emplace_back("attempts", static_cast<double>(attempts));
  object.emplace_back("elapsed_s", elapsed_s);
  if (status != RecordStatus::kOk) {
    object.emplace_back(
        "error_kind",
        std::string(error_kind ? grophecy::to_string(*error_kind) : ""));
    object.emplace_back("error_message", error_message);
    // Only cross-machine jobs carry a machine identity into failed
    // records; single-machine journals keep their historical bytes.
    if (!machine.empty()) object.emplace_back("machine", machine);
  } else {
    object.emplace_back("machine", machine);
    object.emplace_back("predicted_kernel_s", predicted_kernel_s);
    object.emplace_back("measured_kernel_s", measured_kernel_s);
    object.emplace_back("predicted_transfer_s", predicted_transfer_s);
    object.emplace_back("measured_transfer_s", measured_transfer_s);
    object.emplace_back("measured_cpu_s", measured_cpu_s);
    object.emplace_back("input_bytes", input_bytes);
    object.emplace_back("output_bytes", output_bytes);
    object.emplace_back("calibration_fallback", calibration_fallback);
  }
  return util::write_flat_json(object);
}

std::optional<JobRecord> JobRecord::from_json(std::string_view payload) {
  const auto object = util::parse_flat_json(payload);
  if (!object) return std::nullopt;

  JobRecord record;
  const auto fp = util::json_string(*object, "fp");
  const auto workload = util::json_string(*object, "workload");
  const auto size = util::json_string(*object, "size");
  const auto iterations = util::json_number(*object, "iterations");
  const auto status = util::json_string(*object, "status");
  const auto attempts = util::json_number(*object, "attempts");
  const auto elapsed = util::json_number(*object, "elapsed_s");
  if (!fp || !workload || !size || !iterations || !status || !attempts ||
      !elapsed)
    return std::nullopt;
  const auto parsed_status = record_status_from_string(*status);
  if (!parsed_status) return std::nullopt;
  record.fingerprint = *fp;
  record.workload = *workload;
  record.size_label = *size;
  record.iterations = static_cast<int>(*iterations);
  record.status = *parsed_status;
  record.attempts = static_cast<int>(*attempts);
  record.elapsed_s = *elapsed;

  if (record.status != RecordStatus::kOk) {
    // An unknown kind string (from a future or foreign writer) degrades
    // to kException rather than rejecting the record: the identity and
    // message are still worth replaying.
    if (const auto kind = util::json_string(*object, "error_kind"))
      record.error_kind =
          error_kind_from_string(*kind).value_or(ErrorKind::kException);
    record.error_message =
        util::json_string(*object, "error_message").value_or("");
    record.machine = util::json_string(*object, "machine").value_or("");
    return record;
  }

  const auto machine = util::json_string(*object, "machine");
  const auto pk = util::json_number(*object, "predicted_kernel_s");
  const auto mk = util::json_number(*object, "measured_kernel_s");
  const auto pt = util::json_number(*object, "predicted_transfer_s");
  const auto mt = util::json_number(*object, "measured_transfer_s");
  const auto cpu = util::json_number(*object, "measured_cpu_s");
  const auto in_b = util::json_number(*object, "input_bytes");
  const auto out_b = util::json_number(*object, "output_bytes");
  const auto fallback = util::json_bool(*object, "calibration_fallback");
  if (!machine || !pk || !mk || !pt || !mt || !cpu || !in_b || !out_b ||
      !fallback)
    return std::nullopt;
  record.machine = *machine;
  record.predicted_kernel_s = *pk;
  record.measured_kernel_s = *mk;
  record.predicted_transfer_s = *pt;
  record.measured_transfer_s = *mt;
  record.measured_cpu_s = *cpu;
  record.input_bytes = *in_b;
  record.output_bytes = *out_b;
  record.calibration_fallback = *fallback;
  return record;
}

JobRecord JobRecord::from_report(const JobSpec& spec,
                                 const core::ProjectionReport& report,
                                 int attempts, double elapsed_s) {
  JobRecord record;
  record.fingerprint = spec.fingerprint();
  record.workload = spec.workload;
  record.size_label = spec.size_label;
  record.iterations = spec.iterations;
  record.status = RecordStatus::kOk;
  record.attempts = attempts;
  record.elapsed_s = elapsed_s;
  record.machine = report.machine_name;
  record.predicted_kernel_s = report.predicted_kernel_s;
  record.measured_kernel_s = report.measured_kernel_s;
  record.predicted_transfer_s = report.predicted_transfer_s;
  record.measured_transfer_s = report.measured_transfer_s;
  record.measured_cpu_s = report.measured_cpu_s;
  record.input_bytes = static_cast<double>(report.plan.input_bytes());
  record.output_bytes = static_cast<double>(report.plan.output_bytes());
  record.calibration_fallback = report.calibration.used_fallback;
  return record;
}

JobRecord JobRecord::from_error(const JobSpec& spec, const JobError& error,
                                int attempts, double elapsed_s) {
  JobRecord record;
  record.fingerprint = spec.fingerprint();
  record.workload = spec.workload;
  record.size_label = spec.size_label;
  record.iterations = spec.iterations;
  record.status = RecordStatus::kFailed;
  record.attempts = attempts;
  record.elapsed_s = elapsed_s;
  record.error_kind = error.kind;
  record.error_message = error.message;
  record.machine = spec.machine;
  return record;
}

core::ProjectionReport JobRecord::to_report() const {
  core::ProjectionReport report;
  report.app_name = workload + " " + size_label;
  report.machine_name = machine;
  report.iterations = iterations;
  report.predicted_kernel_s = predicted_kernel_s;
  report.measured_kernel_s = measured_kernel_s;
  report.predicted_transfer_s = predicted_transfer_s;
  report.measured_transfer_s = measured_transfer_s;
  report.measured_cpu_s = measured_cpu_s;
  report.calibration.used_fallback = calibration_fallback;
  report.calibration.converged = !calibration_fallback;
  return report;
}

}  // namespace grophecy::exec
