// Crash-safe append-only result journal.
//
// A thousand-point sweep campaign must survive the process dying at any
// instant — power loss, OOM kill, ctrl-C — losing at most the record that
// was mid-write. The journal provides exactly that contract and nothing
// more:
//
//   * append-only: one record per line, never rewritten, never reordered;
//   * checksummed: every line carries a CRC-32 of its payload, so a torn
//     final line (the crash artifact) is detected and skipped on read
//     instead of being parsed as garbage;
//   * durable: an append reaches the OS in one write and is fsync'd
//     either inline (the default) or at the caller's next sync(). The
//     sweep engine group-commits: it frames each run of consecutive
//     finished records into one buffer (frame()), writes it with one
//     fwrite and fflush (append_framed()), and fsyncs before it waits.
//     An acknowledged record survives an immediate crash; an unsynced
//     tail is at worst the torn-line case the reader already tolerates,
//     and open_append() cuts such a torn line before appending, so the
//     next record starts a fresh line;
//   * thread-safe: append/sync/close serialize on an internal mutex, so
//     concurrent writers cannot interleave bytes of two records;
//   * tolerant: read() never throws on a damaged file — it returns every
//     record whose checksum verifies and counts the lines that did not.
//
// Line format (strict JSON, one object per line):
//
//   {"crc":"<8 lowercase hex>","rec":<payload>}
//
// where <payload> is the caller's record (exec::JobRecord serializes to a
// flat JSON object) and the checksum covers the payload bytes exactly.
// The journal itself treats payloads as opaque strings; pairing records
// to jobs is the SweepEngine's business (see exec/sweep.h).
#pragma once

#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace grophecy::exec {

/// Everything a read recovered from a journal file.
///
/// Corruption is reported *with its location*, because the two places it
/// can appear mean very different things. A torn FINAL line is the
/// expected crash artifact: the writer died mid-append, and append-only
/// discipline guarantees nothing after it existed. A corrupt INTERIOR
/// line — one followed by further lines — cannot be produced by a crash
/// of this writer at all; it means the file was damaged after the fact
/// (bit rot, truncation+reuse, a foreign editor) and the caller should
/// say so loudly instead of shrugging it off as a torn tail.
struct JournalReadResult {
  /// Checksum-verified payloads, in file order (append order).
  std::vector<std::string> records;
  /// Lines that failed the format or checksum check (tail + interior).
  int corrupt_lines = 0;
  /// 1 when the final line of the file failed validation (the torn-tail
  /// crash artifact), else 0.
  int corrupt_tail = 0;
  /// Corrupt lines that are followed by at least one further line —
  /// never a crash artifact; real damage.
  int corrupt_interior = 0;
};

/// The journal file handle. Opening is separate from reading so a resume
/// can first read the existing records, then append new ones to the same
/// file.
class ResultJournal {
 public:
  ResultJournal() = default;
  ~ResultJournal();

  ResultJournal(const ResultJournal&) = delete;
  ResultJournal& operator=(const ResultJournal&) = delete;

  /// Reads and verifies `path`. A missing file is an empty journal, not
  /// an error; a damaged file yields its valid records plus a count of
  /// the rest. Never throws.
  static JournalReadResult read(const std::string& path);

  /// Opens `path` for appending (created if missing). A torn final line —
  /// bytes after the last newline, which only a crash mid-write leaves —
  /// is cut first. Throws grophecy::UsageError when the file cannot be
  /// opened.
  void open_append(const std::string& path);

  bool is_open() const { return file_ != nullptr; }

  /// Appends one record, flushed to the OS immediately. The payload must
  /// be a single line (no '\n'); the checksum wrapper is added here.
  /// With sync_now (the default) the record is also fsync'd before
  /// returning; pass false to batch the fsync and call sync() once per
  /// group of appends.
  void append(std::string_view payload, bool sync_now = true);

  /// Appends `payload`'s journal line — checksum wrapper and newline — to
  /// `lines`, for append_framed. The payload must be a single line.
  static void frame(std::string& lines, std::string_view payload);
  /// The bytes frame() adds around a payload.
  static constexpr std::size_t kFrameBytes = 26;

  /// Writes lines built by frame() with one fwrite and one fflush, so a
  /// group of records costs one write. Not fsync'd unless sync_now.
  void append_framed(std::string_view lines, bool sync_now = false);

  /// Pushes everything appended so far through the OS cache (fsync).
  void sync();

  void close();

 private:
  void sync_locked();

  mutable std::mutex mutex_;  ///< Serializes append/sync/close.
  std::FILE* file_ = nullptr;
};

}  // namespace grophecy::exec
