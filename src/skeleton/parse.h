// Text format for code skeletons (.gskel).
//
// GROPHECY's input is "a simplified description of the corresponding CPU
// code" (paper §II-C). The C++ builder API is one way to write that
// description; this module provides the other: a small, line-oriented
// language so users can describe kernels without writing C++. The
// quickstart example in this syntax:
//
//   app vector_add
//   array a f32[16777216]
//   array b f32[16777216]
//   array c f32[16777216]
//
//   kernel add
//     parallel for i in 0..16777216
//     stmt flops=1
//       load a[i]
//       load b[i]
//       store c[i]
//
// Grammar (line oriented; '#' starts a comment; indentation is ignored):
//
//   app <name> [iterations=<int>]
//   array <name> <type>[<extent>]... [sparse] [temporary]
//   kernel <name> [syncs=<int>]
//     [parallel] for <var> in <lo>..<hi> [step <int>]
//     stmt flops=<num> [special=<num>] [depth=<int>]
//       load  <array>[<subscript>]...  [deps=<var>,...]
//       store <array>[<subscript>]...  [deps=<var>,...]
//       load_indirect <array>
//       store_indirect <array>
//
// <type> is one of f32 f64 i32 i64 c64 c128. A <subscript> is an affine
// expression over loop variables (e.g. `i`, `i+1`, `2*i-3`, `i+2*j`), or
// `?` for a data-dependent dimension; `deps=` names the loops the hidden
// index depends on (CSR SpMM: `load B[?][j] deps=i,k`).
//
// Parse errors throw skeleton::ParseError (a grophecy::ParseError, kind
// ErrorKind::kParse) with the source name, line number, and message.
#pragma once

#include <string>
#include <string_view>

#include "skeleton/skeleton.h"
#include "util/error.h"

namespace grophecy::skeleton {

/// Error in a .gskel document. what() is "<file>: line <N>: <message>";
/// the file part is present when the document came from a file
/// (parse_skeleton_file attaches the path on rethrow).
class ParseError : public grophecy::ParseError {
 public:
  ParseError(int line, const std::string& message)
      : grophecy::ParseError("", line, message) {}
  ParseError(std::string file, int line, std::string message)
      : grophecy::ParseError(std::move(file), line, std::move(message)) {}
};

/// Parses a .gskel document into a validated AppSkeleton.
AppSkeleton parse_skeleton(std::string_view text);

/// Reads and parses a .gskel file; throws ParseError (with the file path
/// attached) / ContractViolation.
AppSkeleton parse_skeleton_file(const std::string& path);

}  // namespace grophecy::skeleton
