#include "skeleton/parse.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "skeleton/builder.h"
#include "util/contracts.h"

namespace grophecy::skeleton {

namespace {

/// One whitespace-split token of a line, with subscript brackets intact.
struct Line {
  int number = 0;
  std::vector<std::string> tokens;
};

/// Splits the document into comment-stripped, tokenized lines.
std::vector<Line> tokenize(std::string_view text) {
  std::vector<Line> lines;
  int number = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t end = text.find('\n', pos);
    std::string_view raw =
        text.substr(pos, end == std::string_view::npos ? text.size() - pos
                                                       : end - pos);
    ++number;
    pos = end == std::string_view::npos ? text.size() + 1 : end + 1;

    const std::size_t hash = raw.find('#');
    if (hash != std::string_view::npos) raw = raw.substr(0, hash);

    Line line;
    line.number = number;
    std::string token;
    for (char ch : raw) {
      if (std::isspace(static_cast<unsigned char>(ch))) {
        if (!token.empty()) line.tokens.push_back(std::move(token));
        token.clear();
      } else {
        token += ch;
      }
    }
    if (!token.empty()) line.tokens.push_back(std::move(token));
    if (!line.tokens.empty()) lines.push_back(std::move(line));
  }
  return lines;
}

std::optional<ElemType> parse_type(std::string_view name) {
  if (name == "f32") return ElemType::kF32;
  if (name == "f64") return ElemType::kF64;
  if (name == "i32") return ElemType::kI32;
  if (name == "i64") return ElemType::kI64;
  if (name == "c64") return ElemType::kComplexF32;
  if (name == "c128") return ElemType::kComplexF64;
  return std::nullopt;
}

std::int64_t parse_int(const std::string& token, int line) {
  try {
    std::size_t consumed = 0;
    const long long value = std::stoll(token, &consumed);
    if (consumed != token.size()) throw std::invalid_argument(token);
    return value;
  } catch (const std::exception&) {
    throw ParseError(line, "expected integer, got '" + token + "'");
  }
}

double parse_number(const std::string& token, int line) {
  double value = 0.0;
  try {
    std::size_t consumed = 0;
    value = std::stod(token, &consumed);
    if (consumed != token.size()) throw std::invalid_argument(token);
  } catch (const std::exception&) {
    throw ParseError(line, "expected number, got '" + token + "'");
  }
  // "nan" and "inf" are valid doubles but meaningless work amounts; a
  // skeleton containing them is malformed input, not a modeling choice.
  if (!std::isfinite(value))
    throw ParseError(line, "expected finite number, got '" + token + "'");
  return value;
}

/// key=value attribute, or nullopt if the token has no '='.
std::optional<std::pair<std::string, std::string>> split_attr(
    const std::string& token) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos) return std::nullopt;
  return std::make_pair(token.substr(0, eq), token.substr(eq + 1));
}

/// Parses an affine expression like "2*i-3+j" over declared loop names.
AffineExpr parse_affine(std::string_view text, const KernelBuilder& kernel,
                        int line) {
  AffineExpr expr;
  std::size_t pos = 0;
  bool first = true;
  while (pos < text.size()) {
    std::int64_t sign = 1;
    if (text[pos] == '+') {
      ++pos;
    } else if (text[pos] == '-') {
      sign = -1;
      ++pos;
    } else if (!first) {
      throw ParseError(line, "expected '+' or '-' in subscript '" +
                                 std::string(text) + "'");
    }
    first = false;
    if (pos >= text.size())
      throw ParseError(line, "dangling sign in subscript");

    // Term: INT ['*' IDENT] | IDENT ['*' INT]
    auto read_int = [&]() -> std::int64_t {
      std::size_t start = pos;
      while (pos < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[pos])))
        ++pos;
      if (start == pos)
        throw ParseError(line, "expected integer in subscript '" +
                                   std::string(text) + "'");
      return std::stoll(std::string(text.substr(start, pos - start)));
    };
    auto read_ident = [&]() -> std::string {
      std::size_t start = pos;
      while (pos < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[pos])) ||
              text[pos] == '_'))
        ++pos;
      if (start == pos)
        throw ParseError(line, "expected identifier in subscript '" +
                                   std::string(text) + "'");
      return std::string(text.substr(start, pos - start));
    };

    if (std::isdigit(static_cast<unsigned char>(text[pos]))) {
      const std::int64_t value = read_int();
      if (pos < text.size() && text[pos] == '*') {
        ++pos;
        const std::string var = read_ident();
        const LoopId loop = kernel.loop_id(var);
        expr.terms.emplace_back(loop, sign * value);
      } else {
        expr.constant += sign * value;
      }
    } else {
      const std::string var = read_ident();
      const LoopId loop = kernel.loop_id(var);
      std::int64_t coeff = 1;
      if (pos < text.size() && text[pos] == '*') {
        ++pos;
        coeff = read_int();
      }
      expr.terms.emplace_back(loop, sign * coeff);
    }
  }
  if (first) throw ParseError(line, "empty subscript");
  return expr;
}

/// Splits "name[sub][sub]..." into the name and bracketed pieces.
struct RefSpec {
  std::string array;
  std::vector<std::string> subscripts;
};

RefSpec parse_ref_spec(const std::string& token, int line) {
  RefSpec spec;
  const std::size_t bracket = token.find('[');
  if (bracket == std::string::npos) {
    spec.array = token;
    return spec;
  }
  spec.array = token.substr(0, bracket);
  std::size_t pos = bracket;
  while (pos < token.size()) {
    if (token[pos] != '[')
      throw ParseError(line, "malformed subscripts in '" + token + "'");
    const std::size_t close = token.find(']', pos);
    if (close == std::string::npos)
      throw ParseError(line, "unterminated '[' in '" + token + "'");
    spec.subscripts.push_back(token.substr(pos + 1, close - pos - 1));
    pos = close + 1;
  }
  if (spec.array.empty())
    throw ParseError(line, "missing array name in '" + token + "'");
  return spec;
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::string current;
  for (char ch : text) {
    if (ch == ',') {
      out.push_back(current);
      current.clear();
    } else {
      current += ch;
    }
  }
  out.push_back(current);
  return out;
}

}  // namespace

AppSkeleton parse_skeleton(std::string_view text) {
  const std::vector<Line> lines = tokenize(text);
  if (lines.empty()) throw ParseError(1, "empty document (no 'app' line)");

  std::optional<AppBuilder> app;
  KernelBuilder* kernel = nullptr;
  bool have_statement = false;
  std::string kernel_name;
  int kernel_line = 0;
  std::set<std::string> array_names;
  std::set<std::string> kernel_names;
  std::vector<std::pair<std::string, int>> pending_temporaries;

  // A kernel with no statements does no work and almost always means the
  // document was cut off mid-kernel; reject it at the kernel's own line.
  const auto check_kernel_complete = [&]() {
    if (kernel && !have_statement)
      throw ParseError(kernel_line, "kernel '" + kernel_name +
                                        "' has no statements (truncated?)");
  };

  for (const Line& line : lines) {
    const std::string& head = line.tokens.front();
    const int n = line.number;

    if (head == "app") {
      if (app) throw ParseError(n, "duplicate 'app' line");
      if (line.tokens.size() < 2) throw ParseError(n, "app needs a name");
      app.emplace(line.tokens[1]);
      for (std::size_t i = 2; i < line.tokens.size(); ++i) {
        const auto attr = split_attr(line.tokens[i]);
        if (attr && attr->first == "iterations") {
          try {
            app->iterations(static_cast<int>(parse_int(attr->second, n)));
          } catch (const ContractViolation& e) {
            throw ParseError(n, e.what());
          }
        } else {
          throw ParseError(n, "unknown app attribute '" + line.tokens[i] +
                                  "'");
        }
      }
      continue;
    }
    if (!app) throw ParseError(n, "expected 'app' before '" + head + "'");

    if (head == "array") {
      if (kernel)
        throw ParseError(n, "arrays must be declared before kernels");
      if (line.tokens.size() < 3)
        throw ParseError(n, "array needs a name and a type");
      const RefSpec spec = parse_ref_spec(line.tokens[2], n);
      const auto type = parse_type(spec.array);
      if (!type)
        throw ParseError(n, "unknown element type '" + spec.array + "'");
      if (spec.subscripts.empty())
        throw ParseError(n, "array needs at least one extent");
      std::vector<std::int64_t> dims;
      std::int64_t total_elements = 1;
      for (const std::string& extent : spec.subscripts) {
        const std::int64_t dim = parse_int(extent, n);
        if (dim <= 0)
          throw ParseError(n, "array extent must be positive, got '" +
                                  extent + "'");
        // Cap the element count so bytes() (elements x up-to-16-byte
        // elements) cannot overflow 64 bits further down the pipeline.
        if (dim > (std::int64_t{1} << 58) / total_elements)
          throw ParseError(n, "array too large (element count exceeds 2^58)");
        total_elements *= dim;
        dims.push_back(dim);
      }
      bool sparse = false, temporary = false;
      for (std::size_t i = 3; i < line.tokens.size(); ++i) {
        if (line.tokens[i] == "sparse")
          sparse = true;
        else if (line.tokens[i] == "temporary")
          temporary = true;
        else
          throw ParseError(n, "unknown array attribute '" + line.tokens[i] +
                                  "'");
      }
      if (!array_names.insert(line.tokens[1]).second)
        throw ParseError(n, "duplicate array '" + line.tokens[1] + "'");
      try {
        const ArrayId id =
            app->array(line.tokens[1], *type, std::move(dims), sparse);
        if (temporary) app->temporary(id);
      } catch (const ContractViolation& e) {
        throw ParseError(n, e.what());
      }
      continue;
    }

    if (head == "kernel") {
      if (line.tokens.size() < 2) throw ParseError(n, "kernel needs a name");
      check_kernel_complete();
      if (!kernel_names.insert(line.tokens[1]).second)
        throw ParseError(n, "duplicate kernel '" + line.tokens[1] + "'");
      try {
        kernel = &app->kernel(line.tokens[1]);
      } catch (const ContractViolation& e) {
        throw ParseError(n, e.what());
      }
      kernel_name = line.tokens[1];
      kernel_line = n;
      have_statement = false;
      for (std::size_t i = 2; i < line.tokens.size(); ++i) {
        const auto attr = split_attr(line.tokens[i]);
        if (attr && attr->first == "syncs")
          kernel->syncs(static_cast<int>(parse_int(attr->second, n)));
        else
          throw ParseError(n, "unknown kernel attribute '" + line.tokens[i] +
                                  "'");
      }
      continue;
    }
    if (!kernel)
      throw ParseError(n, "expected 'kernel' before '" + head + "'");

    if (head == "parallel" || head == "for") {
      std::size_t idx = 0;
      bool parallel = false;
      if (head == "parallel") {
        parallel = true;
        if (line.tokens.size() < 2 || line.tokens[1] != "for")
          throw ParseError(n, "'parallel' must be followed by 'for'");
        idx = 1;
      }
      // for <var> in <lo>..<hi> [step <s>]
      if (line.tokens.size() < idx + 4 || line.tokens[idx + 2] != "in")
        throw ParseError(n, "loop syntax: [parallel] for v in lo..hi");
      const std::string& var = line.tokens[idx + 1];
      const std::string& range = line.tokens[idx + 3];
      const std::size_t dots = range.find("..");
      if (dots == std::string::npos)
        throw ParseError(n, "loop range must be lo..hi, got '" + range + "'");
      const std::int64_t lo = parse_int(range.substr(0, dots), n);
      const std::int64_t hi = parse_int(range.substr(dots + 2), n);
      std::int64_t step = 1;
      if (line.tokens.size() >= idx + 6 && line.tokens[idx + 4] == "step")
        step = parse_int(line.tokens[idx + 5], n);
      try {
        kernel->loop_range(var, lo, hi, step, parallel);
      } catch (const ContractViolation& e) {
        throw ParseError(n, e.what());
      }
      continue;
    }

    if (head == "stmt") {
      double flops = 0.0, special = 0.0;
      std::optional<int> depth;
      for (std::size_t i = 1; i < line.tokens.size(); ++i) {
        const auto attr = split_attr(line.tokens[i]);
        if (!attr)
          throw ParseError(n, "stmt attributes must be key=value");
        if (attr->first == "flops")
          flops = parse_number(attr->second, n);
        else if (attr->first == "special")
          special = parse_number(attr->second, n);
        else if (attr->first == "depth")
          depth = static_cast<int>(parse_int(attr->second, n));
        else
          throw ParseError(n, "unknown stmt attribute '" + attr->first + "'");
      }
      try {
        kernel->statement(flops, special);
        if (depth) kernel->at_depth(*depth);
      } catch (const ContractViolation& e) {
        throw ParseError(n, e.what());
      }
      have_statement = true;
      continue;
    }

    if (head == "load" || head == "store" || head == "load_indirect" ||
        head == "store_indirect") {
      if (!have_statement)
        throw ParseError(n, "'" + head + "' before any 'stmt'");
      if (line.tokens.size() < 2)
        throw ParseError(n, "'" + head + "' needs an array reference");
      const RefSpec spec = parse_ref_spec(line.tokens[1], n);
      ArrayId array = -1;
      try {
        array = app->array_id(spec.array);
      } catch (const ContractViolation&) {
        throw ParseError(n, "unknown array '" + spec.array + "'");
      }

      if (head == "load_indirect" || head == "store_indirect") {
        if (!spec.subscripts.empty())
          throw ParseError(n, head + " takes no subscripts");
        if (head == "load_indirect")
          kernel->load_indirect(array);
        else
          kernel->store_indirect(array);
        continue;
      }

      std::vector<AffineExpr> subscripts;
      std::vector<int> indirect_dims;
      for (std::size_t d = 0; d < spec.subscripts.size(); ++d) {
        if (spec.subscripts[d] == "?") {
          indirect_dims.push_back(static_cast<int>(d));
          subscripts.push_back(AffineExpr::make_constant(0));
        } else {
          try {
            subscripts.push_back(parse_affine(spec.subscripts[d], *kernel, n));
          } catch (const ContractViolation& e) {
            throw ParseError(n, e.what());
          }
        }
      }
      std::vector<std::string> deps;
      for (std::size_t i = 2; i < line.tokens.size(); ++i) {
        const auto attr = split_attr(line.tokens[i]);
        if (attr && attr->first == "deps")
          deps = split_commas(attr->second);
        else
          throw ParseError(n, "unknown reference attribute '" +
                                  line.tokens[i] + "'");
      }
      try {
        if (!indirect_dims.empty()) {
          if (head == "load")
            kernel->load_gather(array, std::move(subscripts),
                                std::move(indirect_dims), deps);
          else
            kernel->store_scatter(array, std::move(subscripts),
                                  std::move(indirect_dims), deps);
        } else {
          if (!deps.empty())
            throw ParseError(n, "deps= requires a '?' subscript");
          if (head == "load")
            kernel->load(array, std::move(subscripts));
          else
            kernel->store(array, std::move(subscripts));
        }
      } catch (const ContractViolation& e) {
        throw ParseError(n, e.what());
      }
      continue;
    }

    throw ParseError(n, "unknown directive '" + head + "'");
  }

  if (!app) throw ParseError(1, "missing 'app' line");
  check_kernel_complete();
  try {
    return app->build();
  } catch (const ContractViolation& e) {
    throw ParseError(lines.back().number, std::string("validation: ") +
                                              e.what());
  }
}

AppSkeleton parse_skeleton_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw ParseError(path, 0, "cannot open file");
  std::ostringstream contents;
  contents << file.rdbuf();
  try {
    return parse_skeleton(contents.str());
  } catch (const ParseError& e) {
    throw ParseError(path, e.line(), e.message());
  }
}

}  // namespace grophecy::skeleton
