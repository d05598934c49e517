// hpcgpt_lint — standalone static race verifier front end.
//
//   hpcgpt_lint [options] file.c|file.f90 ...
//       parse each source file (C-flavoured or Fortran-flavoured
//       mini-language) and run the three-pass analyzer over it
//   hpcgpt_lint --drb c|fortran [--count N] [--seed S]
//       lint freshly generated DataRaceBench-style cases, one per
//       category, and compare the verdict against the ground truth
//
// Options:
//   --compat    restrict to the LLOV-compatible scope (loop constructs
//               only, no GCD/range refinement, first error only)
//   --quiet     print verdict lines only, not individual diagnostics
//
// Exit status: 0 when no file had errors, 1 when at least one did,
// 2 on usage errors (an unknown flag among them).

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "hpcgpt/analysis/verifier.hpp"
#include "hpcgpt/drb/drb.hpp"
#include "hpcgpt/minilang/parse.hpp"
#include "hpcgpt/support/error.hpp"
#include "hpcgpt/support/rng.hpp"

using namespace hpcgpt;

namespace {

struct Args {
  std::map<std::string, std::string> options;
  std::vector<std::string> positional;
};

/// True for flags that never take a value. Without this distinction the
/// parser used to swallow the token after a boolean flag, so
/// `hpcgpt_lint --quiet file.c` consumed file.c as the "value" of
/// --quiet and linted nothing.
bool is_boolean_flag(const std::string& name) {
  return name == "compat" || name == "quiet";
}

bool is_known_flag(const std::string& name) {
  return is_boolean_flag(name) || name == "drb" || name == "count" ||
         name == "seed";
}

/// Parses argv; an unknown flag is reported by name in `unknown` before
/// it can take the next token as its value.
Args parse_args(int argc, char** argv, std::string& unknown) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      args.positional.push_back(a);
      continue;
    }
    std::string name = a.substr(2);
    const std::size_t eq = name.find('=');
    if (!is_known_flag(name.substr(0, eq))) {
      unknown = name.substr(0, eq);
      return args;
    }
    if (eq != std::string::npos) {  // --key=value works for every flag
      args.options[name.substr(0, eq)] = name.substr(eq + 1);
    } else if (is_boolean_flag(name)) {
      args.options[name] = "1";
    } else if (i + 1 < argc &&
               std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.options[name] = argv[++i];
    } else {
      args.options[name] = "1";
    }
  }
  return args;
}

std::string opt(const Args& args, const std::string& key,
                const std::string& fallback) {
  const auto it = args.options.find(key);
  return it == args.options.end() ? fallback : it->second;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Lints one program; returns true when the report carries errors.
bool lint_program(const minilang::Program& program, const std::string& label,
                  const analysis::VerifierOptions& options, bool quiet,
                  const char* expected) {
  const analysis::Report report = analysis::verify(program, options);
  std::printf("== %s ==\n", label.c_str());
  if (!quiet) {
    for (const analysis::Diagnostic& d : report.diagnostics) {
      std::printf("%s\n", analysis::to_string(d).c_str());
    }
  }
  std::printf("%s\n", report.summary().c_str());
  if (expected != nullptr) {
    std::printf("verdict: %s (expected: %s)\n",
                report.has_errors() ? "race" : "clean", expected);
  } else {
    std::printf("verdict: %s\n", report.has_errors() ? "race" : "clean");
  }
  return report.has_errors();
}

int lint_drb(const Args& args, const analysis::VerifierOptions& options,
             bool quiet) {
  const std::string language = opt(args, "drb", "c");
  require(language == "c" || language == "fortran",
          "--drb takes c or fortran");
  const minilang::Flavor flavor = language == "fortran"
                                      ? minilang::Flavor::Fortran
                                      : minilang::Flavor::C;
  const std::size_t count = std::stoull(opt(args, "count", "14"));
  Rng rng(std::stoull(opt(args, "seed", "2023")));
  const auto& categories = drb::all_categories();
  bool any_errors = false;
  for (std::size_t i = 0; i < count; ++i) {
    const drb::Category category = categories[i % categories.size()];
    const drb::TestCase tc = drb::generate_case(category, flavor, rng);
    const std::string label =
        tc.id + " [" + drb::category_name(category) + "]";
    any_errors |= lint_program(tc.program, label, options, quiet,
                               tc.has_race ? "race" : "clean");
  }
  return any_errors ? 1 : 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: hpcgpt_lint [--compat] [--quiet] file...\n"
               "       hpcgpt_lint --drb c|fortran [--count N] [--seed S]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string unknown;
  const Args args = parse_args(argc, argv, unknown);
  if (!unknown.empty()) {
    std::fprintf(stderr, "hpcgpt_lint: unknown flag --%s\n", unknown.c_str());
    return usage();
  }
  analysis::VerifierOptions options;
  if (opt(args, "compat", "") == "1") {
    options = analysis::VerifierOptions::llov_compat();
  }
  const bool quiet = opt(args, "quiet", "") == "1";
  try {
    if (args.options.count("drb") > 0) {
      return lint_drb(args, options, quiet);
    }
    if (args.positional.empty()) return usage();
    bool any_errors = false;
    for (const std::string& path : args.positional) {
      const minilang::Program program = minilang::parse_any(read_file(path));
      any_errors |= lint_program(program, path, options, quiet, nullptr);
    }
    return any_errors ? 1 : 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "hpcgpt_lint: %s\n", e.what());
    return 2;
  }
}
