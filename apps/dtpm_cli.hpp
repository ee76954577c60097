// The `dtpm` command-line driver: runs declarative experiment configs and
// sweep grids (sim/config_io.hpp) against the closed-loop engine and lists
// everything selectable by name. Exposed as a function (not just a main) so
// tests and user binaries that register custom policies/scenario families
// can drive the exact CLI code path in-process:
//
//   dtpm run   <config.json>  [--out DIR] [--with-model] [--quiet]
//   dtpm sweep <grid.json>    [-j N] [--out DIR] [--smoke] [--quiet]
//   dtpm list  <policies|governors|scenarios|platforms|benchmarks|engines>
//              [--long]
//
// Exit codes: 0 success, 1 config/runtime failure (including any failed run
// in a sweep), 2 usage error.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace dtpm::cli {

/// Runs one CLI invocation. `args` excludes the program name. Never throws:
/// failures are reported on `err` and through the exit code.
int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

}  // namespace dtpm::cli
