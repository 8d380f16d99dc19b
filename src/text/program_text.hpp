// Text format for modeled MCAPI programs (".mcp" files).
//
// Everything the fluent ThreadBuilder API can construct has a line-oriented
// spelling, so programs, their safety properties, and regression corpora can
// live in files and flow through the command-line driver (tools/mcsym).
//
//   # comment to end of line
//   program figure1                  # optional, names the unit
//
//   thread t0
//     endpoint e0                    # endpoint owned by the enclosing thread
//     recv e0 -> A                   # blocking receive into local A
//     recv_i e0 -> B req 0           # non-blocking receive, request slot 0
//     test 0 -> flag                 # mcapi_test poll: flag := completed ? 1 : 0
//     wait 0                         # block until request slot 0 completes
//     wait_any 0,1 -> idx            # mcapi_wait_any: consume one, idx := index
//
//   thread t1
//     endpoint e1
//     send e1 -> e0 : A + 1          # payload expression: INT | VAR | VAR +/- INT
//     assign x = 41
//     label again
//     if x < 43 goto again
//     goto done
//     assert x == 43
//     nop
//     label done
//
//   property "A saw Y first" t0.A == 20      # end-of-run property, program scope
//
// Semantics notes mirrored from the builder API: endpoint names are global
// and unique; `send` requires the source endpoint to be owned by the sending
// thread; `recv`/`recv_i` require the receive endpoint to be owned by the
// receiving thread; labels are thread-local. Request slots are checked at
// run time, not here: a `test` before its `recv_i`, a `recv_i` on a slot
// still in flight, or a `wait`/`wait_any` that would take a request not in
// flight blocks the thread, so such a run ends in a deadlock, not a crash.
// The parser reports *all* errors it can recover from, with 1-based line
// numbers, instead of stopping at the first one.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "encode/property.hpp"
#include "mcapi/program.hpp"

namespace mcsym::text {

struct Diagnostic {
  std::uint32_t line = 0;  // 1-based; 0 = whole-file problem
  std::string message;

  [[nodiscard]] std::string str() const {
    return "line " + std::to_string(line) + ": " + message;
  }
};

/// A parsed unit: the finalized program plus any end-of-run properties.
struct ParsedProgram {
  std::string name;  // from the `program` header; empty if absent
  mcapi::Program program;
  std::vector<encode::Property> properties;
};

struct ParseOutcome {
  std::optional<ParsedProgram> parsed;  // engaged iff diagnostics is empty
  std::vector<Diagnostic> diagnostics;

  [[nodiscard]] bool ok() const { return parsed.has_value(); }
  /// All diagnostics joined by newlines (convenience for error reporting).
  [[nodiscard]] std::string error_text() const;
};

/// Parses a full `.mcp` unit. On any error the outcome carries diagnostics
/// and no program.
[[nodiscard]] ParseOutcome parse_program(std::string_view source);

/// Renders a finalized program (plus optional properties) in the format
/// parse_program accepts. Duplicate endpoint/thread names are disambiguated
/// with a `_<index>` suffix so the output is always unambiguous; therefore
/// printing is a fixed point: print(parse(print(p))) == print(p).
[[nodiscard]] std::string program_to_text(
    const mcapi::Program& program,
    std::span<const encode::Property> properties = {},
    std::string_view name = {});

struct PropertyParseResult {
  std::optional<encode::Property> property;  // engaged iff diagnostics empty
  std::vector<Diagnostic> diagnostics;

  [[nodiscard]] bool ok() const { return property.has_value(); }
};

/// Parses just a property line body (no leading `property` keyword), e.g.
/// `t0.A == 20` or `"label" t0.A != t1.C`. Thread names are resolved against
/// `program` and the referenced locals must exist in the named thread. Used
/// by the CLI's --property flag.
[[nodiscard]] PropertyParseResult parse_property(const mcapi::Program& program,
                                                 std::string_view body);

/// Renders a condition in source syntax ("A == 20"). `names` is the
/// interner of the program the condition came from. Shared by the program
/// printer and the verifier facade's reports.
[[nodiscard]] std::string cond_to_text(const mcapi::Cond& cond,
                                       const support::Interner& names);

}  // namespace mcsym::text
