// knl-repro command-line driver, exposed as a library function so the exit
// code contract is directly testable in-process.
//
// Subcommands:
//   run   [--out DIR] [--jobs N] [--only id,...] [--run-id ID]
//         [--resume ID] [--runs-dir DIR] [--fault-plan SPEC]
//         execute, then write every artifact and journal line in one
//         commit;
//         `--only <id>` naming one experiment also prints its figure or
//         table, the paper's expected shape and every check verdict
//   diff  [--golden DIR] [--from DIR] [--jobs N] [--only id,...]
//   bless [--golden DIR] [--jobs N] [--only id,...] rewrite golden baselines
//   list                                            print the registry
//
// Exit codes (the conformance-gate contract, covered by tests/repro/cli_test):
//   0  success; for `diff`, every metric within tolerance
//   1  conformance failure: out-of-tolerance metric, structural drift, or a
//      failed qualitative shape check
//   2  usage or I/O error (unknown flag/id, unreadable or corrupt golden
//      dir, execution failure)
//   3  interrupted, resumable: `run` stopped (SIGINT or an injected
//      pipeline interrupt) after committing the experiments that finished —
//      `knl-repro run --resume <id>` finishes the remainder
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace knl::repro {

inline constexpr int kExitSuccess = 0;
inline constexpr int kExitConformance = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitInterrupted = 3;

/// Cooperative interrupt flag. The knl-repro binary's SIGINT/SIGTERM
/// handlers call request_interrupt() (it is async-signal-safe); `run`
/// checks the flag before starting each experiment, and once it is set
/// commits the experiments that finished and exits kExitInterrupted. Tests
/// drive the same path directly.
/// cli_main never clears the flag itself — the embedding decides.
void request_interrupt() noexcept;
[[nodiscard]] bool interrupt_requested() noexcept;
void clear_interrupt() noexcept;

/// Run the CLI with `args` (argv[1..]); diagnostics go to `out`/`err`.
int cli_main(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err);

}  // namespace knl::repro
