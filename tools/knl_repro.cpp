// knl-repro: the paper-reproduction pipeline CLI (run / diff / bless / list).
// All logic lives in repro/cli.cpp so the exit-code contract is unit-tested;
// this translation unit only adapts argv and installs the signal handlers
// backing the "interrupted, resumable" (exit 3) contract: SIGINT/SIGTERM
// raise a cooperative flag, `run` finishes the experiments in flight,
// starts no more, commits what finished and exits.
#include <csignal>
#include <iostream>
#include <string>
#include <vector>

#include "repro/cli.hpp"

namespace {

extern "C" void handle_interrupt(int) { knl::repro::request_interrupt(); }

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGINT, handle_interrupt);
  std::signal(SIGTERM, handle_interrupt);
  const std::vector<std::string> args(argv + 1, argv + argc);
  return knl::repro::cli_main(args, std::cout, std::cerr);
}
