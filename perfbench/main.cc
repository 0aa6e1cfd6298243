// The benchmark binary. run.py starts one process per step so
// each measured phase has its own peak RSS:
//
//   perfbench prepare ...   generate a workload input (+ oracle)
//   perfbench solve ...     one tool-equivalent solve, optionally traced
//   perfbench serve ...     the serve-mixed session
//
// Each prints one JSON object on its last stdout line.
#include <cstdio>
#include <cstring>

#include "common.h"

namespace perfbench {
int CmdPrepare(const Flags& flags);
int CmdSolve(const Flags& flags);
int CmdServe(const Flags& flags);
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench prepare|solve|serve --flag=...\n");
    return 2;
  }
  const perfbench::Flags flags(argc, argv, 2);
  if (std::strcmp(argv[1], "prepare") == 0) return perfbench::CmdPrepare(flags);
  if (std::strcmp(argv[1], "solve") == 0) return perfbench::CmdSolve(flags);
  if (std::strcmp(argv[1], "serve") == 0) return perfbench::CmdServe(flags);
  std::fprintf(stderr, "perfbench: unknown command %s\n", argv[1]);
  return 2;
}
