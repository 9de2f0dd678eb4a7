// perfbench_corpus — writes the seeded MiniC corpus of the synth-serve
// workload.
//
//   perfbench_corpus --seed N --programs K --functions F --statements S
//                    --expr-depth D --loop-nest L --out DIR
//
// Program i is synth::generate_minic_program with the given shape and a
// per-program seed derived from (N, i), written to DIR/p<i>.mc. The same
// arguments always write the same bytes; amdrelc only ever sees the
// files.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "synth/minic_fuzzer.h"

namespace {

// splitmix64: spreads consecutive (seed, index) pairs over the whole
// 64-bit range so neighbouring programs share no generator state.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_corpus --seed N --programs K --functions F "
               "--statements S --expr-depth D --loop-nest L --out DIR\n");
  std::exit(2);
}

long parse_count(const char* text, long lo, long hi) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < lo || value > hi) usage();
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 0;
  long programs = -1;
  amdrel::synth::FuzzConfig shape;
  std::string out;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage();
      have_seed = true;
    } else if (flag == "--programs") {
      programs = parse_count(value, 1, 256);
    } else if (flag == "--functions") {
      shape.functions = static_cast<int>(parse_count(value, 0, 16));
    } else if (flag == "--statements") {
      shape.statements = static_cast<int>(parse_count(value, 1, 200));
    } else if (flag == "--expr-depth") {
      shape.max_expr_depth = static_cast<int>(parse_count(value, 1, 8));
    } else if (flag == "--loop-nest") {
      shape.max_loop_nest = static_cast<int>(parse_count(value, 0, 6));
    } else if (flag == "--out") {
      out = value;
    } else {
      usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || programs < 0 || out.empty()) usage();

  for (long i = 0; i < programs; ++i) {
    shape.seed = mix(seed ^ mix(static_cast<std::uint64_t>(i)));
    const std::string path = out + "/p" + std::to_string(i) + ".mc";
    std::ofstream file(path, std::ios::binary);
    file << amdrel::synth::generate_minic_program(shape);
    file.flush();
    if (!file.good()) {
      std::fprintf(stderr, "perfbench_corpus: cannot write %s\n",
                   path.c_str());
      return 1;
    }
  }
  return 0;
}
