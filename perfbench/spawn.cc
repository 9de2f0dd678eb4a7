// perfbench_spawn — runs one command and reports what it cost.
//
//   perfbench_spawn STDERR_FILE COMMAND [ARG...]
//
// Runs COMMAND in the current directory with stdout on /dev/null and
// stderr in STDERR_FILE, waits for it and prints
//   <wall seconds> <user+sys CPU seconds> <max RSS KiB> <exit code>
// The CPU time and max RSS are wait4's, so they cover COMMAND and every
// descendant it waited for. A command killed by signal N exits 128+N.
//
// The benchmark spawns its invocations through this small program
// because Linux charges a spawning process's resident set to the child's
// max-RSS high-water mark until exec; spawned from a large interpreter,
// every invocation would report at least the interpreter's size.

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <cerrno>
#include <chrono>
#include <cstdio>

extern char** environ;

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: perfbench_spawn STDERR_FILE COMMAND [ARG...]\n");
    return 2;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 2, argv[1],
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);

  const auto start = std::chrono::steady_clock::now();
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, argv[2], &actions, nullptr, argv + 2, environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    std::fprintf(stderr, "perfbench_spawn: cannot run %s\n", argv[2]);
    return 1;
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("perfbench_spawn: wait4");
      return 1;
    }
  }
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  const double cpu = usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6 +
                     usage.ru_stime.tv_sec + usage.ru_stime.tv_usec * 1e-6;
  const int code = WIFEXITED(status)     ? WEXITSTATUS(status)
                   : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                         : 255;
  std::printf("%.9f %.6f %ld %d\n", wall, cpu, usage.ru_maxrss, code);
  return 0;
}
