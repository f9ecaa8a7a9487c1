// LD_PRELOAD shim that counts a process's durability barriers: every call
// to fsync, fdatasync, syncfs and sync is counted and forwarded to libc,
// and the total is printed to stderr at exit as "knl-sync-calls: N".
// sync_count_test.cmake preloads it into knl-repro to check that a run's
// sync calls do not grow with the number of experiments.
#include <dlfcn.h>

#include <atomic>
#include <cstdio>

namespace {

std::atomic<int> g_calls{0};

template <typename Fn>
Fn next_symbol(const char* name) {
  return reinterpret_cast<Fn>(dlsym(RTLD_NEXT, name));
}

__attribute__((destructor)) void report_calls() {
  std::fprintf(stderr, "knl-sync-calls: %d\n", g_calls.load());
}

}  // namespace

extern "C" {

int fsync(int fd) {
  static const auto real = next_symbol<int (*)(int)>("fsync");
  ++g_calls;
  return real(fd);
}

int fdatasync(int fd) {
  static const auto real = next_symbol<int (*)(int)>("fdatasync");
  ++g_calls;
  return real(fd);
}

int syncfs(int fd) {
  static const auto real = next_symbol<int (*)(int)>("syncfs");
  ++g_calls;
  return real(fd);
}

void sync() {
  static const auto real = next_symbol<void (*)()>("sync");
  ++g_calls;
  real();
}

}  // extern "C"
