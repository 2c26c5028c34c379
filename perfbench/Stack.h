//===- Stack.h - Run the benchmark on a deep native stack -------*- C++ -*-===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interpreted calls recurse on the native stack, and the depth budget
/// the benchmark derives from its inputs (see depthBudget) exceeds what
/// the process's default 8 MiB main stack holds. The benchmark body runs
/// on one thread with a stack sized for that budget while the main
/// thread waits, so the load stays single-threaded.
///
//===----------------------------------------------------------------------===//

#ifndef ADE_PERFBENCH_STACK_H
#define ADE_PERFBENCH_STACK_H

#include <cstdio>
#include <functional>
#include <pthread.h>

namespace ade {
namespace perfbench {

/// Runs \p Body on a thread with a 1 GiB stack (reserved, touched only
/// as deep as the recursion goes) and returns its result; 1 when the
/// thread cannot be started.
inline int runWithLargeStack(std::function<int()> Body) {
  struct Ctx {
    std::function<int()> Body;
    int Result = 1;
  } C{std::move(Body)};
  pthread_attr_t Attr;
  pthread_attr_init(&Attr);
  pthread_attr_setstacksize(&Attr, size_t(1) << 30);
  pthread_t Thread;
  int Err = pthread_create(
      &Thread, &Attr,
      [](void *P) -> void * {
        auto *C = static_cast<Ctx *>(P);
        C->Result = C->Body();
        return nullptr;
      },
      &C);
  pthread_attr_destroy(&Attr);
  if (Err) {
    std::fprintf(stderr, "perfbench: cannot start the benchmark thread\n");
    return 1;
  }
  pthread_join(Thread, nullptr);
  return C.Result;
}

} // namespace perfbench
} // namespace ade

#endif // ADE_PERFBENCH_STACK_H
