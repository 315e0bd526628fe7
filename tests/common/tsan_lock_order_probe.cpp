// Provokes one lock-order inversion through the jbs::Mutex/CondVar
// wrappers so CI can prove ThreadSanitizer still sees lock order through
// them. Built only under -fsanitize=thread (the `tsan` preset) and not a
// ctest: a passing run is one where TSan reports `lock-order-inversion`
// and the process exits non-zero.
//
//   tsan_lock_order_probe two-lock   A->B, then B->A
//   tsan_lock_order_probe condvar    hold A then B, wait on A's CondVar:
//                                    the wakeup reacquires A under B
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/mutex.h"

namespace {

void TwoLock() {
  jbs::Mutex a;
  jbs::Mutex b;
  {
    jbs::MutexLock la(a);
    jbs::MutexLock lb(b);
  }
  {
    jbs::MutexLock lb(b);
    jbs::MutexLock la(a);
  }
}

void CondVarUnderNestedLock() {
  jbs::Mutex a;
  jbs::Mutex b;
  jbs::CondVar cv;
  jbs::MutexLock la(a);
  jbs::MutexLock lb(b);
  cv.WaitUntil(la, std::chrono::steady_clock::now() + std::chrono::milliseconds(5));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "two-lock") == 0) {
    TwoLock();
  } else if (argc == 2 && std::strcmp(argv[1], "condvar") == 0) {
    CondVarUnderNestedLock();
  } else {
    std::fprintf(stderr, "usage: %s two-lock|condvar\n", argv[0]);
    return 2;
  }
  return 0;
}
