// jbs-lease-lifetime positives: both hazard shapes PR 6 shipped.
#include "../fixture_support.h"

void Consume(jbs::Span ext, jbs::SharedLease lease);

// Shape 1: the view read and the lease move are arguments of one call —
// evaluation order is unspecified, so `f.ext` may be read after the
// frame's ownership token has already been moved out.
void UnsequencedArguments(jbs::Frame f) {
  Consume(f.ext, std::move(f.lease));  // expect: jbs-lease-lifetime
}

// Shape 2: the exact PR 6 bug — a member copied out of the frame in a
// statement after the statement that moved the lease away.
void ReadAfterMoveStatement(jbs::Frame f) {
  jbs::OutFrame out;
  out.payload = std::move(f.payload);
  out.lease = std::move(f.lease);
  out.ext = f.ext;  // expect: jbs-lease-lifetime
}
