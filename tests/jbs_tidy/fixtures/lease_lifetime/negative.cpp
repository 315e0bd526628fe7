// jbs-lease-lifetime negatives: the idioms the check must NOT flag.
#include "../fixture_support.h"

void Consume(jbs::Span ext, jbs::SharedLease lease);

// Views copied out before the move: the fixed form of both PR 6 bugs.
void CopyViewsFirst(jbs::Frame f) {
  jbs::OutFrame out;
  out.ext = f.ext;
  out.lease = std::move(f.lease);
}

// The frame's lease is reassigned before the later read: the hazard
// window closed.
void ReassignedLease(jbs::Frame f, jbs::SharedLease fresh) {
  jbs::OutFrame out;
  out.lease = std::move(f.lease);
  f.lease = std::move(fresh);
  out.ext = f.ext;
}

// Reads of a DIFFERENT frame around the move are fine.
void DistinctFrames(jbs::Frame a, jbs::Frame b) {
  Consume(b.ext, std::move(a.lease));
  jbs::OutFrame out;
  out.lease = std::move(b.lease);
  out.ext = a.ext;
}

// Moving the payload (owned, not a view) is not a lease hazard.
void MovePayloadOnly(jbs::Frame f) {
  jbs::OutFrame out;
  out.payload = std::move(f.payload);
  out.ext = f.ext;
}
