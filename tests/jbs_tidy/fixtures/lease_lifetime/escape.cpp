// jbs-lease-lifetime escape hatch: NOLINT silences a deliberate use
// (e.g. the callee only hashes the pointer value and never dereferences).
#include "../fixture_support.h"

void Consume(jbs::Span ext, jbs::SharedLease lease);

void SuppressedSameLine(jbs::Frame f) {
  Consume(f.ext, std::move(f.lease));  // NOLINT(jbs-lease-lifetime)
}

void SuppressedNextLine(jbs::Frame f) {
  jbs::OutFrame out;
  out.lease = std::move(f.lease);
  // NOLINTNEXTLINE(jbs-lease-lifetime)
  out.ext = f.ext;
}
