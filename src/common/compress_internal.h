// The encoder's per-thread match table, exposed for compress_test only.
//
// Each thread that compresses owns a table of 32-bit slots. A Compress
// call stores a position as base + offset, where base lies more than the
// 64 KiB match window above every value an earlier call stored. Entries
// from earlier calls, like empty slots' zeros, so fail the distance test,
// and the table never has to be refilled between calls. Only when the
// next base would wrap past 2^32 is the table zeroed and the base started
// over at its lowest value.
#pragma once

#include <cstdint>

namespace jbs::internal {

/// The calling thread's next generation base.
uint32_t MatchTableBase();

/// Moves the calling thread's next generation base forward to `base` (a
/// no-op if it is already there or past it) and leaves the table as it
/// is, as if that many bytes had been compressed since: a test reaches
/// the wrap without compressing 4 GiB.
void SetMatchTableBase(uint32_t base);

}  // namespace jbs::internal
