// Helpers shared by the ArckFs translation units (arckfs.cc, node_cache.cc,
// namespace_ops.cc, data_ops.cc). Internal to src/libfs — not part of the ArckFs API.

#ifndef SRC_LIBFS_ARCKFS_INTERNAL_H_
#define SRC_LIBFS_ARCKFS_INTERNAL_H_

#include <cstdint>

#include "src/libfs/arckfs.h"

namespace trio {
namespace arckfs_internal {

// Timestamps are best-effort (§3.3): a per-thread counter keeps each stamp unique and a
// thread's stamps ordered, without a clock read or a shared write in the data path.
int64_t FakeTimeNs();

// Allocates a leased page and hands it back zeroed and durable (persist + fence,
// accounted to `stats` / the current op).
Result<PageNumber> AllocZeroedPage(LeaseCache& leases, NvmPool& pool,
                                   obs::PersistStats* stats, int node_hint);

}  // namespace arckfs_internal
}  // namespace trio

#endif  // SRC_LIBFS_ARCKFS_INTERNAL_H_
