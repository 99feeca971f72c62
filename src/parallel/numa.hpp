// Page warming for freshly loaded tables.
//
// The paper's machine (dual EPYC 7601) exposes eight NUMA nodes with
// limited inter-node bandwidth; Section IV stresses that threads and
// allocations must be placed deliberately. Here the large read-side
// buffers are faulted in by the same morsel pool that later scans them,
// so the first query does not pay the page faults.
#pragma once

#include <cstddef>

namespace gdelt {

/// Reads one byte per page on the morsel pool, faulting lazily-mapped
/// pages in without modifying the data (e.g. after loading a table).
void WarmPagesParallel(const void* data, std::size_t bytes) noexcept;

}  // namespace gdelt
