/**
 * @file
 * Shared helpers for the bench binaries: the static paper-table
 * printers and the host-throughput benches. The environment knobs
 * they honor are documented in sim/experiment.hh.
 */

#ifndef NECPT_BENCH_BENCH_UTIL_HH
#define NECPT_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>

#include "sim/experiment.hh"

namespace necpt
{

/** Print the standard bench banner. */
inline void
benchBanner(const std::string &what, const std::string &paper_ref)
{
    std::printf("######################################################\n");
    std::printf("# %s\n", what.c_str());
    std::printf("# Reproduces: %s\n", paper_ref.c_str());
    std::printf("######################################################\n");
}

} // namespace necpt

#endif // NECPT_BENCH_BENCH_UTIL_HH
