/**
 * @file
 * Experiment helpers shared by the sweep grids, the CLIs and the
 * examples: environment-variable run-length control, the shared-
 * resource sizing of multi-core runs, and fixed-width table printing
 * in the style of the paper's figures.
 *
 * Environment knobs (all optional):
 *   NECPT_WARMUP   warm-up accesses per run      (default 200000)
 *   NECPT_MEASURE  measured accesses per run     (default 1000000)
 *   NECPT_SCALE    Table-4 footprint divisor     (default 16)
 *   NECPT_APPS     comma-separated app subset    (default: all 11)
 *   NECPT_MLP      in-flight walks per core      (default 1)
 *   NECPT_FULL     =1: 4x longer runs, scale 8
 *   NECPT_JOBS     sweep worker threads          (default min(4, hw))
 */

#ifndef NECPT_SIM_EXPERIMENT_HH
#define NECPT_SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace necpt
{

/** SimParams honoring the environment knobs. */
SimParams paramsFromEnv();

/** Sweep-engine worker count (NECPT_JOBS; default min(4, hw)). */
int jobsFromEnv();

/**
 * @p params with the measured/warm-up run lengths divided — the
 * standard shortening the wide grids apply (divisors of 0 or
 * 1 leave the phase untouched).
 */
SimParams scaledParams(SimParams params, std::uint64_t measure_div,
                       std::uint64_t warmup_div);

/**
 * Restore the shared resources @p cores multiprogrammed cores
 * actually share: cores x 2MB L3 slices and the machine's DRAM
 * channels (the single-core default models a 1/4 share of the
 * paper's 8-core machine).
 */
void configureSharedResources(ExperimentConfig &config, int cores);

/** Application list honoring NECPT_APPS. */
std::vector<std::string> appsFromEnv();

/// @name Table printing
/// @{
void printHeader(const std::string &title);
void printRow(const std::string &label,
              const std::vector<double> &values, int width = 9,
              int precision = 3);
void printColumns(const std::string &label,
                  const std::vector<std::string> &columns, int width = 9);
/// @}

} // namespace necpt

#endif // NECPT_SIM_EXPERIMENT_HH
