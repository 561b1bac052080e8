/**
 * @file
 * The sweep-grid registry: every paper figure/table grid registers
 * itself here under a short name, so one CLI (`necpt_sweep`) can
 * enumerate and run all of them.
 *
 * A grid contributes two things: a job list (pure — building it runs
 * no simulation) and a summary printer that renders its human-readable
 * stdout tables from the structured records.
 *
 * Job keys are namespaced by grid (`<grid>/...`), except that a grid
 * reading a Figure-9 (config, app) pair uses that pair's
 * `fig9/<config>/<app>` key: the pair then has one seed and one
 * result in every grid, and a composite grid runs it once.
 */

#ifndef NECPT_EXEC_REGISTRY_HH
#define NECPT_EXEC_REGISTRY_HH

#include <string>
#include <vector>

#include "exec/engine.hh"
#include "exec/job.hh"
#include "exec/result_sink.hh"
#include "sim/experiment.hh"

namespace necpt
{

struct SweepGrid
{
    std::string name;      //!< CLI handle, e.g. "fig9"
    std::string title;     //!< bench banner line
    std::string paper_ref; //!< e.g. "Figure 9"

    /** Build the job list (no simulation happens here). */
    std::vector<JobSpec> (*make_jobs)(const SimParams &params);

    /** Print the bench's summary tables from the finished records. */
    void (*print_summary)(const ResultSink &sink,
                          const SimParams &params);
};

/** All registered grids, stable order. */
const std::vector<SweepGrid> &sweepGrids();

/** Grid registered as @p name, or nullptr. */
const SweepGrid *findSweepGrid(const std::string &name);

/**
 * Run @p grid end to end: banner, engine fan-out, summary. Returns
 * the sink for optional export.
 */
ResultSink runSweepGrid(const SweepGrid &grid, const SimParams &params,
                        const SweepOptions &options);

} // namespace necpt

#endif // NECPT_EXEC_REGISTRY_HH
