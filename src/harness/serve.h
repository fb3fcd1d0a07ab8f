// serve.h -- the sustained-service ("soak") entry point (DESIGN.md
// Section 12.5). Serve mode is part of the one trial loop,
// workload_detail::run_timed_trial (workload.h), switched on by
// workload_config::serve; this entry only stamps the timeline header.
#pragma once

#include "json.h"
#include "workload.h"

namespace smr::harness {

/// One set-shaped sustained-service trial. `meta` is merged into the
/// timeline header line (ds / scheme / policy / threads); `schema_version`
/// stamps the header (report.h's SMR_BENCH_SCHEMA_VERSION -- passed in so
/// this header does not depend on report.h). Returns the usual
/// trial_result with the `serve` stanza populated. The canary leaks
/// records *outside* the structure, so the size invariant still holds --
/// only the reclamation counters drift, which is what the monitor watches.
template <class DS, class Mgr>
trial_result run_serve_trial_set(DS& ds, Mgr& mgr, workload_config cfg,
                                 int schema_version,
                                 const json& meta = json::object()) {
    cfg.serve.enabled = true;
    return workload_detail::run_timed_trial<workload_detail::set_shape>(
        ds, mgr, cfg, schema_version, meta);
}

}  // namespace smr::harness
