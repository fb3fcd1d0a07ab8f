// scenarios.h -- the workload scenario registry of the smr_bench driver.
//
// A scenario is a named, fully parameterized workload: which structures
// and schemes it sweeps by default, which memory policy it uses, how keys
// are drawn, and how the op mix evolves over the trial. The paper's
// figures and tables are scenarios (their per-binary defaults preserved);
// so are the post-paper ones (Zipf, sliding hotspot, bursty phases).
// `--ds` / `--scheme` / `--threads` override a scenario's defaults at run
// time; the scenario only decides what happens when you don't ask.
//
// Scenarios whose shape is not "sweep a timed mix" (the trait table, the
// threshold ablations, the overhead A/Bs, the soak) provide a custom run
// function instead; they share the CLI, the banner, and the JSON envelope.
#pragma once

#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/json.h"
#include "topo/pin.h"

namespace smr::bench {

struct workload_shape {
    harness::key_dist_config dist;
    /// Non-empty: the phased schedule cycles for trial_ms and `mixes` is
    /// ignored. Empty: one table per entry of `mixes`.
    std::vector<harness::phase_spec> phases;
    std::vector<op_mix> mixes = {MIX_50_50};
    /// Key ranges to sweep; entry 0 is replaced by --keyrange ("the
    /// paper's large range").
    std::vector<long long> key_ranges = {10000};
    /// Set-shaped structures: percentage of operations that are range
    /// queries of rq_len consecutive keys (carved out of the contains
    /// share). Ignored by push/pop structures.
    int rq_pct = 0;
    long long rq_len = 100;
    /// One thread stalls non-quiescently instead of running the mix
    /// (Figure 9's preemption pathology); needs >= 2 threads per point.
    bool stall_straggler = false;
    int stall_ms = 5;
    /// Default thread sweep runs past the host's core count (Figure 9
    /// left), capped at MAX_THREADS. Only applies when --threads is not
    /// given.
    bool oversubscribe = false;
    /// Thread-placement sweep: one full table set per policy (--pin
    /// overrides). Default: the scheduler places threads, as before.
    std::vector<topo::pin_policy> pins = {topo::pin_policy::none};
};

struct scenario;

/// Custom scenarios implement this instead of the generic sweep. Returns
/// the process exit code; fills *doc with the full JSON document.
using custom_run_fn = int (*)(const scenario&, const harness::bench_config&,
                              harness::json* doc);

struct scenario {
    std::string name;
    std::string summary;
    std::string paper_ref;  // figure/table mapping, or "beyond the paper"
    std::vector<std::string> ds;
    std::vector<std::string> schemes;
    policy_kind policy = policy_kind::reclaim;
    /// Memory-policy sweep (--alloc overrides): one full table set per
    /// entry. Empty = just `policy`, the single-policy scenarios' shape.
    std::vector<policy_kind> policies;
    workload_shape shape;
    custom_run_fn custom = nullptr;  // nullptr = generic workload sweep
    /// Custom scenarios normally reject --ds/--scheme/--alloc/--pin (their
    /// sweep is fixed by construction); ones that honor the filters
    /// themselves (smr_serve) opt in here.
    bool accepts_filters = false;

    const char* kind() const {
        return custom == nullptr ? "workload" : custom_kind;
    }
    const char* custom_kind = "workload";
};

/// All registered scenarios, registration order (paper order first).
const std::vector<scenario>& all_scenarios();

const scenario* find_scenario(const std::string& name);

/// Shared tail of the custom scenarios (special_scenarios.cpp): completes
/// `config` with the run parameters (trial_ms, trials, threads, seed) and
/// wraps the scenario-specific `points` into the run envelope. Returns the
/// exit code: 0 when `ok`, else 1.
int finish(const scenario& sc, const harness::bench_config& cfg,
           harness::json config, harness::json points, bool invariant_ok,
           bool ok, harness::json* doc);

// Custom run functions (special_scenarios.cpp, scenario_overhead_gates.cpp,
// scenario_serve.cpp).
int run_table2_traits(const scenario&, const harness::bench_config&,
                      harness::json* doc);
int run_ablation_blockpool(const scenario&, const harness::bench_config&,
                           harness::json* doc);
int run_ablation_thresholds(const scenario&, const harness::bench_config&,
                            harness::json* doc);
int run_guard_overhead(const scenario&, const harness::bench_config&,
                       harness::json* doc);
int run_latency_overhead(const scenario&, const harness::bench_config&,
                         harness::json* doc);
int run_smr_serve(const scenario&, const harness::bench_config&,
                  harness::json* doc);
int run_telemetry_overhead(const scenario&, const harness::bench_config&,
                           harness::json* doc);

}  // namespace smr::bench
