// scenarios.cpp -- the registry. Each entry either reproduces one of the
// paper's figures/tables (preserving the defaults the retired
// single-experiment binaries hard-coded) or opens a workload the paper
// did not measure. DESIGN.md Section 4 documents every entry's mapping.
#include "scenarios.h"

namespace smr::bench {

namespace {

std::vector<scenario> build_registry() {
    std::vector<scenario> reg;

    // ---- the paper's evaluation (Section 7) ------------------------------

    {
        scenario s;
        s.name = "fig8_overhead_bst";
        s.summary = "Reclamation overhead only: bump allocator, discard "
                    "pool, lock-free external BST";
        s.paper_ref = "Figure 8 (left), BST rows; Experiment 1";
        s.ds = {"ellen_bst"};
        s.schemes = {"none", "debra", "debra+", "hp"};
        s.policy = policy_kind::overhead;
        s.shape.mixes = {MIX_50_50, MIX_25_25_50};
        s.shape.key_ranges = {10000, 0};  // 0 = the configured large range
        reg.push_back(std::move(s));
    }
    {
        scenario s;
        s.name = "fig8_overhead_skiplist";
        s.summary = "Reclamation overhead only on the lock-based skip list "
                    "(EBR stands in for the paper's unavailable HTM/TS "
                    "comparators; DEBRA+ excluded: the structure holds "
                    "locks)";
        s.paper_ref = "Figure 8 (left), skip list rows; Experiment 1";
        s.ds = {"lazy_skiplist"};
        s.schemes = {"none", "debra", "ebr", "hp"};
        s.policy = policy_kind::overhead;
        s.shape.mixes = {MIX_50_50, MIX_25_25_50};
        s.shape.key_ranges = {200000};
        reg.push_back(std::move(s));
    }
    {
        scenario s;
        s.name = "fig8_reclaim_bst";
        s.summary = "Actual reclamation through the object pool (DEBRA can "
                    "beat leaking by shrinking the footprint)";
        s.paper_ref = "Figure 8 (right), BST rows; Experiment 2";
        s.ds = {"ellen_bst"};
        s.schemes = {"none", "debra", "debra+", "hp"};
        s.policy = policy_kind::reclaim;
        s.shape.mixes = {MIX_50_50, MIX_25_25_50};
        s.shape.key_ranges = {10000, 0};
        reg.push_back(std::move(s));
    }
    {
        scenario s;
        s.name = "fig8_reclaim_skiplist";
        s.summary = "Actual reclamation through the object pool on the "
                    "skip list";
        s.paper_ref = "Figure 8 (right), skip list rows; Experiment 2";
        s.ds = {"lazy_skiplist"};
        s.schemes = {"none", "debra", "ebr", "hp"};
        s.policy = policy_kind::reclaim;
        s.shape.mixes = {MIX_50_50, MIX_25_25_50};
        s.shape.key_ranges = {200000};
        reg.push_back(std::move(s));
    }
    {
        scenario s;
        s.name = "fig9_oversubscribe";
        s.summary = "Experiment 2 with more software threads than hardware "
                    "contexts: DEBRA's epoch stalls on preempted threads, "
                    "DEBRA+ neutralizes them";
        s.paper_ref = "Figure 9 (left); Experiment 2 oversubscribed";
        s.ds = {"ellen_bst"};
        s.schemes = {"none", "debra", "debra+", "hp"};
        s.policy = policy_kind::reclaim;
        s.shape.mixes = {MIX_50_50};
        s.shape.key_ranges = {0};
        s.shape.oversubscribe = true;
        reg.push_back(std::move(s));
    }
    {
        scenario s;
        s.name = "fig9_memory";
        s.summary = "Memory allocated for records under a non-quiescently "
                    "stalled straggler (bump-pointer movement is the exact "
                    "bytes metric); DEBRA+ keeps the pool fed via "
                    "neutralization";
        s.paper_ref = "Figure 9 (right); Experiment 2 memory";
        s.ds = {"ellen_bst"};
        s.schemes = {"debra", "debra+"};
        s.policy = policy_kind::reclaim;
        s.shape.mixes = {MIX_50_50};
        s.shape.key_ranges = {10000};
        s.shape.stall_straggler = true;
        s.shape.stall_ms = 5;
        reg.push_back(std::move(s));
    }
    {
        scenario s;
        s.name = "fig10_malloc_bst";
        s.summary = "System malloc instead of preallocated bump storage "
                    "(stands in for the paper's tcmalloc): uniform "
                    "allocation overhead compresses the gaps between "
                    "schemes";
        s.paper_ref = "Figure 10, BST rows; Experiment 3";
        s.ds = {"ellen_bst"};
        s.schemes = {"none", "debra", "debra+", "hp"};
        s.policy = policy_kind::malloc_pool;
        s.shape.mixes = {MIX_50_50, MIX_25_25_50};
        s.shape.key_ranges = {10000, 0};
        reg.push_back(std::move(s));
    }
    {
        scenario s;
        s.name = "fig10_malloc_skiplist";
        s.summary = "Malloc-backed allocation with the object pool on the "
                    "skip list";
        s.paper_ref = "Figure 10, skip list rows; Experiment 3";
        s.ds = {"lazy_skiplist"};
        s.schemes = {"none", "debra", "ebr", "hp"};
        s.policy = policy_kind::malloc_pool;
        s.shape.mixes = {MIX_50_50, MIX_25_25_50};
        s.shape.key_ranges = {200000};
        reg.push_back(std::move(s));
    }

    // ---- beyond the paper: the era family --------------------------------

    {
        scenario s;
        s.name = "era_schemes";
        s.summary = "The era family (Hazard Eras, 2GE-IBR) against DEBRA "
                    "and HP; limbo_records in the JSON is the memory bound "
                    "the era schemes buy";
        s.paper_ref = "beyond the paper (PR 1); Figure-8-style sweep";
        s.ds = {"lazy_skiplist"};
        s.schemes = {"debra", "hp", "he", "ibr"};
        s.policy = policy_kind::malloc_pool;
        s.shape.mixes = {MIX_50_50, MIX_25_25_50};
        s.shape.key_ranges = {200000};
        reg.push_back(std::move(s));
    }

    // ---- new distribution / phase scenarios (PR 3) -----------------------

    {
        scenario s;
        s.name = "zipf_read_heavy";
        s.summary = "YCSB-style Zipf(0.99) keys, 90% contains: hot keys "
                    "concentrate structural contention on a few paths "
                    "while reclamation idles";
        s.paper_ref = "beyond the paper: skewed key popularity";
        s.ds = {"ellen_bst", "lazy_skiplist", "hash_map"};
        s.schemes = {"none", "debra", "hp", "he", "ibr"};
        s.policy = policy_kind::reclaim;
        s.shape.dist.kind = harness::key_dist_kind::zipf;
        s.shape.dist.zipf_theta = 0.99;
        s.shape.mixes = {{"5i-5d-90s", 5, 5}};
        s.shape.key_ranges = {100000};
        reg.push_back(std::move(s));
    }
    {
        scenario s;
        s.name = "zipf_churn";
        s.summary = "Zipf(0.99) keys through alternating churn "
                    "(40i-40d) and read-mostly (5i-5d) phases: limbo "
                    "pressure arrives in waves instead of a steady stream";
        s.paper_ref = "beyond the paper: skew + phased churn";
        s.ds = {"ellen_bst", "hash_map"};
        s.schemes = {"debra", "hp", "he", "ibr"};
        s.policy = policy_kind::reclaim;
        s.shape.dist.kind = harness::key_dist_kind::zipf;
        s.shape.dist.zipf_theta = 0.99;
        s.shape.phases = {{"churn", 40, 40, 60, 0},
                          {"read_mostly", 5, 5, 60, 0}};
        s.shape.key_ranges = {100000};
        reg.push_back(std::move(s));
    }
    {
        scenario s;
        s.name = "sliding_hotspot";
        s.summary = "90% of operations hit a 1% window that slides across "
                    "the keyspace every 20ms: a moving working set that "
                    "churns both caches and limbo bags";
        s.paper_ref = "beyond the paper: moving working set";
        s.ds = {"ellen_bst"};
        s.schemes = {"debra", "debra+", "hp"};
        s.policy = policy_kind::reclaim;
        s.shape.dist.kind = harness::key_dist_kind::hotspot;
        s.shape.dist.hot_fraction = 0.01;
        s.shape.dist.hot_op_pct = 90;
        s.shape.dist.slide_ms = 20;
        s.shape.mixes = {MIX_25_25_50};
        s.shape.key_ranges = {0};
        reg.push_back(std::move(s));
    }
    {
        scenario s;
        s.name = "burst_churn";
        s.summary = "Full-speed churn bursts against a throttled "
                    "background phase (100us think time per op) on the "
                    "Harris list: retirement arrives in spikes";
        s.paper_ref = "beyond the paper: bursty load";
        s.ds = {"harris_list"};
        s.schemes = {"debra", "hp", "ibr"};
        s.policy = policy_kind::reclaim;
        s.shape.phases = {{"burst", 50, 50, 30, 0},
                          {"quiet", 10, 10, 30, 100}};
        s.shape.key_ranges = {2000};  // the list is O(n) per op; keep it short
        reg.push_back(std::move(s));
    }
    {
        // Replaces the PR-3 contains_heavy_scan, which approximated scans
        // with point lookups: these are real multi-key range operations
        // through the ordered_set_like concept.
        scenario s;
        s.name = "range_scan_mix";
        s.summary = "10% real range queries (100 consecutive keys) against "
                    "light churn on every set-shaped structure: a scan "
                    "protects and releases a node per step and holds a "
                    "window of them (the BST its DFS stack, the lists a "
                    "hand-over-hand pair), so the per-access schemes' "
                    "protection cost (guard_span: HP slots, HE era "
                    "aliasing, IBR interval) is measured directly against "
                    "the epoch schemes' empty spans";
        s.paper_ref = "beyond the paper: container-concept range scans";
        s.ds = {"ellen_bst", "lazy_skiplist", "harris_list", "hash_map"};
        s.schemes = {"none", "debra", "debra+", "hp", "he", "ibr"};
        s.policy = policy_kind::reclaim;
        s.shape.mixes = {{"10i-10d-10rq-70s", 10, 10}};
        s.shape.rq_pct = 10;
        s.shape.rq_len = 100;
        s.shape.key_ranges = {5000};  // harris_list is O(n) per op
        reg.push_back(std::move(s));
    }

    // ---- push/pop scenarios (PR 4: container-concept API) ----------------

    {
        scenario s;
        s.name = "stack_churn";
        s.summary = "Treiber stack push/pop churn: every pop retires the "
                    "popped node and contends on one cache line, so "
                    "retirement tracks throughput 1:1 (the classic SMR "
                    "stress test)";
        s.paper_ref = "beyond the paper: stack_queue_like concept";
        s.ds = {"treiber_stack"};
        s.schemes = {"none", "debra", "hp", "he", "ibr"};
        s.policy = policy_kind::reclaim;
        s.shape.mixes = {{"50push-50pop", 50, 50},
                         {"70push-30pop", 70, 30}};
        s.shape.key_ranges = {100000};  // prefill/2 elements + value range
        reg.push_back(std::move(s));
    }
    {
        scenario s;
        s.name = "queue_pipeline";
        s.summary = "MS queue as a pipeline: enqueue-heavy and drain "
                    "phases alternate every 40ms, so the dummy-node "
                    "retirement stream starts and stops (per-phase "
                    "metrics show the limbo wave per phase)";
        s.paper_ref = "beyond the paper: stack_queue_like concept";
        s.ds = {"ms_queue"};
        s.schemes = {"none", "debra", "hp", "he", "ibr"};
        s.policy = policy_kind::reclaim;
        s.shape.phases = {{"produce", 70, 30, 40, 0},
                          {"drain", 30, 70, 40, 0}};
        s.shape.key_ranges = {100000};
        reg.push_back(std::move(s));
    }
    {
        scenario s;
        s.name = "oversub_stall";
        s.summary = "Oversubscription plus a non-quiescently stalled "
                    "straggler: the adversarial preset for epoch-based "
                    "reclamation (DEBRA's limbo grows; DEBRA+ neutralizes)";
        s.paper_ref = "beyond the paper: Figure 9's two pathologies "
                      "combined";
        s.ds = {"ellen_bst"};
        s.schemes = {"debra", "debra+"};
        s.policy = policy_kind::reclaim;
        s.shape.mixes = {MIX_50_50};
        s.shape.key_ranges = {10000};
        s.shape.stall_straggler = true;
        s.shape.stall_ms = 5;
        s.shape.oversubscribe = true;
        reg.push_back(std::move(s));
    }

    // ---- memory-placement scenarios (PR 5) -------------------------------

    {
        scenario s;
        s.name = "alloc_sweep";
        s.summary = "Allocator axis at fixed schemes on fig8-shaped churn: "
                    "preallocated bump vs system malloc vs size-class "
                    "arenas, all feeding the shared object pool";
        s.paper_ref = "beyond the paper: allocator sweep (ROADMAP); "
                      "extends Experiments 2-3's two allocator points";
        s.ds = {"ellen_bst"};
        s.schemes = {"debra", "hp"};
        s.policies = {policy_kind::reclaim, policy_kind::malloc_pool,
                      policy_kind::arena_pool};
        s.shape.mixes = {MIX_50_50};
        s.shape.key_ranges = {10000};
        reg.push_back(std::move(s));
    }
    {
        scenario s;
        s.name = "numa_pinned_churn";
        s.summary = "Compact vs scatter thread pinning under churn with "
                    "the arena allocator: the remote-return / remote-steal "
                    "counters expose cross-socket pool and arena traffic "
                    "(all zero on single-node hosts, where topology falls "
                    "back to one shard)";
        s.paper_ref = "Section 4 'Optimizing for NUMA systems', measured "
                      "beyond the paper";
        s.ds = {"ellen_bst"};
        s.schemes = {"debra", "hp"};
        s.policies = {policy_kind::arena_pool};
        s.shape.pins = {topo::pin_policy::compact, topo::pin_policy::scatter};
        s.shape.mixes = {MIX_50_50};
        s.shape.key_ranges = {10000};
        reg.push_back(std::move(s));
    }

    {
        scenario s;
        s.name = "latency_qos";
        s.summary = "Reader SLA under writer bursts: a read-mostly phase "
                    "alternating with a 50/50 write burst, per-phase p99/"
                    "p999 in the latency stanza separating reclamation "
                    "stalls (DEBRA+ neutralization, HP/HE scans) from the "
                    "baseline tail";
        s.paper_ref = "Section 5 (neutralization cost), measured beyond "
                      "the paper";
        s.ds = {"ellen_bst"};
        s.schemes = {"none", "debra", "debra+", "hp", "he", "ibr"};
        s.policy = policy_kind::reclaim;
        s.shape.phases = {{"read_mostly", 5, 5, 60, 0},
                          {"write_burst", 50, 50, 20, 0}};
        s.shape.key_ranges = {100000};
        reg.push_back(std::move(s));
    }

    // ---- custom scenarios (the non-sweep former binaries) ----------------

    {
        scenario s;
        s.name = "table2_traits";
        s.summary = "The paper's qualitative scheme comparison; rows for "
                    "implemented schemes are generated from compile-time "
                    "traits so the table cannot drift from the code";
        s.paper_ref = "Figure 2 (the paper's summary table)";
        s.custom = run_table2_traits;
        s.custom_kind = "table";
        reg.push_back(std::move(s));
    }
    {
        scenario s;
        s.name = "ablation_blockpool";
        s.summary = "Bounded per-thread block pool: how much block traffic "
                    "the 16-block cache absorbs (paper claims >99.9%)";
        s.paper_ref = "Section 4 (block pool claim)";
        s.custom = run_ablation_blockpool;
        s.custom_kind = "ablation";
        reg.push_back(std::move(s));
    }
    {
        scenario s;
        s.name = "ablation_thresholds";
        s.summary = "CHECK_THRESH / INCR_THRESH / suspect-threshold "
                    "sweeps: the paper's minor optimizations, measured";
        s.paper_ref = "Sections 4-5 (thresholds)";
        s.custom = run_ablation_thresholds;
        s.custom_kind = "ablation";
        reg.push_back(std::move(s));
    }
    {
        scenario s;
        s.name = "guard_overhead";
        s.summary = "A/B: the RAII guard layer against a faithful raw-API "
                    "replica of the BST search hot path (PASS when the "
                    "median paired delta is within the threshold)";
        s.paper_ref = "beyond the paper (PR 2); zero-cost-guards claim";
        s.custom = run_guard_overhead;
        s.custom_kind = "guard_overhead";
        reg.push_back(std::move(s));
    }
    {
        scenario s;
        s.name = "smr_serve";
        s.summary = "Sustained-service soak: open-loop offered load (token "
                    "bucket per worker) under a drifting hotspot and "
                    "thread-registration churn waves, streaming JSONL "
                    "snapshot timelines and failing on sustained limbo/"
                    "footprint growth (the leak sentinel)";
        s.paper_ref = "beyond the paper; long-running-service telemetry";
        s.ds = {"ellen_bst"};
        s.schemes = {"none", "debra", "debra+", "hp", "he", "ibr"};
        s.custom = run_smr_serve;
        s.custom_kind = "serve";
        s.accepts_filters = true;
        reg.push_back(std::move(s));
    }
    {
        scenario s;
        s.name = "telemetry_overhead";
        s.summary = "A/B: the timed-trial loop with the event trace armed "
                    "and a 50ms snapshot streamer sampling against tracing "
                    "disabled (PASS when the median paired throughput "
                    "delta is within the threshold)";
        s.paper_ref = "beyond the paper; recording-is-cheap claim";
        s.custom = run_telemetry_overhead;
        s.custom_kind = "telemetry_overhead";
        reg.push_back(std::move(s));
    }
    {
        scenario s;
        s.name = "latency_overhead";
        s.summary = "A/B: the timed-trial loop with default latency "
                    "sampling (--lat-sample=32) against recording disabled "
                    "(PASS when the median paired throughput delta is "
                    "within the threshold)";
        s.paper_ref = "beyond the paper; observability-is-free claim";
        s.custom = run_latency_overhead;
        s.custom_kind = "latency_overhead";
        reg.push_back(std::move(s));
    }

    return reg;
}

}  // namespace

const std::vector<scenario>& all_scenarios() {
    static const std::vector<scenario> reg = build_registry();
    return reg;
}

const scenario* find_scenario(const std::string& name) {
    for (const auto& s : all_scenarios()) {
        if (s.name == name) return &s;
    }
    return nullptr;
}

}  // namespace smr::bench
