// report.h -- the smr_bench JSON result schema, in code.
//
// One run of the driver emits exactly one JSON document. This header owns
// both sides of that contract: building the document from trial_results
// (point_to_json / make_run_document) and checking that a document
// honours the schema (validate_run_document -- used by the driver before
// writing and by the unit tests for round-trip checks). Keeping builder
// and validator adjacent is what stops the schema from drifting.
//
// Document shape (schema_version 4; v2 added the topology stanza and the
// memory-placement counters in workload points; v3 added per-point tail-
// latency observability and the range-query shape keys; v4 adds the
// optional per-point "serve" stanza -- sustained-service telemetry -- and
// the JSONL *timeline* sidecar format, validated line-by-line by
// validate_timeline_line below. Validation accepts exactly
// SMR_BENCH_SCHEMA_VERSION):
//   {
//     "smr_bench_version": 4,
//     "kind": "workload" | "table" | "ablation" | "guard_overhead"
//             | "latency_overhead",
//     "scenario": {"name", "summary", "paper_ref"},
//     "config":   {"trial_ms", "trials", "threads": [..], "seed", ...},
//     "host":     {"hardware_threads"},
//     "topology": {"sockets", "cpus", "shards", "source", "socket_cpus"},
//     "points":   [ ...one object per (ds, scheme, threads, trial)... ],
//     "verdict":  {"ok", "size_invariant_ok", "points"}
//   }
// Workload points carry throughput, the op breakdown (including range-
// query counts; push/pop points reuse the insert/delete columns), the
// reclamation counters harvested from debug_stats, per-phase op counts,
// per-phase-boundary counter snapshots (phase_metrics, which since v3
// include sampled-latency deltas), the size-invariant verdict, and -- new
// in v3 -- the workload shape keys rq_pct / rq_len (so two points that
// differ only in range-scan shape are distinguishable downstream) plus a
// "latency" stanza:
//   "latency": {
//     "clock": "tsc" | "steady_clock",
//     "sample_every": N,                  // 0 = recording disabled
//     "ops":   {"insert"|"erase"|"contains"|"range_query": <summary>},
//     "total": <summary>,                 // all op kinds merged
//     "stalls": {"neutralize"|"scan_free"|"rotation"|"arena": <summary>}
//   }
// where <summary> is {"count", "p50_ns", "p90_ns", "p99_ns", "p999_ns",
// "max_ns", "buckets": [[bucket_index, count], ...]} -- buckets sparse
// (zero-count entries omitted), indices into the log-scale layout of
// src/util/latency_hist.h so documents merge losslessly offline. Custom
// scenarios (kind != "workload") emit their own point shape but share the
// envelope, so downstream tooling can always read scenario/config/verdict.
#pragma once

#include <array>
#include <string>
#include <thread>
#include <vector>

#include "../topo/topology.h"
#include "json.h"
#include "workload.h"

namespace smr::harness {

inline constexpr int SMR_BENCH_SCHEMA_VERSION = 4;

/// The debug_stats counters a run document reports, in document order,
/// under their document keys: every workload point's "reclamation" stanza
/// carries all of them, each phase_metrics entry the per_phase ones.
struct doc_counter {
    const char* key;
    stat counter;
    bool per_phase;
};

inline constexpr std::array<doc_counter, 14> doc_counters = {{
    {"records_retired", stat::records_retired, true},
    {"records_pooled", stat::records_pooled, true},
    {"records_allocated", stat::records_allocated, false},
    {"records_reused", stat::records_reused, false},
    {"epochs_advanced", stat::epochs_advanced, true},
    {"neutralize_sent", stat::neutralize_signals_sent, true},
    {"neutralize_received", stat::neutralize_signals_received, false},
    {"hp_scans", stat::hp_scans, true},
    {"era_scans", stat::era_scans, true},
    {"op_restarts", stat::op_restarts, false},
    // Memory-placement counters (sharded pool + arena allocator): all
    // structurally zero on single-shard (single-socket) hosts.
    {"pool_shared_steals", stat::pool_shared_steals, false},
    {"pool_remote_steals", stat::pool_remote_steals, false},
    {"pool_remote_returns", stat::pool_remote_returns, false},
    {"arena_remote_frees", stat::arena_remote_frees, false},
}};

struct point_meta {
    std::string ds;
    std::string scheme;
    std::string policy;  // "overhead" / "reclaim" / "malloc" / "arena"
    int threads = 0;
    int trial = 0;
    /// Range-query workload shape (part of the point identity since v3:
    /// scenarios sweep rq_pct/rq_len at otherwise-identical settings, and
    /// diff tooling must not collapse those points into one key).
    int rq_pct = 0;
    int rq_len = 0;
};

/// One latency summary -> JSON: percentiles for humans, sparse buckets for
/// tools (offline merging, re-deriving percentiles at other quantiles).
inline json latency_summary_to_json(const lat_summary& s) {
    json o = json::object();
    o.set("count", static_cast<long long>(s.count));
    o.set("p50_ns", static_cast<long long>(s.percentile(0.50)));
    o.set("p90_ns", static_cast<long long>(s.percentile(0.90)));
    o.set("p99_ns", static_cast<long long>(s.percentile(0.99)));
    o.set("p999_ns", static_cast<long long>(s.percentile(0.999)));
    o.set("max_ns", static_cast<long long>(s.max_ns));
    json buckets = json::array();
    for (int i = 0; i < LAT_BUCKETS; ++i) {
        if (s.buckets[static_cast<std::size_t>(i)] == 0) continue;
        json pair = json::array();
        pair.push_back(i);
        pair.push_back(static_cast<long long>(
            s.buckets[static_cast<std::size_t>(i)]));
        buckets.push_back(std::move(pair));
    }
    o.set("buckets", std::move(buckets));
    return o;
}

/// The per-point latency stanza (see the header comment for the shape).
inline json latency_to_json(const latency_result& lat) {
    json o = json::object();
    o.set("clock", lat.clock);
    o.set("sample_every", lat.sample_every);
    json ops = json::object();
    for (int k = 0; k < N_OP_KINDS; ++k) {
        ops.set(std::string(op_kind_names[static_cast<std::size_t>(k)]),
                latency_summary_to_json(lat.ops[static_cast<std::size_t>(k)]));
    }
    o.set("ops", std::move(ops));
    o.set("total", latency_summary_to_json(lat.total));
    json stalls = json::object();
    for (int s = 0; s < static_cast<int>(stall_site::COUNT); ++s) {
        stalls.set(
            std::string(stall_site_names[static_cast<std::size_t>(s)]),
            latency_summary_to_json(lat.stalls[static_cast<std::size_t>(s)]));
    }
    o.set("stalls", std::move(stalls));
    return o;
}

inline json point_to_json(const point_meta& m, const trial_result& r) {
    json p = json::object();
    p.set("ds", m.ds);
    p.set("scheme", m.scheme);
    p.set("policy", m.policy);
    p.set("threads", m.threads);
    p.set("trial", m.trial);
    p.set("rq_pct", m.rq_pct);
    p.set("rq_len", m.rq_len);
    p.set("throughput_mops", r.mops_per_sec());
    p.set("seconds", r.seconds);
    p.set("total_ops", r.total_ops);

    json ops = json::object();
    ops.set("finds", r.finds);
    ops.set("inserts_attempted", r.inserts_attempted);
    ops.set("inserts_succeeded", r.inserts_succeeded);
    ops.set("deletes_attempted", r.deletes_attempted);
    ops.set("deletes_succeeded", r.deletes_succeeded);
    ops.set("range_queries", r.range_queries);
    ops.set("range_keys", r.range_keys);
    p.set("ops", std::move(ops));

    json rec = json::object();
    for (const doc_counter& c : doc_counters) {
        rec.set(c.key, r.counters[c.counter]);
    }
    rec.set("limbo_records", r.limbo_records);
    rec.set("allocated_bytes", r.allocated_bytes);
    p.set("reclamation", std::move(rec));

    json phases = json::array();
    for (long long ops_in_phase : r.phase_ops) phases.push_back(ops_in_phase);
    p.set("phase_ops", std::move(phases));

    // Cumulative counter snapshots at phase boundaries (phased trials;
    // empty array otherwise). Difference consecutive entries for
    // per-phase-occurrence deltas.
    json pm = json::array();
    for (const phase_metric& m : r.phase_metrics) {
        json o = json::object();
        o.set("phase", m.phase);
        o.set("at_ms", m.at_ms);
        for (const doc_counter& c : doc_counters) {
            if (c.per_phase) o.set(c.key, m.counters[c.counter]);
        }
        o.set("limbo_estimate", m.limbo_estimate);
        // Sampled-latency view of the closing phase occurrence (v3):
        // deltas except lat_max_ns, which is cumulative (see workload.h).
        o.set("lat_samples", static_cast<long long>(m.lat_samples));
        o.set("lat_p50_ns", static_cast<long long>(m.lat_p50_ns));
        o.set("lat_p99_ns", static_cast<long long>(m.lat_p99_ns));
        o.set("lat_p999_ns", static_cast<long long>(m.lat_p999_ns));
        o.set("lat_max_ns", static_cast<long long>(m.lat_max_ns));
        pm.push_back(std::move(o));
    }
    p.set("phase_metrics", std::move(pm));

    p.set("latency", latency_to_json(r.latency));

    // Sustained-service stanza (v4, additive): present only for points
    // produced by a serve-mode trial.
    if (r.serve.ran) {
        json sv = json::object();
        sv.set("snapshots", r.serve.snapshots);
        sv.set("monitor_violations", r.serve.monitor_violations);
        sv.set("first_violation_snapshot", r.serve.first_violation_snapshot);
        sv.set("target_ops_per_sec", r.serve.target_ops_per_sec);
        sv.set("achieved_ops_per_sec", r.serve.achieved_ops_per_sec);
        sv.set("churn_cycles", r.serve.churn_cycles);
        sv.set("canary_leaks", r.serve.canary_leaks);
        sv.set("events_drained",
               static_cast<long long>(r.serve.events_drained));
        sv.set("events_dropped",
               static_cast<long long>(r.serve.events_dropped));
        p.set("serve", std::move(sv));
    }

    json inv = json::object();
    inv.set("ok", r.size_invariant_holds());
    inv.set("final_size", r.final_size);
    inv.set("expected_final_size", r.expected_final_size);
    p.set("invariant", std::move(inv));
    return p;
}

/// The topology stanza: what the memory-placement layer detected (or was
/// forced to), so placement counters in the points are interpretable.
inline json topology_to_json() {
    const topo::topology& t = topo::system_topology();
    json o = json::object();
    o.set("sockets", t.num_sockets);
    o.set("cpus", t.num_cpus);
    o.set("shards", topo::shard_count());
    o.set("source", topo::topo_source_name(t.source));
    json per = json::array();
    for (const auto& cpus : t.socket_cpus) {
        per.push_back(static_cast<long long>(cpus.size()));
    }
    o.set("socket_cpus", std::move(per));
    return o;
}

/// Assembles the run envelope. `config` is scenario-specific (the driver
/// fills trial_ms/trials/threads/seed plus distribution and phase info);
/// `points` is the per-point array; `all_ok` is the run verdict beyond
/// the size invariant (custom scenarios fold their own pass criteria in).
inline json make_run_document(const std::string& kind,
                              const std::string& scenario_name,
                              const std::string& summary,
                              const std::string& paper_ref, json config,
                              json points, bool size_invariant_ok,
                              bool all_ok) {
    json doc = json::object();
    doc.set("smr_bench_version", SMR_BENCH_SCHEMA_VERSION);
    doc.set("kind", kind);
    json sc = json::object();
    sc.set("name", scenario_name);
    sc.set("summary", summary);
    sc.set("paper_ref", paper_ref);
    doc.set("scenario", std::move(sc));
    doc.set("config", std::move(config));
    json host = json::object();
    host.set("hardware_threads",
             static_cast<long long>(std::thread::hardware_concurrency()));
    doc.set("host", std::move(host));
    doc.set("topology", topology_to_json());
    const long long n = static_cast<long long>(points.size());
    doc.set("points", std::move(points));
    json verdict = json::object();
    verdict.set("ok", all_ok);
    verdict.set("size_invariant_ok", size_invariant_ok);
    verdict.set("points", n);
    doc.set("verdict", std::move(verdict));
    return doc;
}

namespace report_detail {

inline bool require(bool cond, const std::string& what, std::string* err) {
    if (!cond && err != nullptr && err->empty()) *err = what;
    return cond;
}

inline bool check_keys(const json& obj, const char* where,
                       const std::vector<std::pair<const char*, json::kind>>&
                           keys,
                       std::string* err) {
    if (!require(obj.is_object(), std::string(where) + " must be an object",
                 err)) {
        return false;
    }
    for (const auto& [key, kind] : keys) {
        const json* v = obj.find(key);
        if (!require(v != nullptr,
                     std::string(where) + " missing key '" + key + "'",
                     err)) {
            return false;
        }
        const bool type_ok =
            v->type() == kind ||
            // Either number representation satisfies a numeric slot.
            (kind == json::kind::real && v->is_number()) ||
            (kind == json::kind::integer && v->is_integer());
        if (!require(type_ok,
                     std::string(where) + " key '" + key +
                         "' has the wrong type",
                     err)) {
            return false;
        }
    }
    return true;
}

/// Shape check for one latency <summary> object (see latency_summary_to_json).
inline bool check_latency_summary(const json& s, const std::string& where,
                                  std::string* err) {
    if (!check_keys(s, where.c_str(),
                    {{"count", json::kind::integer},
                     {"p50_ns", json::kind::integer},
                     {"p90_ns", json::kind::integer},
                     {"p99_ns", json::kind::integer},
                     {"p999_ns", json::kind::integer},
                     {"max_ns", json::kind::integer},
                     {"buckets", json::kind::array}},
                    err)) {
        return false;
    }
    const json& buckets = *s.find("buckets");
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        const json& pair = buckets[i];
        if (!require(pair.is_array() && pair.size() == 2 &&
                         pair[0].is_integer() && pair[1].is_integer() &&
                         pair[0].as_int() >= 0 &&
                         pair[0].as_int() < LAT_BUCKETS,
                     where + ".buckets[" + std::to_string(i) +
                         "] must be [bucket_index, count]",
                     err)) {
            return false;
        }
    }
    return true;
}

/// Shape check for a point's full "latency" stanza.
inline bool check_latency_stanza(const json& lat, const std::string& where,
                                 std::string* err) {
    if (!check_keys(lat, where.c_str(),
                    {{"clock", json::kind::string},
                     {"sample_every", json::kind::integer},
                     {"ops", json::kind::object},
                     {"total", json::kind::object},
                     {"stalls", json::kind::object}},
                    err)) {
        return false;
    }
    const json& ops = *lat.find("ops");
    for (std::string_view name : op_kind_names) {
        const json* s = ops.find(std::string(name));
        if (!require(s != nullptr,
                     where + ".ops missing key '" + std::string(name) + "'",
                     err) ||
            !check_latency_summary(*s, where + ".ops." + std::string(name),
                                   err)) {
            return false;
        }
    }
    if (!check_latency_summary(*lat.find("total"), where + ".total", err)) {
        return false;
    }
    const json& stalls = *lat.find("stalls");
    for (std::string_view name : stall_site_names) {
        const json* s = stalls.find(std::string(name));
        if (!require(s != nullptr,
                     where + ".stalls missing key '" + std::string(name) +
                         "'",
                     err) ||
            !check_latency_summary(*s, where + ".stalls." + std::string(name),
                                   err)) {
            return false;
        }
    }
    return true;
}

}  // namespace report_detail

/// Schema check for a full run document. Strict on the envelope for every
/// kind; strict on point shape for kind == "workload".
inline bool validate_run_document(const json& doc, std::string* err) {
    using report_detail::check_keys;
    using report_detail::require;
    using k = json::kind;
    if (err != nullptr) err->clear();

    if (!check_keys(doc, "document",
                    {{"smr_bench_version", k::integer},
                     {"kind", k::string},
                     {"scenario", k::object},
                     {"config", k::object},
                     {"host", k::object},
                     {"topology", k::object},
                     {"points", k::array},
                     {"verdict", k::object}},
                    err)) {
        return false;
    }
    if (!require(doc.find("smr_bench_version")->as_int() ==
                     SMR_BENCH_SCHEMA_VERSION,
                 "unsupported smr_bench_version", err)) {
        return false;
    }
    if (!check_keys(*doc.find("scenario"), "scenario",
                    {{"name", k::string},
                     {"summary", k::string},
                     {"paper_ref", k::string}},
                    err)) {
        return false;
    }
    if (!check_keys(*doc.find("config"), "config",
                    {{"trial_ms", k::integer},
                     {"trials", k::integer},
                     {"threads", k::array},
                     {"seed", k::integer}},
                    err)) {
        return false;
    }
    if (!check_keys(*doc.find("host"), "host",
                    {{"hardware_threads", k::integer}}, err)) {
        return false;
    }
    if (!check_keys(*doc.find("topology"), "topology",
                    {{"sockets", k::integer},
                     {"cpus", k::integer},
                     {"shards", k::integer},
                     {"source", k::string},
                     {"socket_cpus", k::array}},
                    err)) {
        return false;
    }
    if (!check_keys(*doc.find("verdict"), "verdict",
                    {{"ok", k::boolean},
                     {"size_invariant_ok", k::boolean},
                     {"points", k::integer}},
                    err)) {
        return false;
    }
    const json& points = *doc.find("points");
    if (!require(doc.find("verdict")->find("points")->as_int() ==
                     static_cast<long long>(points.size()),
                 "verdict.points disagrees with points array length", err)) {
        return false;
    }
    if (doc.find("kind")->as_string() != "workload") return true;

    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::string where = "points[" + std::to_string(i) + "]";
        const json& p = points[i];
        if (!check_keys(p, where.c_str(),
                        {{"ds", k::string},
                         {"scheme", k::string},
                         {"policy", k::string},
                         {"threads", k::integer},
                         {"trial", k::integer},
                         {"rq_pct", k::integer},
                         {"rq_len", k::integer},
                         {"throughput_mops", k::real},
                         {"seconds", k::real},
                         {"total_ops", k::integer},
                         {"ops", k::object},
                         {"reclamation", k::object},
                         {"phase_ops", k::array},
                         {"phase_metrics", k::array},
                         {"latency", k::object},
                         {"invariant", k::object}},
                        err)) {
            return false;
        }
        if (!check_keys(*p.find("ops"), (where + ".ops").c_str(),
                        {{"finds", k::integer},
                         {"inserts_attempted", k::integer},
                         {"inserts_succeeded", k::integer},
                         {"deletes_attempted", k::integer},
                         {"deletes_succeeded", k::integer},
                         {"range_queries", k::integer}},
                        err)) {
            return false;
        }
        const json& pms = *p.find("phase_metrics");
        for (std::size_t j = 0; j < pms.size(); ++j) {
            if (!check_keys(pms[j],
                            (where + ".phase_metrics[" + std::to_string(j) +
                             "]")
                                .c_str(),
                            {{"phase", k::integer},
                             {"at_ms", k::integer},
                             {"records_retired", k::integer},
                             {"limbo_estimate", k::integer},
                             {"lat_samples", k::integer},
                             {"lat_p50_ns", k::integer},
                             {"lat_p99_ns", k::integer},
                             {"lat_p999_ns", k::integer},
                             {"lat_max_ns", k::integer}},
                            err)) {
                return false;
            }
        }
        if (!report_detail::check_latency_stanza(
                *p.find("latency"), where + ".latency", err)) {
            return false;
        }
        if (!check_keys(*p.find("reclamation"),
                        (where + ".reclamation").c_str(),
                        {{"records_retired", k::integer},
                         {"limbo_records", k::integer},
                         {"epochs_advanced", k::integer},
                         {"era_scans", k::integer},
                         {"hp_scans", k::integer},
                         {"neutralize_sent", k::integer},
                         {"pool_shared_steals", k::integer},
                         {"pool_remote_steals", k::integer},
                         {"pool_remote_returns", k::integer},
                         {"arena_remote_frees", k::integer}},
                        err)) {
            return false;
        }
        if (!check_keys(*p.find("invariant"), (where + ".invariant").c_str(),
                        {{"ok", k::boolean},
                         {"final_size", k::integer},
                         {"expected_final_size", k::integer}},
                        err)) {
            return false;
        }
        // The serve stanza is additive and optional (closed-loop points
        // omit it), but when present its shape is pinned.
        if (const json* sv = p.find("serve"); sv != nullptr) {
            if (!check_keys(*sv, (where + ".serve").c_str(),
                            {{"snapshots", k::integer},
                             {"monitor_violations", k::integer},
                             {"first_violation_snapshot", k::integer},
                             {"target_ops_per_sec", k::real},
                             {"achieved_ops_per_sec", k::real},
                             {"churn_cycles", k::integer},
                             {"canary_leaks", k::integer},
                             {"events_drained", k::integer},
                             {"events_dropped", k::integer}},
                            err)) {
                return false;
            }
        }
    }
    return true;
}

/// Schema check for one line of a JSONL timeline (the snapshot streamer's
/// sidecar format, schema v4). Three line types share the file:
/// "timeline_header" (first line), "snapshot", and "events". Unknown
/// types fail -- the format is append-only but closed.
inline bool validate_timeline_line(const json& line, std::string* err) {
    using report_detail::check_keys;
    using report_detail::require;
    using k = json::kind;
    if (err != nullptr) err->clear();
    if (!check_keys(line, "timeline line", {{"type", k::string}}, err)) {
        return false;
    }
    const std::string type = line.find("type")->as_string();
    if (type == "timeline_header") {
        if (!check_keys(line, "timeline_header",
                        {{"smr_bench_version", k::integer},
                         {"snapshot_ms", k::integer},
                         {"clock", k::string},
                         {"ring_capacity", k::integer}},
                        err)) {
            return false;
        }
        return require(line.find("smr_bench_version")->as_int() ==
                           SMR_BENCH_SCHEMA_VERSION,
                       "timeline_header: unsupported smr_bench_version",
                       err);
    }
    if (type == "snapshot") {
        if (!check_keys(line, "snapshot",
                        {{"seq", k::integer},
                         {"t_ms", k::integer},
                         {"limbo_estimate", k::integer},
                         {"footprint_records", k::integer},
                         {"events_drained", k::integer},
                         {"events_dropped", k::integer},
                         {"counters", k::object},
                         {"monitor", k::object}},
                        err)) {
            return false;
        }
        const json& counters = *line.find("counters");
        for (std::string_view name : stat_names) {
            const json* c = counters.find(std::string(name));
            if (!require(c != nullptr && c->is_integer(),
                         "snapshot.counters missing or non-integer '" +
                             std::string(name) + "'",
                         err)) {
                return false;
            }
        }
        return check_keys(*line.find("monitor"), "snapshot.monitor",
                          {{"violations", k::integer},
                           {"limbo_streak", k::integer},
                           {"footprint_streak", k::integer}},
                          err);
    }
    if (type == "events") {
        if (!check_keys(line, "events", {{"batch", k::array}}, err)) {
            return false;
        }
        const json& batch = *line.find("batch");
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const json& row = batch[i];
            if (!require(row.is_array() && row.size() == 6 &&
                             row[0].is_integer() && row[1].is_integer() &&
                             row[2].is_string() && row[3].is_integer() &&
                             row[4].is_integer() && row[5].is_integer() &&
                             row[0].as_int() >= 0,
                         "events.batch[" + std::to_string(i) +
                             "] must be [t_ns, tid, name, a0, a1, seq]",
                         err)) {
                return false;
            }
        }
        return true;
    }
    return require(false, "unknown timeline line type '" + type + "'", err);
}

}  // namespace smr::harness
