// Tests for the JSON layer of the scenario engine: harness/json.h value
// round-trips (escaping, nesting, numbers, unicode escapes), parser
// strictness, and the smr_bench run-document schema (harness/report.h) --
// a document built from a trial_result must validate, and any missing
// required key must be caught.
#include <gtest/gtest.h>

#include "harness/json.h"
#include "harness/report.h"

namespace smr {
namespace {

using harness::json;

json roundtrip(const json& j, int indent) {
    auto parsed = json::parse(j.dump(indent));
    EXPECT_TRUE(parsed.has_value()) << "unparsable: " << j.dump(indent);
    return parsed.value_or(json());
}

TEST(BenchJson, ScalarRoundTrip) {
    EXPECT_EQ(roundtrip(json(), 0), json());
    EXPECT_EQ(roundtrip(json(true), 0), json(true));
    EXPECT_EQ(roundtrip(json(false), 2), json(false));
    EXPECT_EQ(roundtrip(json(0), 0), json(0));
    EXPECT_EQ(roundtrip(json(-123456789012345LL), 0),
              json(-123456789012345LL));
    EXPECT_EQ(roundtrip(json(3.25), 0), json(3.25));
    EXPECT_EQ(roundtrip(json(1e-9), 0), json(1e-9));
    EXPECT_EQ(roundtrip(json("plain"), 0), json("plain"));
}

TEST(BenchJson, StringEscapingRoundTrip) {
    const std::string nasty =
        "quote\" backslash\\ newline\n tab\t cr\r bell\x07 utf8 \xC3\xA9";
    EXPECT_EQ(roundtrip(json(nasty), 0).as_string(), nasty);
    // Escaped control characters serialize as \uXXXX.
    EXPECT_NE(json(std::string("\x01")).dump().find("\\u0001"),
              std::string::npos);
}

TEST(BenchJson, ParserDecodesUnicodeEscapes) {
    auto v = json::parse("\"caf\\u00e9 \\ud83d\\ude00\"");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->as_string(), "caf\xC3\xA9 \xF0\x9F\x98\x80");
}

TEST(BenchJson, NestedStructureRoundTrip) {
    json doc = json::object();
    doc.set("a", 1);
    json arr = json::array();
    arr.push_back("x");
    arr.push_back(json());
    json inner = json::object();
    inner.set("deep", 2.5);
    arr.push_back(std::move(inner));
    doc.set("list", std::move(arr));
    doc.set("flag", false);

    for (int indent : {0, 2, 4}) {
        const json back = roundtrip(doc, indent);
        EXPECT_EQ(back, doc);
        EXPECT_EQ(back.find("list")->items()[2].find("deep")->as_double(),
                  2.5);
    }
    // Insertion order survives (documents diff cleanly across runs).
    EXPECT_EQ(doc.members()[0].first, "a");
    EXPECT_EQ(doc.members()[1].first, "list");
}

TEST(BenchJson, ParserRejectsMalformedInput) {
    for (const char* bad :
         {"", "{", "[1,", "{\"a\" 1}", "{\"a\":1,}", "[1 2]", "tru",
          "\"unterminated", "{\"a\":1} trailing", "01a", "\"bad\\escape\"",
          "\"\\ud800\"" /* lone surrogate */, "{\"raw\n\":1}"}) {
        EXPECT_FALSE(json::parse(bad).has_value()) << "accepted: " << bad;
    }
}

// ---- run-document schema ---------------------------------------------------

harness::json sample_document() {
    harness::trial_result r;
    r.seconds = 0.1;
    r.total_ops = 1000;
    r.finds = 400;
    r.inserts_attempted = 300;
    r.inserts_succeeded = 200;
    r.deletes_attempted = 300;
    r.deletes_succeeded = 200;
    r.prefill_size = 500;
    r.final_size = 500;
    r.expected_final_size = 500;
    r.counters[stat::records_retired] = 200;
    r.limbo_records = 17;
    r.phase_ops = {600, 400};

    // A plausible latency harvest (schema v3): a handful of samples per op
    // kind plus one stall histogram entry, exercising the sparse-bucket
    // emission and the stanza validator.
    r.latency.sample_every = 32;
    r.latency.clock = "steady_clock";
    for (int k = 0; k < harness::N_OP_KINDS; ++k) {
        lat_summary& s = r.latency.ops[static_cast<std::size_t>(k)];
        s.buckets[40] = 4;
        s.buckets[80] = 1;
        s.count = 5;
        s.max_ns = lat_bucket_lo(80) + 1;
        r.latency.total.add(s);
    }
    r.latency.stalls[0].buckets[100] = 2;
    r.latency.stalls[0].count = 2;
    r.latency.stalls[0].max_ns = lat_bucket_lo(100);

    harness::point_meta meta;
    meta.ds = "ellen_bst";
    meta.scheme = "debra";
    meta.policy = "reclaim";
    meta.threads = 2;
    meta.trial = 0;
    meta.rq_pct = 10;
    meta.rq_len = 100;

    harness::json points = harness::json::array();
    points.push_back(harness::point_to_json(meta, r));

    harness::json config = harness::json::object();
    config.set("trial_ms", 20);
    config.set("trials", 1);
    harness::json th = harness::json::array();
    th.push_back(2);
    config.set("threads", std::move(th));
    config.set("seed", 1);

    return harness::make_run_document("workload", "unit_test", "summary",
                                      "Figure N", std::move(config),
                                      std::move(points), true, true);
}

TEST(BenchJson, RunDocumentValidatesAndRoundTrips) {
    const harness::json doc = sample_document();
    std::string err;
    EXPECT_TRUE(harness::validate_run_document(doc, &err)) << err;

    // The document survives serialization: what CI reads back from the
    // artifact is schema-valid too, and identical.
    auto back = json::parse(doc.dump(2));
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(harness::validate_run_document(*back, &err)) << err;
    EXPECT_EQ(*back, doc);

    // Spot-check the measured values survived.
    const json& p = (*back->find("points"))[0];
    EXPECT_EQ(p.find("total_ops")->as_int(), 1000);
    EXPECT_EQ(p.find("reclamation")->find("limbo_records")->as_int(), 17);
    EXPECT_EQ(p.find("phase_ops")->size(), 2u);
    EXPECT_TRUE(p.find("invariant")->find("ok")->as_bool());
    EXPECT_DOUBLE_EQ(p.find("throughput_mops")->as_double(), 0.01);

    // The topology stanza (schema v2) rode along: the memory-placement
    // counters in the points are interpretable from the document alone.
    const json& topo = *back->find("topology");
    EXPECT_GE(topo.find("sockets")->as_int(), 1);
    EXPECT_GE(topo.find("shards")->as_int(), 1);
    EXPECT_FALSE(topo.find("source")->as_string().empty());
    EXPECT_EQ(p.find("reclamation")->find("pool_remote_returns")->as_int(),
              0);

    // The latency stanza (schema v3): clock + sampling config, per-op and
    // merged summaries with sparse buckets, stall-site summaries.
    const json& lat = *p.find("latency");
    EXPECT_EQ(lat.find("clock")->as_string(), "steady_clock");
    EXPECT_EQ(lat.find("sample_every")->as_int(), 32);
    const json& ins = *lat.find("ops")->find("insert");
    EXPECT_EQ(ins.find("count")->as_int(), 5);
    EXPECT_EQ(ins.find("buckets")->size(), 2u);  // sparse: two live buckets
    EXPECT_EQ((*ins.find("buckets"))[0][0].as_int(), 40);
    EXPECT_EQ((*ins.find("buckets"))[0][1].as_int(), 4);
    EXPECT_EQ(lat.find("total")->find("count")->as_int(),
              5 * harness::N_OP_KINDS);
    // p50 of 4-at-bucket-40 + 1-at-bucket-80 lies in bucket 40.
    const long long p50 = ins.find("p50_ns")->as_int();
    EXPECT_GE(p50, static_cast<long long>(lat_bucket_lo(40)));
    EXPECT_LT(p50, static_cast<long long>(lat_bucket_hi(40)));
    EXPECT_EQ(lat.find("stalls")->find("neutralize")->find("count")->as_int(),
              2);
    EXPECT_EQ(lat.find("stalls")->find("scan_free")->find("count")->as_int(),
              0);

    // The range-scan shape keys (schema v3) are emitted per point.
    EXPECT_EQ(p.find("rq_pct")->as_int(), 10);
    EXPECT_EQ(p.find("rq_len")->as_int(), 100);
}

TEST(BenchJson, SchemaCatchesBrokenLatencyStanza) {
    std::string err;
    // A workload point without the latency stanza fails validation.
    {
        harness::json doc = sample_document();
        harness::json& p =
            const_cast<harness::json&>((*doc.find("points"))[0]);
        harness::json stripped = harness::json::object();
        for (const auto& [k, v] : p.members()) {
            if (k != std::string("latency")) stripped.set(k, v);
        }
        p = std::move(stripped);
        EXPECT_FALSE(harness::validate_run_document(doc, &err));
        EXPECT_NE(err.find("latency"), std::string::npos) << err;
    }
    // A mistyped percentile inside a summary fails validation.
    {
        harness::json doc = sample_document();
        harness::json& p =
            const_cast<harness::json&>((*doc.find("points"))[0]);
        harness::json& total =
            const_cast<harness::json&>(*p.find("latency")->find("total"));
        total.set("p99_ns", "slow");
        EXPECT_FALSE(harness::validate_run_document(doc, &err));
        EXPECT_NE(err.find("p99_ns"), std::string::npos) << err;
    }
    // A malformed sparse-bucket entry (wrong arity) fails validation.
    {
        harness::json doc = sample_document();
        harness::json& p =
            const_cast<harness::json&>((*doc.find("points"))[0]);
        harness::json& total =
            const_cast<harness::json&>(*p.find("latency")->find("total"));
        harness::json buckets = harness::json::array();
        harness::json entry = harness::json::array();
        entry.push_back(3);
        buckets.push_back(std::move(entry));
        total.set("buckets", std::move(buckets));
        EXPECT_FALSE(harness::validate_run_document(doc, &err));
        EXPECT_NE(err.find("buckets"), std::string::npos) << err;
    }
    // A missing stall site fails validation.
    {
        harness::json doc = sample_document();
        harness::json& p =
            const_cast<harness::json&>((*doc.find("points"))[0]);
        harness::json& lat = const_cast<harness::json&>(*p.find("latency"));
        harness::json stalls = harness::json::object();
        lat.set("stalls", std::move(stalls));
        EXPECT_FALSE(harness::validate_run_document(doc, &err));
        EXPECT_NE(err.find("stalls"), std::string::npos) << err;
    }
}

// Two points that differ only in range-scan shape must stay
// distinguishable to any reader that keys points by their configuration,
// which requires rq_pct/rq_len in the emitted point. Before v3,
// range_scan_mix's per-rq_pct points carried no field that told them apart.
TEST(BenchJson, RangeShapeKeysDistinguishPoints) {
    harness::trial_result r;
    r.seconds = 0.1;
    r.total_ops = 100;

    harness::point_meta a;
    a.ds = "ellen_bst";
    a.scheme = "debra";
    a.policy = "reclaim";
    a.threads = 2;
    a.trial = 0;
    a.rq_pct = 1;
    a.rq_len = 10;
    harness::point_meta b = a;
    b.rq_pct = 10;
    b.rq_len = 1000;

    const harness::json pa = harness::point_to_json(a, r);
    const harness::json pb = harness::point_to_json(b, r);
    EXPECT_EQ(pa.find("rq_pct")->as_int(), 1);
    EXPECT_EQ(pa.find("rq_len")->as_int(), 10);
    EXPECT_EQ(pb.find("rq_pct")->as_int(), 10);
    EXPECT_EQ(pb.find("rq_len")->as_int(), 1000);
    EXPECT_NE(pa, pb);
}

TEST(BenchJson, SchemaCatchesMissingOrMistypedKeys) {
    std::string err;
    // Drop each required envelope key in turn.
    for (const char* key : {"smr_bench_version", "kind", "scenario",
                            "config", "host", "topology", "points",
                            "verdict"}) {
        harness::json doc = sample_document();
        harness::json stripped = harness::json::object();
        for (const auto& [k, v] : doc.members()) {
            if (k != key) stripped.set(k, v);
        }
        EXPECT_FALSE(harness::validate_run_document(stripped, &err))
            << "missing '" << key << "' accepted";
        EXPECT_NE(err.find(key), std::string::npos) << err;
    }

    // Workload points are checked strictly.
    {
        harness::json doc = sample_document();
        harness::json& p =
            const_cast<harness::json&>((*doc.find("points"))[0]);
        p.set("throughput_mops", "fast");  // wrong type
        EXPECT_FALSE(harness::validate_run_document(doc, &err));
        EXPECT_NE(err.find("throughput_mops"), std::string::npos) << err;
    }

    // verdict.points must agree with the array length.
    {
        harness::json doc = sample_document();
        harness::json& v = const_cast<harness::json&>(*doc.find("verdict"));
        v.set("points", 99);
        EXPECT_FALSE(harness::validate_run_document(doc, &err));
    }

    // Wrong schema version is rejected.
    {
        harness::json doc = sample_document();
        doc.set("smr_bench_version", harness::SMR_BENCH_SCHEMA_VERSION + 1);
        EXPECT_FALSE(harness::validate_run_document(doc, &err));
    }

    // Non-workload kinds only need the envelope.
    {
        harness::json doc = sample_document();
        doc.set("kind", "table");
        harness::json loose_points = harness::json::array();
        harness::json row = harness::json::object();
        row.set("scheme", "debra");
        loose_points.push_back(std::move(row));
        doc.set("points", std::move(loose_points));
        harness::json& v = const_cast<harness::json&>(*doc.find("verdict"));
        v.set("points", 1);
        EXPECT_TRUE(harness::validate_run_document(doc, &err)) << err;
    }
}

// ---- schema v4: exact version, serve stanza, timeline lines ----------------

TEST(BenchJson, ValidatorsAcceptOnlyTheCurrentVersion) {
    // Run documents and timeline headers both carry exactly schema 4; a
    // document from the schema before or after it fails either validator.
    static_assert(harness::SMR_BENCH_SCHEMA_VERSION == 4);
    std::string err;
    harness::json header = harness::json::object();
    header.set("type", "timeline_header");
    header.set("snapshot_ms", 25);
    header.set("clock", "tsc");
    header.set("ring_capacity", 4096);
    for (const int v : {3, 4, 5}) {
        const bool current = v == harness::SMR_BENCH_SCHEMA_VERSION;
        harness::json doc = sample_document();
        doc.set("smr_bench_version", v);
        EXPECT_EQ(harness::validate_run_document(doc, &err), current)
            << "version " << v << ": " << err;
        header.set("smr_bench_version", v);
        EXPECT_EQ(harness::validate_timeline_line(header, &err), current)
            << "timeline version " << v << ": " << err;
    }
}

TEST(BenchJson, ServeStanzaValidatesWhenPresent) {
    std::string err;
    // A workload point gains an optional serve stanza when the trial ran
    // in serve mode; its shape is checked strictly.
    harness::trial_result r;
    r.seconds = 1.0;
    r.total_ops = 60000;
    r.serve.ran = true;
    r.serve.snapshots = 40;
    r.serve.monitor_violations = 0;
    r.serve.first_violation_snapshot = -1;
    r.serve.target_ops_per_sec = 60000;
    r.serve.achieved_ops_per_sec = 59900;
    r.serve.churn_cycles = 4;
    r.serve.canary_leaks = 0;
    r.serve.events_drained = 1234;
    r.serve.events_dropped = 0;

    harness::point_meta meta;
    meta.ds = "ellen_bst";
    meta.scheme = "debra+";
    meta.policy = "reclaim";
    meta.threads = 2;
    meta.trial = 0;

    harness::json doc = sample_document();
    harness::json& points = const_cast<harness::json&>(*doc.find("points"));
    points.push_back(harness::point_to_json(meta, r));
    harness::json& v = const_cast<harness::json&>(*doc.find("verdict"));
    v.set("points", 2);
    ASSERT_TRUE(harness::validate_run_document(doc, &err)) << err;

    const harness::json& sp = *points[1].find("serve");
    EXPECT_EQ(sp.find("snapshots")->as_int(), 40);
    EXPECT_EQ(sp.find("first_violation_snapshot")->as_int(), -1);
    EXPECT_EQ(sp.find("events_drained")->as_int(), 1234);

    // A mistyped serve field fails validation.
    harness::json& sp_mut =
        const_cast<harness::json&>(*points[1].find("serve"));
    sp_mut.set("monitor_violations", "many");
    EXPECT_FALSE(harness::validate_run_document(doc, &err));
    EXPECT_NE(err.find("monitor_violations"), std::string::npos) << err;
}

json parse_line(const char* text) {
    auto v = json::parse(text);
    EXPECT_TRUE(v.has_value()) << text;
    return v.value_or(json());
}

TEST(BenchJson, TimelineLineValidation) {
    std::string err;
    // Header: current version, snapshot cadence, clock, ring capacity.
    EXPECT_TRUE(harness::validate_timeline_line(
        parse_line("{\"type\":\"timeline_header\",\"smr_bench_version\":4,"
                   "\"snapshot_ms\":25,\"clock\":\"tsc\","
                   "\"ring_capacity\":4096}"),
        &err))
        << err;
    // Header with an unsupported version fails.
    EXPECT_FALSE(harness::validate_timeline_line(
        parse_line("{\"type\":\"timeline_header\",\"smr_bench_version\":99,"
                   "\"snapshot_ms\":25,\"clock\":\"tsc\","
                   "\"ring_capacity\":4096}"),
        &err));

    // Snapshot: must carry the axes, drain accounting, the full counter
    // matrix, and the monitor block. Build one with every stat name.
    harness::json snap = harness::json::object();
    snap.set("type", "snapshot");
    snap.set("seq", 0);
    snap.set("t_ms", 25);
    snap.set("limbo_estimate", 10);
    snap.set("footprint_records", 500);
    snap.set("events_drained", 7);
    snap.set("events_dropped", 0);
    harness::json counters = harness::json::object();
    for (std::size_t s = 0; s < static_cast<std::size_t>(stat::COUNT); ++s) {
        counters.set(std::string(stat_names[s]), 1);
    }
    snap.set("counters", std::move(counters));
    harness::json mon = harness::json::object();
    mon.set("violations", 0);
    mon.set("limbo_streak", 0);
    mon.set("footprint_streak", 0);
    snap.set("monitor", std::move(mon));
    EXPECT_TRUE(harness::validate_timeline_line(snap, &err)) << err;

    // Dropping one counter from the matrix fails.
    harness::json sparse = harness::json::object();
    for (const auto& [k, v] : snap.members()) {
        if (k != std::string("counters")) sparse.set(k, v);
    }
    harness::json partial = harness::json::object();
    partial.set(std::string(stat_names[0]), 1);
    sparse.set("counters", std::move(partial));
    EXPECT_FALSE(harness::validate_timeline_line(sparse, &err));
    EXPECT_NE(err.find("counters"), std::string::npos) << err;

    // Events: 6-element rows [t_ns, tid, name, a0, a1, seq].
    EXPECT_TRUE(harness::validate_timeline_line(
        parse_line("{\"type\":\"events\",\"batch\":"
                   "[[100,0,\"limbo_rotation\",2,0,7]]}"),
        &err))
        << err;
    EXPECT_FALSE(harness::validate_timeline_line(
        parse_line("{\"type\":\"events\",\"batch\":[[100,0,\"x\",2,0]]}"),
        &err));
    EXPECT_FALSE(harness::validate_timeline_line(
        parse_line("{\"type\":\"events\",\"batch\":"
                   "[[-5,0,\"x\",2,0,7]]}"),
        &err));

    // Unknown line types fail loudly.
    EXPECT_FALSE(harness::validate_timeline_line(
        parse_line("{\"type\":\"mystery\"}"), &err));
}

}  // namespace
}  // namespace smr
