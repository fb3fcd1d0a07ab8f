// Tests for smr_bench's run configuration (harness/bench_config.h):
// built-in defaults, command-line flags over them, int-list parsing, and
// flag error reporting. Flags are the only source: the SMR_* variables of
// the per-binary era are ignored.
#include <gtest/gtest.h>

#include <cstdlib>

#include "harness/bench_config.h"

namespace smr {
namespace {

using harness::bench_config;
using harness::parse_int_list;

/// setenv/unsetenv scope guard so tests cannot leak knobs into each other.
class env_guard {
  public:
    env_guard(const char* name, const char* value) : name_(name) {
        ::setenv(name, value, 1);
    }
    ~env_guard() { ::unsetenv(name_); }

  private:
    const char* name_;
};

bench_config from_args(std::initializer_list<const char*> args,
                       bool* ok = nullptr, std::string* err = nullptr) {
    std::vector<char*> argv = {const_cast<char*>("smr_bench")};
    for (const char* a : args) argv.push_back(const_cast<char*>(a));
    bench_config c;
    std::string local_err;
    const bool parsed = c.apply_args(static_cast<int>(argv.size()),
                                     argv.data(),
                                     err != nullptr ? err : &local_err);
    if (ok != nullptr) *ok = parsed;
    return c;
}

TEST(BenchConfig, ParseIntListAcceptsAndFilters) {
    EXPECT_EQ(parse_int_list("1,2,4,8"), (std::vector<int>{1, 2, 4, 8}));
    EXPECT_EQ(parse_int_list("16"), (std::vector<int>{16}));
    // Garbage, non-positive, and empty entries are dropped, not crashed on
    // (the seed's bench once aborted on "0" thread counts).
    EXPECT_EQ(parse_int_list("0,-3,2,banana,4x,,8"),
              (std::vector<int>{2, 8}));
    EXPECT_TRUE(parse_int_list("").empty());
    EXPECT_TRUE(parse_int_list("zero,none").empty());
}

TEST(BenchConfig, Defaults) {
    const bench_config c;
    EXPECT_EQ(c.trial_ms, 100);
    EXPECT_EQ(c.trials, 1);
    EXPECT_EQ(c.thread_counts, (std::vector<int>{1, 2, 4, 8}));
    EXPECT_EQ(c.keyrange_large, 1000000);
    EXPECT_FALSE(c.threads_explicit);
}

TEST(BenchConfig, EnvironmentIsIgnored) {
    // The run-configuration variables of the per-binary era no longer
    // reach smr_bench: a parse with no flags reads the built-in defaults.
    env_guard g1("SMR_TRIAL_MS", "250");
    env_guard g2("SMR_TRIALS", "3");
    env_guard g3("SMR_THREADS", "3,6");
    env_guard g4("SMR_KEYRANGE_LARGE", "5000");
    env_guard g5("SMR_LAT_SAMPLE", "64");
    env_guard g6("SMR_SERVE_RATE", "250000");
    env_guard g7("SMR_SNAPSHOT_MS", "50");
    env_guard g8("SMR_TIMELINE", "/tmp/tl");
    env_guard g9("SMR_TRACE_RING", "512");
    bool ok = false;
    const bench_config c = from_args({}, &ok);
    ASSERT_TRUE(ok);
    const bench_config d;
    EXPECT_EQ(c.trial_ms, d.trial_ms);
    EXPECT_EQ(c.trials, d.trials);
    EXPECT_EQ(c.thread_counts, d.thread_counts);
    EXPECT_FALSE(c.threads_explicit);
    EXPECT_EQ(c.keyrange_large, d.keyrange_large);
    EXPECT_EQ(c.lat_sample, d.lat_sample);
    EXPECT_EQ(c.serve.ops_per_sec, d.serve.ops_per_sec);
    EXPECT_EQ(c.serve.snapshot.snapshot_ms, d.serve.snapshot.snapshot_ms);
    EXPECT_TRUE(c.serve.snapshot.path.empty());
    EXPECT_EQ(c.serve.ring_capacity, d.serve.ring_capacity);
}

TEST(BenchConfig, FlagsOverrideDefaults) {
    bool ok = false;
    const bench_config c = from_args(
        {"--trial-ms=40", "--threads=2,4", "--scenario=zipf_churn",
         "--trials=5", "--keyrange=777", "--seed=9",
         "--json=/tmp/out.json"},
        &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(c.trial_ms, 40);
    EXPECT_EQ(c.thread_counts, (std::vector<int>{2, 4}));
    EXPECT_TRUE(c.threads_explicit);
    EXPECT_EQ(c.trials, 5);
    EXPECT_EQ(c.scenario, "zipf_churn");
    EXPECT_EQ(c.keyrange_large, 777);
    EXPECT_EQ(c.seed, 9u);
    EXPECT_EQ(c.json_path, "/tmp/out.json");
}

TEST(BenchConfig, FilterFlagsSplitNames) {
    bool ok = false;
    const bench_config c =
        from_args({"--ds=ellen_bst,hash_map", "--scheme=debra"}, &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(c.ds_filter,
              (std::vector<std::string>{"ellen_bst", "hash_map"}));
    EXPECT_EQ(c.scheme_filter, (std::vector<std::string>{"debra"}));
}

TEST(BenchConfig, AllocAndPinFilters) {
    bool ok = false;
    const bench_config c =
        from_args({"--alloc=bump,arena", "--pin=compact,scatter"}, &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(c.alloc_filter, (std::vector<std::string>{"bump", "arena"}));
    EXPECT_EQ(c.pin_filter,
              (std::vector<std::string>{"compact", "scatter"}));
    // Name validation happens in the driver (which owns the policy
    // table); empty lists are rejected here.
    std::string err;
    from_args({"--alloc="}, &ok, &err);
    EXPECT_FALSE(ok);
    EXPECT_NE(err.find("--alloc"), std::string::npos);
    from_args({"--pin=,"}, &ok, &err);
    EXPECT_FALSE(ok);
    EXPECT_NE(err.find("--pin"), std::string::npos);
}

TEST(BenchConfig, LatSampleKnob) {
    EXPECT_EQ(bench_config{}.lat_sample, 32);
    bool ok = false;
    EXPECT_EQ(from_args({"--lat-sample=8"}, &ok).lat_sample, 8);
    ASSERT_TRUE(ok);
    // 0 is a legal value: it disables recording rather than falling back.
    EXPECT_EQ(from_args({"--lat-sample=0"}, &ok).lat_sample, 0);
    ASSERT_TRUE(ok);
    std::string err;
    from_args({"--lat-sample=abc"}, &ok, &err);
    EXPECT_FALSE(ok);
    EXPECT_NE(err.find("--lat-sample"), std::string::npos);
    from_args({"--lat-sample=-1"}, &ok, &err);
    EXPECT_FALSE(ok);
}

TEST(BenchConfig, ServeKnobDefaults) {
    const bench_config c;
    EXPECT_FALSE(c.serve.enabled);
    EXPECT_EQ(c.serve.ops_per_sec, 100000);
    EXPECT_EQ(c.serve.snapshot.snapshot_ms, 100);
    EXPECT_EQ(c.serve.churn_period_ms, 0);
    EXPECT_EQ(c.serve.churn_threads, 0);
    EXPECT_EQ(c.serve.snapshot.monitor.window, 8);
    EXPECT_EQ(c.serve.snapshot.monitor.min_growth, 4096);
    EXPECT_EQ(c.serve.canary_leak_every, 0);
    EXPECT_TRUE(c.serve.snapshot.path.empty());
    EXPECT_EQ(c.serve.ring_capacity, 4096);
}

TEST(BenchConfig, ServeKnobFlags) {
    bool ok = false;
    const bench_config f = from_args(
        {"--serve-rate=75000", "--snapshot-ms=20", "--serve-churn-ms=250",
         "--serve-churn-threads=1", "--serve-monitor-window=4",
         "--serve-monitor-growth=64", "--serve-canary=100",
         "--timeline=/tmp/other", "--trace-ring=8192"},
        &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(f.serve.ops_per_sec, 75000);
    EXPECT_EQ(f.serve.snapshot.snapshot_ms, 20);
    EXPECT_EQ(f.serve.churn_period_ms, 250);
    EXPECT_EQ(f.serve.churn_threads, 1);
    EXPECT_EQ(f.serve.snapshot.monitor.window, 4);
    EXPECT_EQ(f.serve.snapshot.monitor.min_growth, 64);
    EXPECT_EQ(f.serve.canary_leak_every, 100);
    EXPECT_EQ(f.serve.snapshot.path, "/tmp/other");
    EXPECT_EQ(f.serve.ring_capacity, 8192);
}

TEST(BenchConfig, ServeKnobRejection) {
    // Flags reject garbage and out-of-range values loudly.
    bool ok = true;
    std::string err;
    from_args({"--serve-rate=abc"}, &ok, &err);
    EXPECT_FALSE(ok);
    EXPECT_NE(err.find("--serve-rate"), std::string::npos);
    from_args({"--serve-rate=-1"}, &ok, &err);
    EXPECT_FALSE(ok);
    from_args({"--snapshot-ms=0"}, &ok, &err);
    EXPECT_FALSE(ok);
    EXPECT_NE(err.find("--snapshot-ms"), std::string::npos);
    from_args({"--serve-churn-threads=2000"}, &ok, &err);
    EXPECT_FALSE(ok);
    from_args({"--serve-monitor-window=0"}, &ok, &err);
    EXPECT_FALSE(ok);
    from_args({"--serve-monitor-growth=12kb"}, &ok, &err);
    EXPECT_FALSE(ok);
    from_args({"--serve-canary=1e6"}, &ok, &err);
    EXPECT_FALSE(ok);
    from_args({"--timeline="}, &ok, &err);
    EXPECT_FALSE(ok);
    EXPECT_NE(err.find("--timeline"), std::string::npos);
    from_args({"--trace-ring=4"}, &ok, &err);  // below MIN_CAPACITY
    EXPECT_FALSE(ok);
}

TEST(BenchConfig, BareFlags) {
    bool ok = false;
    EXPECT_TRUE(from_args({"--list"}, &ok).list);
    ASSERT_TRUE(ok);
    EXPECT_TRUE(from_args({"--help"}, &ok).help);
    EXPECT_TRUE(from_args({"-h"}, &ok).help);
}

TEST(BenchConfig, BadFlagsAreReportedNotIgnored) {
    bool ok = true;
    std::string err;

    from_args({"--frobnicate=1"}, &ok, &err);
    EXPECT_FALSE(ok);
    EXPECT_NE(err.find("unknown flag"), std::string::npos);

    from_args({"--trial-ms=0"}, &ok, &err);
    EXPECT_FALSE(ok);
    EXPECT_NE(err.find("--trial-ms"), std::string::npos);

    from_args({"--trial-ms=abc"}, &ok, &err);
    EXPECT_FALSE(ok);

    from_args({"--threads=0,junk"}, &ok, &err);
    EXPECT_FALSE(ok);
    EXPECT_NE(err.find("--threads"), std::string::npos);

    // A record_manager holds at most MAX_THREADS threads; a larger count
    // is refused, not run past the end of its per-thread arrays.
    EXPECT_EQ(from_args({"--threads=128"}, &ok).thread_counts,
              (std::vector<int>{MAX_THREADS}));
    EXPECT_TRUE(ok);
    for (const char* arg : {"--threads=129", "--threads=2,129"}) {
        from_args({arg}, &ok, &err);
        EXPECT_FALSE(ok) << arg;
        EXPECT_NE(err.find("--threads"), std::string::npos);
    }

    from_args({"--trial-ms=-50"}, &ok, &err);
    EXPECT_FALSE(ok);
    from_args({"--keyrange=2000000000"}, &ok, &err);
    EXPECT_FALSE(ok);
    EXPECT_NE(err.find("--keyrange"), std::string::npos);

    from_args({"--scenario"}, &ok, &err);
    EXPECT_FALSE(ok);

    from_args({"--json="}, &ok, &err);
    EXPECT_FALSE(ok);
}

}  // namespace
}  // namespace smr
