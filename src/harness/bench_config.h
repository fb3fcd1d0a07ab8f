// bench_config.h -- one source of truth for smr_bench's run parameters.
//
// Command-line flags are the only way to set them. A default-constructed
// bench_config holds the built-in defaults, and apply_args() layers the
// flags on top, range-checking each value as it parses it: an unusable
// value is a usage error (exit 2), never a silent repair. The serve-mode
// knobs land directly in a harness::serve_config (workload.h), so each of
// their defaults is written once, where the trial loop reads it.
#pragma once

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "../util/debug_stats.h"
#include "workload.h"

namespace smr::harness {

/// Environment-variable knob: integer with fallback, for the few
/// process-level settings a test harness sets per test (the recording
/// gates' bounds). Strict full-token parse: a malformed or out-of-range
/// value keeps the fallback.
inline int env_int(const char* name, int fallback) {
    const char* v = std::getenv(name);
    if (v == nullptr || *v == '\0') return fallback;
    char* end = nullptr;
    const long long parsed = std::strtoll(v, &end, 10);
    if (end == nullptr || *end != '\0' || parsed < INT_MIN ||
        parsed > INT_MAX) {
        return fallback;
    }
    return static_cast<int>(parsed);
}

/// Splits a comma-separated list, dropping empty tokens. The one
/// tokenizer behind every list-valued flag.
inline std::vector<std::string> split_list(const std::string& spec) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos) comma = spec.size();
        if (comma > pos) out.push_back(spec.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

/// Parses a comma-separated list of positive ints ("1,2,4,8"). Entries
/// that fail to parse or are non-positive are dropped (a 0-thread trial
/// would crash the harness); an empty result means nothing was usable.
inline std::vector<int> parse_int_list(const std::string& spec) {
    std::vector<int> out;
    for (const std::string& tok : split_list(spec)) {
        char* end = nullptr;
        const long v = std::strtol(tok.c_str(), &end, 10);
        if (end != nullptr && *end == '\0' && v > 0 && v <= 1 << 20) {
            out.push_back(static_cast<int>(v));
        }
    }
    return out;
}

struct bench_config {
    // Trial shape.
    int trial_ms = 100;
    int trials = 1;
    std::vector<int> thread_counts = {1, 2, 4, 8};
    long long keyrange_large = 1000000;
    std::uint64_t seed = 1;
    /// Latency sampling period: every Nth operation per thread is timed
    /// (0 disables recording entirely, 1 times every op). 32 keeps the
    /// recording overhead under the guard_overhead-style 2% budget while
    /// still collecting ~30k samples per second per thread.
    int lat_sample = 32;

    /// Sustained-service (smr_serve) shape, as the --serve-*,
    /// --snapshot-ms, --timeline and --trace-ring flags set it. The serve
    /// scenario copies it into each cell's workload_config, then applies
    /// its churn default, the monitor disarm for `none`, and per-cell
    /// timeline paths: here, serve.snapshot.path is the --timeline prefix.
    serve_config serve;

    // Driver selection (CLI only; empty = scenario defaults).
    std::string scenario;
    std::vector<std::string> ds_filter;
    std::vector<std::string> scheme_filter;
    /// --alloc: allocator names (bump, malloc, arena) overriding the
    /// scenario's memory-policy sweep (each maps to that allocator over
    /// the shared pool; "discard" selects the Experiment-1 overhead
    /// policy). Validated against the policy table by the driver.
    std::vector<std::string> alloc_filter;
    /// --pin: pinning policies (none, compact, scatter) overriding the
    /// scenario's placement sweep. Validated by the driver.
    std::vector<std::string> pin_filter;
    std::string json_path;  // "", or a path, or "-" for stdout
    bool list = false;
    bool help = false;

    /// Whether --threads was given (oversubscription scenarios pick their
    /// own sweep only when the user didn't).
    bool threads_explicit = false;

    /// Layers command-line flags over this config. Flags use
    /// --name=value; --list/--help are bare. Returns false and sets *err
    /// on an unknown flag or unusable value.
    bool apply_args(int argc, char** argv, std::string* err) {
        const auto fail = [&](const std::string& msg) {
            if (err != nullptr) *err = msg;
            return false;
        };
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            std::string name = arg, value;
            if (const auto eq = arg.find('='); eq != std::string::npos) {
                name = arg.substr(0, eq);
                value = arg.substr(eq + 1);
            }
            const auto int_value = [&](int lo, int hi, int* out) {
                char* end = nullptr;
                const long v = std::strtol(value.c_str(), &end, 10);
                if (value.empty() || end == nullptr || *end != '\0' ||
                    v < lo || v > hi) {
                    return false;
                }
                *out = static_cast<int>(v);
                return true;
            };
            const auto ll_value = [&](long long lo, long long hi,
                                      long long* out) {
                char* end = nullptr;
                const long long v = std::strtoll(value.c_str(), &end, 10);
                if (value.empty() || end == nullptr || *end != '\0' ||
                    v < lo || v > hi) {
                    return false;
                }
                *out = v;
                return true;
            };
            if (name == "--list") {
                list = true;
            } else if (name == "--help" || name == "-h") {
                help = true;
            } else if (name == "--scenario") {
                if (value.empty()) return fail("--scenario needs a name");
                scenario = value;
            } else if (name == "--ds") {
                ds_filter = split_list(value);
                if (ds_filter.empty()) {
                    return fail("--ds needs a comma-separated list");
                }
            } else if (name == "--scheme") {
                scheme_filter = split_list(value);
                if (scheme_filter.empty()) {
                    return fail("--scheme needs a comma-separated list");
                }
            } else if (name == "--alloc") {
                alloc_filter = split_list(value);
                if (alloc_filter.empty()) {
                    return fail("--alloc needs a comma-separated list "
                                "(bump, malloc, arena, discard)");
                }
            } else if (name == "--pin") {
                pin_filter = split_list(value);
                if (pin_filter.empty()) {
                    return fail("--pin needs a comma-separated list "
                                "(none, compact, scatter)");
                }
            } else if (name == "--threads") {
                auto parsed = parse_int_list(value);
                if (parsed.empty()) {
                    return fail("--threads: no usable positive entries in '" +
                                value + "'");
                }
                if (*std::max_element(parsed.begin(), parsed.end()) >
                    MAX_THREADS) {
                    return fail("--threads: need counts in [1, " +
                                std::to_string(MAX_THREADS) +
                                "] (a record_manager's MAX_THREADS)");
                }
                thread_counts = std::move(parsed);
                threads_explicit = true;
            } else if (name == "--trial-ms") {
                if (!int_value(1, 1 << 24, &trial_ms)) {
                    return fail("--trial-ms: need an integer in [1, 2^24]");
                }
            } else if (name == "--trials") {
                if (!int_value(1, 1 << 16, &trials)) {
                    return fail("--trials: need an integer in [1, 65536]");
                }
            } else if (name == "--keyrange") {
                int kr = 0;
                if (!int_value(1, 1 << 30, &kr)) {
                    return fail("--keyrange: need an integer in [1, 2^30]");
                }
                keyrange_large = kr;
            } else if (name == "--lat-sample") {
                if (!int_value(0, 1 << 20, &lat_sample)) {
                    return fail(
                        "--lat-sample: need an integer in [0, 2^20] "
                        "(0 disables latency recording)");
                }
            } else if (name == "--seed") {
                int s = 0;
                if (!int_value(0, 1 << 30, &s)) {
                    return fail("--seed: need an integer in [0, 2^30]");
                }
                seed = static_cast<std::uint64_t>(s);
            } else if (name == "--serve-rate") {
                if (!ll_value(0, 1LL << 40, &serve.ops_per_sec)) {
                    return fail("--serve-rate: need ops/sec in [0, 2^40] "
                                "(0 = unpaced)");
                }
            } else if (name == "--snapshot-ms") {
                if (!int_value(1, 1 << 20, &serve.snapshot.snapshot_ms)) {
                    return fail("--snapshot-ms: need an integer in "
                                "[1, 2^20]");
                }
            } else if (name == "--serve-churn-ms") {
                if (!int_value(0, 1 << 24, &serve.churn_period_ms)) {
                    return fail("--serve-churn-ms: need an integer in "
                                "[0, 2^24] (0 disables churn)");
                }
            } else if (name == "--serve-churn-threads") {
                if (!int_value(0, 1 << 10, &serve.churn_threads)) {
                    return fail("--serve-churn-threads: need an integer in "
                                "[0, 1024]");
                }
            } else if (name == "--serve-monitor-window") {
                if (!int_value(1, 1 << 16, &serve.snapshot.monitor.window)) {
                    return fail("--serve-monitor-window: need an integer "
                                "in [1, 65536]");
                }
            } else if (name == "--serve-monitor-growth") {
                if (!ll_value(0, 1LL << 40,
                              &serve.snapshot.monitor.min_growth)) {
                    return fail("--serve-monitor-growth: need records in "
                                "[0, 2^40]");
                }
            } else if (name == "--serve-canary") {
                if (!ll_value(0, 1LL << 40, &serve.canary_leak_every)) {
                    return fail("--serve-canary: need an op period in "
                                "[0, 2^40] (0 disables the leak canary)");
                }
            } else if (name == "--timeline") {
                if (value.empty()) {
                    return fail("--timeline needs a path prefix");
                }
                serve.snapshot.path = value;
            } else if (name == "--trace-ring") {
                if (!ll_value(8, 1LL << 24, &serve.ring_capacity)) {
                    return fail("--trace-ring: need a capacity in "
                                "[8, 2^24]");
                }
            } else if (name == "--json") {
                if (value.empty()) {
                    return fail("--json needs a path (or '-' for stdout)");
                }
                json_path = value;
            } else {
                return fail("unknown flag '" + arg + "' (try --help)");
            }
        }
        return true;
    }
};

}  // namespace smr::harness
