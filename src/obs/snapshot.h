// snapshot.h -- the streaming side of the telemetry subsystem (DESIGN.md
// Section 12): a sampler thread that every `snapshot_ms` drains the event
// rings, harvests the debug_stats counter matrix, and appends one JSONL
// snapshot line to a timeline file -- plus the invariant monitor that
// turns those samples into a leak verdict.
//
// The timeline is append-only JSONL (one self-contained JSON document per
// line) so a crashed or killed soak still leaves a readable prefix --
// exactly the failure mode a sustained-service run exists to catch. Line
// shapes ("timeline_header" / "snapshot" / "events") are validated by
// report.h's validate_timeline_line, and tools/trace_export converts a
// timeline into a Perfetto-loadable Chrome trace.
//
// Invariant-monitor window rule (DESIGN.md Section 12.4): a leak is
// *sustained growth*, not any growth -- scan-and-free schemes oscillate by
// whole batches. So the monitor flags axis X (limbo estimate or footprint)
// only when X[i] - X[i-window] > min_growth for `consecutive` consecutive
// samples, after a warmup prefix is skipped. Strict monotonicity would
// never fire on a real leak layered over scan oscillation; a single-delta
// threshold would fire on every batch refill.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "../harness/json.h"
#include "../util/debug_stats.h"
#include "../util/latency_hist.h"
#include "event_ring.h"

namespace smr::obs {

struct monitor_config {
    /// Growth is measured across this many samples: x[i] - x[i-window].
    int window = 8;
    /// Windowed growth below this many records is noise, not a leak.
    long long min_growth = 4096;
    /// Consecutive over-threshold windows before a violation is declared.
    int consecutive = 3;
    /// Samples ignored at the start (prefill / cache warmup transients).
    int warmup = 4;
};

/// Sliding-window monotone-growth detector over the two leak axes:
/// limbo estimate (records retired but not yet handed to a pool) and
/// footprint (records allocated but never freed). Pure state machine --
/// feed it one observation per snapshot, read the verdict.
class invariant_monitor {
  public:
    explicit invariant_monitor(const monitor_config& cfg = {}) : cfg_(cfg) {}

    void observe(long long limbo, long long footprint) {
        ++samples_;
        limbo_hist_.push_back(limbo);
        footprint_hist_.push_back(footprint);
        if (samples_ <= cfg_.warmup) return;
        check_axis("limbo_estimate", limbo_hist_, &limbo_streak_);
        check_axis("footprint_records", footprint_hist_, &footprint_streak_);
    }

    long long violations() const noexcept { return found_violations_; }
    int limbo_streak() const noexcept { return limbo_streak_; }
    int footprint_streak() const noexcept { return footprint_streak_; }
    long long samples() const noexcept { return samples_; }
    /// Human-readable account of the first violation ("" if none).
    const std::string& first_violation() const noexcept { return first_; }
    /// 1-based sample index of the first violation (-1 if none).
    long long first_violation_sample() const noexcept {
        return first_sample_;
    }

    const monitor_config& config() const noexcept { return cfg_; }

  private:
    void check_axis(const char* name, const std::vector<long long>& hist,
                    int* streak) {
        const std::size_t n = hist.size();
        if (n <= static_cast<std::size_t>(cfg_.window)) return;
        const long long growth =
            hist[n - 1] - hist[n - 1 - static_cast<std::size_t>(cfg_.window)];
        if (growth > cfg_.min_growth) {
            if (++*streak >= cfg_.consecutive) {
                ++found_violations_;
                if (first_.empty()) {
                    first_sample_ = samples_;
                    first_ = std::string(name) + " grew by " +
                             std::to_string(growth) + " records over " +
                             std::to_string(cfg_.window) + " samples for " +
                             std::to_string(*streak) +
                             " consecutive windows (sample " +
                             std::to_string(samples_) + ")";
                }
            }
        } else {
            *streak = 0;
        }
    }

    monitor_config cfg_;
    std::vector<long long> limbo_hist_;
    std::vector<long long> footprint_hist_;
    long long samples_ = 0;
    int limbo_streak_ = 0;
    int footprint_streak_ = 0;
    long long found_violations_ = 0;
    long long first_sample_ = -1;
    std::string first_;
};

struct snapshot_config {
    int snapshot_ms = 100;
    /// Timeline JSONL path; empty = sample and monitor but write nothing
    /// (the telemetry_overhead A/B and the canary tests write no file).
    std::string path;
    /// Cap on events serialized per "events" line; the rest of a drain
    /// batch continues on following lines.
    std::size_t events_per_line = 2048;
    monitor_config monitor;
};

/// The sampler thread. Owns the timeline file; start() writes the header
/// line, each tick writes events + snapshot lines, stop() takes one final
/// tick so short trials still produce a complete timeline.
///
/// Harvest correctness under thread churn: totals come from
/// debug_stats::total(), which sums every tid cell (cells persist after a
/// thread deregisters and are inherited by a tid's next owner), so
/// per-snapshot deltas never lose or double-count a deregistered thread's
/// contribution -- pinned by the DebugStats churn tests.
class snapshot_streamer {
  public:
    snapshot_streamer(const snapshot_config& cfg, const debug_stats* stats)
        : cfg_(cfg), stats_(stats), monitor_(cfg.monitor) {}

    ~snapshot_streamer() { stop(); }

    snapshot_streamer(const snapshot_streamer&) = delete;
    snapshot_streamer& operator=(const snapshot_streamer&) = delete;

    /// Extra fields appended to every snapshot line (e.g. the serve
    /// harness's achieved-rate gauge). Called on the sampler thread.
    void set_augment(std::function<void(harness::json*)> fn) {
        augment_ = std::move(fn);
    }

    /// `meta` is merged into the header line (scenario/ds/scheme/threads).
    /// `schema_version` is the run-document schema this timeline belongs
    /// to (report.h's SMR_BENCH_SCHEMA_VERSION; passed in, not included,
    /// to keep obs/ free of a harness/report.h dependency).
    void start(int schema_version, const harness::json& meta) {
        if (running_.exchange(true, std::memory_order_acq_rel)) return;
        t0_ticks_ = lat_clock::now();
        start_ = std::chrono::steady_clock::now();
        if (!cfg_.path.empty()) {
            out_.open(cfg_.path, std::ios::out | std::ios::trunc);
        }
        harness::json header = harness::json::object();
        header.set("type", "timeline_header");
        header.set("smr_bench_version", schema_version);
        if (meta.is_object()) {
            for (const auto& [k, v] : meta.members()) header.set(k, v);
        }
        header.set("snapshot_ms", cfg_.snapshot_ms);
        header.set("clock", std::string(lat_clock::source_name()));
        header.set("ring_capacity",
                   static_cast<long long>(ring_capacity_hint()));
        write_line(header);
        sampler_ = std::thread([this] { run(); });
    }

    /// Joins the sampler after one final tick. Idempotent.
    void stop() {
        {
            // Flip running_ under mu_: an unlocked store could land
            // between the sampler's predicate check and its wait, and the
            // notify below would be missed (stalling shutdown by up to one
            // snapshot period).
            std::lock_guard<std::mutex> lk(mu_);
            if (!running_.exchange(false, std::memory_order_acq_rel))
                return;
        }
        cv_.notify_all();
        if (sampler_.joinable()) sampler_.join();
        tick();  // final drain + snapshot after workers quiesced
        if (out_.is_open()) out_.close();
    }

    long long snapshots() const noexcept {
        return snapshots_.load(std::memory_order_relaxed);
    }
    std::uint64_t events_drained() const noexcept {
        return events_drained_.load(std::memory_order_relaxed);
    }
    std::uint64_t events_dropped() const noexcept {
        return events_dropped_.load(std::memory_order_relaxed);
    }
    long long violations() const noexcept {
        return violations_.load(std::memory_order_relaxed);
    }
    /// First violation detail; call only after stop() (sampler-owned).
    const std::string& first_violation() const noexcept {
        return monitor_.first_violation();
    }
    long long first_violation_sample() const noexcept {
        return monitor_.first_violation_sample();
    }

    /// The leak axes, as the monitor sees them. Exposed for tests.
    long long limbo_estimate() const noexcept {
        return static_cast<long long>(stats_->total(stat::records_retired)) -
               static_cast<long long>(stats_->total(stat::records_pooled));
    }
    long long footprint_records() const noexcept {
        return static_cast<long long>(
                   stats_->total(stat::records_allocated)) -
               static_cast<long long>(stats_->total(stat::records_freed));
    }

  private:
    static std::size_t ring_capacity_hint() {
        event_ring* r = g_event_trace.ring(0);
        return r != nullptr ? r->capacity() : 0;
    }

    void run() {
        auto next = start_ + std::chrono::milliseconds(cfg_.snapshot_ms);
        std::unique_lock<std::mutex> lk(mu_);
        while (running_.load(std::memory_order_acquire)) {
            if (cv_.wait_until(lk, next, [this] {
                    return !running_.load(std::memory_order_acquire);
                })) {
                break;
            }
            next += std::chrono::milliseconds(cfg_.snapshot_ms);
            tick();
        }
    }

    void tick() {
        // 1. Drain every ring into one batch, oldest-first per thread.
        events_.clear();
        std::uint64_t drained = 0;
        const int n = g_event_trace.max_tids();
        for (int t = 0; t < n; ++t) {
            if (event_ring* r = g_event_trace.ring(t)) {
                drained += r->drain(&events_);
            }
        }
        events_drained_.fetch_add(drained, std::memory_order_relaxed);
        events_dropped_.store(g_event_trace.total_dropped(),
                              std::memory_order_relaxed);
        write_events();

        // 2. Harvest the counter matrix and feed the monitor.
        const long long limbo = limbo_estimate();
        const long long footprint = footprint_records();
        monitor_.observe(limbo, footprint);
        violations_.store(monitor_.violations(), std::memory_order_relaxed);
        const long long seq =
            snapshots_.fetch_add(1, std::memory_order_relaxed);

        harness::json snap = harness::json::object();
        snap.set("type", "snapshot");
        snap.set("seq", seq);
        snap.set("t_ms", static_cast<long long>(
                             std::chrono::duration_cast<
                                 std::chrono::milliseconds>(
                                 std::chrono::steady_clock::now() - start_)
                                 .count()));
        snap.set("limbo_estimate", limbo);
        snap.set("footprint_records", footprint);
        snap.set("events_drained", static_cast<long long>(drained));
        snap.set("events_dropped",
                 static_cast<long long>(
                     events_dropped_.load(std::memory_order_relaxed)));
        harness::json counters = harness::json::object();
        for (int s = 0; s < static_cast<int>(stat::COUNT); ++s) {
            counters.set(std::string(stat_names[static_cast<std::size_t>(s)]),
                         static_cast<long long>(
                             stats_->total(static_cast<stat>(s))));
        }
        snap.set("counters", std::move(counters));
        harness::json mon = harness::json::object();
        mon.set("violations", monitor_.violations());
        mon.set("limbo_streak", monitor_.limbo_streak());
        mon.set("footprint_streak", monitor_.footprint_streak());
        snap.set("monitor", std::move(mon));
        if (augment_) augment_(&snap);
        write_line(snap);
    }

    void write_events() {
        if (events_.empty()) return;
        std::size_t i = 0;
        while (i < events_.size()) {
            harness::json batch = harness::json::array();
            const std::size_t end =
                std::min(events_.size(), i + cfg_.events_per_line);
            for (; i < end; ++i) {
                const event_record& e = events_[i];
                harness::json row = harness::json::array();
                // Ticks before the streamer's t0 (enable happened after
                // the event) clamp to 0 rather than wrapping.
                const std::uint64_t dt =
                    e.tsc >= t0_ticks_ ? e.tsc - t0_ticks_ : 0;
                row.push_back(
                    static_cast<long long>(lat_clock::to_nanos(dt)));
                row.push_back(e.tid);
                row.push_back(std::string(
                    e.ev < trace_event::COUNT
                        ? event_table[static_cast<std::size_t>(e.ev)].name
                        : std::string_view("unknown")));
                row.push_back(static_cast<long long>(e.arg0));
                row.push_back(static_cast<long long>(e.arg1));
                row.push_back(static_cast<long long>(e.seq));
                batch.push_back(std::move(row));
            }
            harness::json line = harness::json::object();
            line.set("type", "events");
            line.set("batch", std::move(batch));
            write_line(line);
        }
    }

    void write_line(const harness::json& doc) {
        if (!out_.is_open()) return;
        out_ << doc.dump(0) << '\n';
        out_.flush();  // a killed soak keeps every completed line
    }

    snapshot_config cfg_;
    const debug_stats* stats_;
    invariant_monitor monitor_;
    std::function<void(harness::json*)> augment_;

    std::ofstream out_;
    std::thread sampler_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::atomic<bool> running_{false};
    std::atomic<long long> snapshots_{0};
    std::atomic<long long> violations_{0};
    std::atomic<std::uint64_t> events_drained_{0};
    std::atomic<std::uint64_t> events_dropped_{0};
    std::uint64_t t0_ticks_ = 0;
    std::chrono::steady_clock::time_point start_{};
    std::vector<event_record> events_;
};

}  // namespace smr::obs
