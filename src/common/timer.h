/**
 * @file
 * Wall-clock timers and the per-stage timing ledger used by the
 * three-stage search pipeline (filter / LUT construction / distance
 * calculation) to reproduce the paper's breakdown figures.
 *
 * Stages are interned: the ledger is a fixed array indexed by an enum,
 * so the hot path (every searchChunk brackets its stages) is an array
 * add instead of a string-keyed map lookup. Strings appear only at
 * reporting time via stageName() / the string overload of seconds().
 */
#ifndef JUNO_COMMON_TIMER_H
#define JUNO_COMMON_TIMER_H

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace juno {

/** Simple monotonic wall-clock stopwatch. */
class Timer {
  public:
    Timer() { reset(); }

    /** Restarts the stopwatch. */
    void reset() { start_ = Clock::now(); }

    /** Seconds elapsed since construction or the last reset(). */
    double seconds() const;

    /** Milliseconds elapsed. */
    double millis() const { return seconds() * 1e3; }

    /** Microseconds elapsed. */
    double micros() const { return seconds() * 1e6; }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

/**
 * The interned pipeline stages. The FAISS-style pipeline reports
 * kFilter / kLut / kScan; JUNO reports kFilter / kRtLut / kScan.
 * Adding a stage means adding an enumerator before kCount and a name
 * in stageName().
 */
enum class Stage : std::uint8_t {
    kFilter = 0,   ///< stage A: cluster filtering (centroid scoring)
    kLut,          ///< stage B: per-query PQ lookup-table build
    kRtLut,        ///< stage B: JUNO's selective LUT (any backend)
    kScan,         ///< stage C: list scan / distance accumulation
    kGraph,        ///< HNSW graph traversal
    kRtExact,      ///< RT-exact device-side search
    kCount,        ///< number of stages (array size; not a stage)
};

/** Number of interned stages (size of the ledger array). */
inline constexpr std::size_t kNumStages =
    static_cast<std::size_t>(Stage::kCount);

/** Reporting-time name of @p stage (e.g. "filter", "rt_lut"). */
const char *stageName(Stage stage);

/**
 * Accumulates wall time per stage across many queries.
 *
 * Backed by a fixed array indexed by Stage, so add() on the search hot
 * path costs one bounds-checked array accumulate. StageTimers is how
 * the Fig. 3(a)/11(a)/13(a) benches obtain stage breakdowns.
 */
class StageTimers {
  public:
    /** Adds @p seconds to @p stage. Hot path: a single array add. */
    void add(Stage stage, double seconds)
    {
        const auto i = static_cast<std::size_t>(stage);
        acc_[i] += seconds;
        seen_[i] = true;
    }

    /** Total accumulated seconds for @p stage (0 if never recorded). */
    double seconds(Stage stage) const
    {
        return acc_[static_cast<std::size_t>(stage)];
    }

    /**
     * Reporting-time lookup by stage name; 0 for unknown names or
     * stages never recorded. Keeps string-keyed consumers (benches,
     * examples) working without exposing the map they used to pay for.
     */
    double seconds(const std::string &name) const;

    /** Sum over all stages. */
    double totalSeconds() const;

    /** Names of the stages recorded so far, in enum (pipeline) order. */
    std::vector<std::string> names() const;

    /** Clears all accumulated values. */
    void reset();

    /** Merges another ledger into this one (stage-wise sum). */
    void merge(const StageTimers &other);

  private:
    std::array<double, kNumStages> acc_{};
    std::array<bool, kNumStages> seen_{};
};

/** RAII helper: adds the scope's elapsed time to a StageTimers entry. */
class ScopedStageTimer {
  public:
    ScopedStageTimer(StageTimers &timers, Stage stage)
        : timers_(timers), stage_(stage)
    {
    }

    ~ScopedStageTimer() { timers_.add(stage_, timer_.seconds()); }

    ScopedStageTimer(const ScopedStageTimer &) = delete;
    ScopedStageTimer &operator=(const ScopedStageTimer &) = delete;

  private:
    StageTimers &timers_;
    Stage stage_;
    Timer timer_;
};

} // namespace juno

#endif // JUNO_COMMON_TIMER_H
