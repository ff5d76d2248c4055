#include "common/timer.h"

namespace juno {

double
Timer::seconds() const
{
    const auto now = Clock::now();
    return std::chrono::duration<double>(now - start_).count();
}

const char *
stageName(Stage stage)
{
    switch (stage) {
    case Stage::kFilter:
        return "filter";
    case Stage::kLut:
        return "lut";
    case Stage::kRtLut:
        return "rt_lut";
    case Stage::kScan:
        return "scan";
    case Stage::kGraph:
        return "graph";
    case Stage::kRtExact:
        return "rt_exact";
    case Stage::kCount:
        break;
    }
    return "unknown";
}

double
StageTimers::seconds(const std::string &name) const
{
    for (std::size_t i = 0; i < kNumStages; ++i) {
        if (name == stageName(static_cast<Stage>(i)))
            return acc_[i];
    }
    return 0.0;
}

double
StageTimers::totalSeconds() const
{
    double total = 0.0;
    for (const double secs : acc_)
        total += secs;
    return total;
}

std::vector<std::string>
StageTimers::names() const
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < kNumStages; ++i) {
        if (seen_[i])
            out.emplace_back(stageName(static_cast<Stage>(i)));
    }
    return out;
}

void
StageTimers::reset()
{
    acc_.fill(0.0);
    seen_.fill(false);
}

void
StageTimers::merge(const StageTimers &other)
{
    for (std::size_t i = 0; i < kNumStages; ++i) {
        acc_[i] += other.acc_[i];
        seen_[i] = seen_[i] || other.seen_[i];
    }
}

} // namespace juno
