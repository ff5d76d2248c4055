#include "common/parse.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>

#include "common/logging.h"

namespace juno {

namespace {

/** Leading whitespace means a quoting bug upstream; fail loudly. */
bool
startsWithSpace(const std::string &text)
{
    return !text.empty() &&
           std::isspace(static_cast<unsigned char>(text.front())) != 0;
}

} // namespace

std::optional<std::int64_t>
parseInt64(const std::string &text)
{
    if (text.empty() || startsWithSpace(text))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    if (errno == ERANGE)
        return std::nullopt; // overflow/underflow, not a wrapped value
    if (end == text.c_str() || *end != '\0')
        return std::nullopt; // nothing parsed, or trailing junk
    return static_cast<std::int64_t>(value);
}

std::optional<std::int64_t>
parseInt64InRange(const std::string &text, std::int64_t lo, std::int64_t hi)
{
    const auto value = parseInt64(text);
    if (!value || *value < lo || *value > hi)
        return std::nullopt;
    return value;
}

std::optional<double>
parseFloat64(const std::string &text)
{
    if (text.empty() || startsWithSpace(text))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL))
        return std::nullopt; // overflow; denormal underflow is fine
    if (end == text.c_str() || *end != '\0')
        return std::nullopt;
    if (!std::isfinite(value))
        return std::nullopt; // "inf"/"nan" spellings strtod accepts
    return value;
}

std::optional<std::int64_t>
parseByteSize(const std::string &text)
{
    if (text.empty() || startsWithSpace(text))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    if (errno == ERANGE || end == text.c_str() || value < 0)
        return std::nullopt;
    std::int64_t scale = 1;
    if (*end != '\0') {
        switch (std::tolower(static_cast<unsigned char>(*end))) {
        case 'k':
            scale = std::int64_t(1) << 10;
            break;
        case 'm':
            scale = std::int64_t(1) << 20;
            break;
        case 'g':
            scale = std::int64_t(1) << 30;
            break;
        default:
            return std::nullopt;
        }
        if (end[1] != '\0')
            return std::nullopt;
    }
    // Check before multiplying: value * scale in int64 is UB on
    // overflow, and UBSan builds turn that into an abort.
    if (value > std::numeric_limits<std::int64_t>::max() / scale)
        return std::nullopt;
    return static_cast<std::int64_t>(value) * scale;
}

Args::Args(int argc, char **argv, int first,
           std::initializer_list<const char *> bare,
           std::initializer_list<const char *> known)
{
    const std::set<std::string> bare_keys(bare.begin(), bare.end());
    const std::set<std::string> known_keys(known.begin(), known.end());
    for (int i = first; i < argc; ++i) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0)
            fatal("expected --option, got '" + key + "'");
        key = key.substr(2);
        if (!known_keys.empty() && known_keys.count(key) == 0)
            fatal("unknown flag --" + key);
        if (bare_keys.count(key) != 0) {
            values_[key] = "1";
            continue;
        }
        if (i + 1 >= argc)
            fatal("missing value for --" + key);
        values_[key] = argv[++i];
    }
}

std::string
Args::get(const std::string &key, const std::string &fallback) const
{
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
}

std::int64_t
Args::getInt(const std::string &key, std::int64_t fallback,
             std::int64_t lo, std::int64_t hi) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    const auto v = parseInt64InRange(it->second, lo, hi);
    if (!v)
        fatal("--" + key + " expects an integer in [" +
              std::to_string(lo) + ", " + std::to_string(hi) + "], got '" +
              it->second + "'");
    return *v;
}

double
Args::getDouble(const std::string &key, double fallback, double lo,
                double hi) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    // parseFloat64 also rejects inf/nan, which would otherwise slip
    // through into threshold comparisons.
    const auto v = parseFloat64(it->second);
    if (!v || *v < lo || *v > hi) {
        std::ostringstream msg;
        msg << "--" << key << " expects a finite number";
        if (lo != std::numeric_limits<double>::lowest() ||
            hi != std::numeric_limits<double>::max())
            msg << " in [" << lo << ", " << hi << "]";
        msg << ", got '" << it->second << "'";
        fatal(msg.str());
    }
    return *v;
}

} // namespace juno
