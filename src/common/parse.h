#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <string>

namespace juno {

/**
 * Strict numeric parsing for CLI flags and environment knobs.
 *
 * std::stol / std::stod are the wrong tool at trust boundaries: they
 * accept trailing junk unless the caller re-checks, report overflow by
 * throwing, and under-flag builds their unchecked cousins (atoi,
 * strtol without errno) turn "9999999999999999999999" into silent UB
 * or a wrapped value. Every helper here:
 *
 *   - consumes the ENTIRE string ("12x", "1 2", "" all fail),
 *   - rejects leading whitespace (flags are machine-written; a stray
 *     space is a quoting bug worth surfacing),
 *   - reports overflow/underflow as parse failure instead of throwing
 *     or saturating silently,
 *   - returns std::nullopt on failure so the caller owns the
 *     diagnostic (CLI fatal(), env-var warn-and-ignore, ...).
 */

/** Base-10 signed integer; nullopt on junk, partial parse or overflow. */
std::optional<std::int64_t> parseInt64(const std::string &text);

/**
 * parseInt64 plus an inclusive [lo, hi] range check. Out-of-range
 * values fail the parse — the caller cannot accidentally keep them.
 */
std::optional<std::int64_t> parseInt64InRange(const std::string &text,
                                              std::int64_t lo,
                                              std::int64_t hi);

/**
 * Finite double; nullopt on junk, partial parse, overflow to +/-inf,
 * or explicit "inf"/"nan" spellings (no knob in this codebase wants a
 * non-finite value, and NaN silently poisons threshold comparisons).
 */
std::optional<double> parseFloat64(const std::string &text);

/**
 * Byte size with optional k/m/g suffix (case-insensitive, powers of
 * 1024): "512", "64m", "2G". Rejects negatives, junk, and values that
 * would overflow std::int64_t after scaling. This is the single
 * parser behind JUNO_MEM_BUDGET (HotListCache::parseByteSize) and any
 * future byte-size flag.
 */
std::optional<std::int64_t> parseByteSize(const std::string &text);

/**
 * A "--key value" command line checked with the parsers above: the
 * front end of juno_cli and the serving benches. Keys in @p bare take
 * no value (presence is the value); a non-empty @p known rejects any
 * other key. A token that is not "--key", a missing value, and, on
 * lookup, a malformed or out-of-range number throw ConfigError naming
 * the flag: a typo like `--k ten`, a partial parse (`--k 1x`) or
 * overflow must not wrap or reach the engine.
 */
class Args {
  public:
    Args(int argc, char **argv, int first,
         std::initializer_list<const char *> bare = {"smoke"},
         std::initializer_list<const char *> known = {});

    std::string get(const std::string &key,
                    const std::string &fallback) const;
    /** Integer flag in the inclusive range [lo, hi]. */
    std::int64_t
    getInt(const std::string &key, std::int64_t fallback,
           std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
           std::int64_t hi = std::numeric_limits<std::int64_t>::max()) const;
    /** Finite number flag in [lo, hi]. */
    double getDouble(const std::string &key, double fallback,
                     double lo = std::numeric_limits<double>::lowest(),
                     double hi = std::numeric_limits<double>::max()) const;
    bool has(const std::string &key) const { return values_.count(key); }

  private:
    std::map<std::string, std::string> values_;
};

} // namespace juno
