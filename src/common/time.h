// Fixed-point simulation time for the TPRM library.
//
// The paper's evaluation (Section 5) manipulates task durations such as
// `t = 25` and `t / alpha` with alpha in (0, 1]; deadlines divide by
// `(1 - laxity)`.  Representing these as floating point inside the scheduler
// would make hole coalescing and deadline comparisons depend on rounding
// noise, so all scheduler-facing time is an integer number of *ticks*.
// One paper time unit is `kTicksPerUnit` ticks; doubles appear only at the
// workload-generation boundary and are rounded exactly once.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace tprm {

/// Scheduler time in integer ticks.  Signed so that differences (slack,
/// laxity) are representable without casts.
using Time = std::int64_t;

/// Number of ticks in one paper time unit (see Section 5.3: `t = 25` units).
/// 1e6 gives microsecond-like resolution against unit-scale quantities and
/// still leaves ~9e12 units of headroom in 64 bits.
inline constexpr Time kTicksPerUnit = 1'000'000;

/// Sentinel for "no deadline" / "unbounded horizon".
inline constexpr Time kTimeInfinity = std::numeric_limits<Time>::max() / 4;

/// Converts a paper-unit quantity (possibly fractional) to ticks, rounding to
/// nearest.  This is the *only* sanctioned double->Time conversion.
[[nodiscard]] Time ticksFromUnits(double units);

/// True iff ticksFromUnits(units) is defined: `units` is finite and its
/// tick count lies strictly inside (-kTimeInfinity, kTimeInfinity).
/// Decoders of untrusted input check this instead of letting the
/// conversion abort.
[[nodiscard]] bool unitsFitTicks(double units);

/// Converts ticks back to paper units (for reporting only).
[[nodiscard]] double unitsFromTicks(Time ticks);

/// Formats a tick count as a decimal unit string, e.g. "25", "6.25".
/// Trailing zeros in the fractional part are trimmed.
[[nodiscard]] std::string formatTime(Time ticks);

/// Half-open time interval [begin, end).  Empty iff begin >= end.
struct TimeInterval {
  Time begin = 0;
  Time end = 0;

  [[nodiscard]] constexpr Time length() const { return end - begin; }
  [[nodiscard]] constexpr bool empty() const { return begin >= end; }
  [[nodiscard]] constexpr bool contains(Time t) const {
    return t >= begin && t < end;
  }
  /// True iff the two half-open intervals share at least one tick.
  [[nodiscard]] constexpr bool overlaps(const TimeInterval& other) const {
    return begin < other.end && other.begin < end;
  }
  /// Intersection of two half-open intervals (possibly empty).
  [[nodiscard]] constexpr TimeInterval intersect(
      const TimeInterval& other) const {
    const Time b = begin > other.begin ? begin : other.begin;
    const Time e = end < other.end ? end : other.end;
    return TimeInterval{b, e};
  }
  constexpr bool operator==(const TimeInterval&) const = default;
};

}  // namespace tprm
