#pragma once

#include <cstdint>
#include <limits>

namespace vedr::sim {

/// Simulation time in nanoseconds. Signed so that differences and
/// "uninitialized" sentinels are representable without surprises.
using Tick = std::int64_t;

inline constexpr Tick kNanosecond = 1;
inline constexpr Tick kMicrosecond = 1'000;
inline constexpr Tick kMillisecond = 1'000'000;
inline constexpr Tick kSecond = 1'000'000'000;

/// Sentinel meaning "no time recorded yet".
inline constexpr Tick kNever = -1;

/// The end of simulated time: an unbounded run limit or lookahead.
inline constexpr Tick kForever = std::numeric_limits<Tick>::max();

constexpr double to_us(Tick t) { return static_cast<double>(t) / kMicrosecond; }
constexpr double to_ms(Tick t) { return static_cast<double>(t) / kMillisecond; }
constexpr double to_s(Tick t) { return static_cast<double>(t) / kSecond; }

/// Serialization delay of `bytes` on a link of `gbps` gigabits per second,
/// rounded up so zero-byte frames still take one tick slot of zero.
constexpr Tick transmission_delay(std::int64_t bytes, double gbps) {
  // bits / (gbps * 1e9 bits/s) seconds -> ns = bits * 8 / gbps
  return static_cast<Tick>(static_cast<double>(bytes) * 8.0 / gbps);
}

}  // namespace vedr::sim
