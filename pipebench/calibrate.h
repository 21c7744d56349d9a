#pragma once

// Host-speed calibration. The benchmark runs on shared machines whose speed
// wanders by tens of percent over tens of seconds: on the reference machine
// the same 4 run_case calls took 0.35 s in one 20-second stretch and 0.50 s
// in another. A fixed kernel of the benchmark's own code (never the library's,
// so no change under src/ moves it) is timed between the rounds, and the
// rates and set-up time are scaled by how much slower than on the reference
// machine it ran. In a probe on that machine, dividing 20-second windows of
// run_case time by a kernel of the same two parts brought their quartile
// spread from 0.29 of the median to 0.03.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pipebench {

/// Runs the calibration kernel once: a small discrete-event loop (binary
/// heap, hash map, small allocations), then a pointer chase through a
/// 256 KiB ring, the mix that tracked run_case best. Returns a checksum that
/// depends only on this file's code. It works in one static arena, so only
/// one thread may run it at a time.
std::uint64_t calibration_kernel();

/// The checksum calibration_kernel() returns; the self-test pins it, so the
/// kernel's work cannot change unnoticed.
inline constexpr std::uint64_t kCalibrationChecksum = 39371921437ULL;

/// Median seconds the kernel took on the reference machine (4 vCPU Xeon at
/// 2.0 GHz, GCC 12.2, Release).
inline constexpr double kReferenceKernelS = 0.035;

/// Kernel timings that bracket stretches of a run's work: the kernel runs
/// before the first stretch and after each one, and a stretch's slowdown is
/// the mean of the two samples around it. Multiply a rate, or divide a
/// time, by that slowdown to get its value at the reference machine's speed.
class HostSpeed {
 public:
  /// Runs the kernel once untimed, so no timing pays its warm-up, then
  /// takes the first sample.
  HostSpeed();

  /// Samples the kernel and returns the slowdown of the stretch since the
  /// previous sample: above 1 when the host ran slower than the reference.
  double bracket();

  /// Median slowdown over every sample so far.
  double median_slowdown() const;

  std::size_t samples() const { return slowdowns_.size(); }

 private:
  double sample();

  std::vector<double> slowdowns_;
};

}  // namespace pipebench
