//===- perfbench/Stats.h - Statistics helpers of the benchmark --*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The small amount of statistics the whole-stack benchmark needs, kept
/// header-only so the unit tests (stats_test.cpp) exercise exactly the code
/// the benchmark runs:
///
///  * median and quartiles, the quartiles computed as Python's
///    statistics.quantiles(values, n=4) does (its default "exclusive"
///    method), so the benchmark's own spread figures match Python's;
///  * a high percentile that refuses to answer unless at least ten samples
///    lie beyond it (p99 therefore needs at least 1000 samples);
///  * the metric-name rule of BENCHMARK.json;
///  * the set-up / measured-loop time split behind `setup_s` and
///    `throughput`.
///
//===----------------------------------------------------------------------===//

#ifndef B2_PERFBENCH_STATS_H
#define B2_PERFBENCH_STATS_H

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace b2 {
namespace perfbench {

/// Median of \p V (mean of the two middle values for an even count).
/// Empty input yields 0.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// First, second and third quartile with the interpolation of Python's
/// statistics.quantiles(V, n=4, method="exclusive"). Needs two values.
inline std::optional<std::array<double, 3>> quartiles(std::vector<double> V) {
  if (V.size() < 2)
    return std::nullopt;
  std::sort(V.begin(), V.end());
  const long Ld = long(V.size()), M = Ld + 1, N = 4;
  std::array<double, 3> Out{};
  for (long I = 1; I < N; ++I) {
    long J = std::clamp(I * M / N, 1L, Ld - 1);
    long Delta = I * M - J * N;
    Out[size_t(I - 1)] =
        (V[size_t(J - 1)] * double(N - Delta) + V[size_t(J)] * double(Delta)) /
        double(N);
  }
  return Out;
}

/// Interquartile range as a share of the median (0 when the median is 0).
inline double relativeSpread(const std::vector<double> &V) {
  std::optional<std::array<double, 3>> Q = quartiles(V);
  double Med = median(V);
  if (!Q || Med == 0)
    return 0;
  return ((*Q)[2] - (*Q)[0]) / std::fabs(Med);
}

/// Nearest-rank percentile \p P (0 < P < 1) of integer samples. Refuses
/// (nullopt) unless at least ten samples lie beyond the percentile, so a
/// tail figure never rests on a handful of points: p99 needs 1000.
inline std::optional<uint64_t> percentile(std::vector<uint64_t> V, double P) {
  if (!(P > 0 && P < 1) || V.empty())
    return std::nullopt;
  const double Beyond = double(V.size()) * (1 - P);
  if (Beyond + 1e-9 < 10)
    return std::nullopt;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(std::ceil(P * double(V.size())));
  return V[std::max<size_t>(Rank, 1) - 1];
}

/// BENCHMARK.json's name rule: 1 to 64 characters from [A-Za-z0-9_.-],
/// starting with a letter or a digit.
inline bool validMetricName(const std::string &Name) {
  if (Name.empty() || Name.size() > 64)
    return false;
  auto Alnum = [](char C) {
    return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
           (C >= '0' && C <= '9');
  };
  if (!Alnum(Name[0]))
    return false;
  return std::all_of(Name.begin(), Name.end(), [&](char C) {
    return Alnum(C) || C == '_' || C == '.' || C == '-';
  });
}

/// Host time of one run, split at the first measured unit. Each set-up
/// (input generation, compilation, boot) is timed on its own and never
/// enters throughput, which is the median over the measured repetitions
/// of units per second of loop time.
struct RunTiming {
  std::vector<double> SetupS; ///< One entry per set-up repetition.
  std::vector<double> LoopS;  ///< One entry per measured repetition.
  std::vector<uint64_t> Units; ///< Units completed by each repetition.

  void addRep(double Seconds, uint64_t N) {
    LoopS.push_back(Seconds);
    Units.push_back(N);
  }
  double setupMedian() const { return median(SetupS); }
  std::vector<double> rates() const {
    std::vector<double> R;
    for (size_t I = 0; I != LoopS.size(); ++I)
      if (LoopS[I] > 0)
        R.push_back(double(Units[I]) / LoopS[I]);
    return R;
  }
  double throughputMedian() const { return median(rates()); }
  double loopTotal() const {
    double S = 0;
    for (double L : LoopS)
      S += L;
    return S;
  }
};

} // namespace perfbench
} // namespace b2

#endif // B2_PERFBENCH_STATS_H
