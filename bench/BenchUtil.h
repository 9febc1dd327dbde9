//===- bench/BenchUtil.h - Tables and the bench harness --------*- C++ -*-===//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed-width table printing for the table/figure binaries, and the one
/// measurement harness of the throughput benches:
///
///  * a timed window: run a step until MinSeconds have passed;
///  * repetitions summarised as median and IQR (perfbench/Stats.h);
///  * interleaved A/B pairs, the first side alternating, so a ratio gate
///    compares two measurements taken back to back and host drift cancels;
///  * one writer for the `b2stack-bench-v1` document:
///    `{schema, bench, quick, rows[], gates[]}`.
///
//===----------------------------------------------------------------------===//

#ifndef B2_BENCH_BENCHUTIL_H
#define B2_BENCH_BENCHUTIL_H

#include "../perfbench/Stats.h"
#include "support/Format.h"
#include "support/Json.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace b2 {
namespace bench {

/// Fixed-width text table.
class Table {
public:
  explicit Table(std::vector<std::string> Header)
      : Columns(Header.size()) {
    Rows.push_back(std::move(Header));
  }

  void row(std::vector<std::string> Cells) {
    Cells.resize(Columns);
    Rows.push_back(std::move(Cells));
  }

  void print() const {
    std::vector<size_t> Width(Columns, 0);
    for (const auto &R : Rows)
      for (size_t I = 0; I != Columns; ++I)
        Width[I] = std::max(Width[I], R[I].size());
    auto Rule = [&] {
      std::string S = "+";
      for (size_t I = 0; I != Columns; ++I)
        S += std::string(Width[I] + 2, '-') + "+";
      std::printf("%s\n", S.c_str());
    };
    Rule();
    for (size_t R = 0; R != Rows.size(); ++R) {
      std::string S = "|";
      for (size_t I = 0; I != Columns; ++I)
        S += " " + support::padRight(Rows[R][I], Width[I]) + " |";
      std::printf("%s\n", S.c_str());
      if (R == 0)
        Rule();
    }
    Rule();
  }

private:
  size_t Columns;
  std::vector<std::vector<std::string>> Rows;
};

/// "%.2f" as a string.
inline std::string fixed(double V, int Digits = 2) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Digits, V);
  return Buf;
}

inline std::string withTimes(double V, int Digits = 1) {
  return fixed(V, Digits) + "x";
}

// -- The bench harness --------------------------------------------------------

/// Host seconds on the steady clock.
inline double now() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

/// True for a bench's `--quick` flag (a shorter smoke run).
inline bool quickFlag(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--quick") == 0)
      return true;
  return false;
}

/// One timed window: the units a step completed and the seconds it took.
struct Window {
  uint64_t Units = 0;
  double Seconds = 0;
  double rate() const { return Seconds > 0 ? double(Units) / Seconds : 0; }
};

struct NoSetup {
  void operator()() const {}
};

/// Calls \p Step until \p MinSeconds have passed (at least once). Step
/// returns the units it completed; a step that completes none ends the
/// window early. \p Setup, when given, runs before each step and is not
/// timed (without it, a step costs one clock read).
template <typename StepFn, typename SetupFn = NoSetup>
Window timeWindow(double MinSeconds, StepFn Step, SetupFn Setup = {}) {
  Window W;
  double Untimed = 0;
  const double Start = now();
  do {
    if constexpr (!std::is_same_v<SetupFn, NoSetup>) {
      double T0 = now();
      Setup();
      Untimed += now() - T0;
    }
    uint64_t N = Step();
    W.Units += N;
    W.Seconds = now() - Start - Untimed;
    if (N == 0)
      break;
  } while (W.Seconds < MinSeconds);
  return W;
}

/// Repetitions of one measurement: median and interquartile range, the
/// quartiles as Python's statistics.quantiles computes them. The IQR is 0
/// below two samples.
struct Summary {
  double Median = 0;
  double Iqr = 0;
  unsigned Reps = 0;
};

inline Summary summarize(const std::vector<double> &Samples) {
  Summary S;
  S.Median = perfbench::median(Samples);
  if (auto Q = perfbench::quartiles(Samples))
    S.Iqr = (*Q)[2] - (*Q)[0];
  S.Reps = unsigned(Samples.size());
  return S;
}

/// \p Reps samples of \p Measure.
template <typename MeasureFn>
std::vector<double> repeat(unsigned Reps, MeasureFn Measure) {
  std::vector<double> Out;
  for (unsigned I = 0; I != Reps; ++I)
    Out.push_back(Measure());
  return Out;
}

/// Interleaved A/B pairs: pair I runs A first when I is even and B first
/// when it is odd. Ratio[I] = A[I] / B[I] (0 when B[I] is 0).
struct Pairs {
  std::vector<double> A, B, Ratio;
};

template <typename AFn, typename BFn>
Pairs pairs(unsigned N, AFn RunA, BFn RunB) {
  Pairs P;
  for (unsigned I = 0; I != N; ++I) {
    double A, B;
    if (I % 2 == 0) {
      A = RunA();
      B = RunB();
    } else {
      B = RunB();
      A = RunA();
    }
    P.A.push_back(A);
    P.B.push_back(B);
    P.Ratio.push_back(B != 0 ? A / B : 0);
  }
  return P;
}

/// One `b2stack-bench-v1` row. The key is (bench, workload, variant,
/// metric); a deterministic row is a simulated count, not a host time.
struct Row {
  std::string Layer, Workload, Variant, Metric, Unit;
  bool HigherIsBetter = true;
  Summary S;
  bool Deterministic = false;
};

/// A gate: Ok iff `Value Op Bound` holds, Op one of < <= >= >.
struct Gate {
  std::string Name;
  double Value = 0;
  std::string Op;
  double Bound = 0;
  bool Enforced = true;
  bool Ok = false;
};

inline bool compare(double Value, const std::string &Op, double Bound) {
  if (Op == "<")
    return Value < Bound;
  if (Op == "<=")
    return Value <= Bound;
  if (Op == ">=")
    return Value >= Bound;
  if (Op == ">")
    return Value > Bound;
  return false;
}

/// The rows and gates of one bench run, printed as a table and written as
/// a `b2stack-bench-v1` document.
class Report {
public:
  Report(std::string Bench, bool Quick)
      : Bench(std::move(Bench)), Quick(Quick) {}

  void row(std::string Layer, std::string Workload, std::string Variant,
           std::string Metric, std::string Unit, bool HigherIsBetter,
           Summary S, bool Deterministic = false) {
    Rows.push_back({std::move(Layer), std::move(Workload), std::move(Variant),
                    std::move(Metric), std::move(Unit), HigherIsBetter, S,
                    Deterministic});
  }

  /// Records a gate. A gate on a host-time statistic is enforced only
  /// outside --quick, whose short windows are too noisy to gate on; an
  /// \p Exact gate (a simulated count) is enforced in both modes.
  Gate gate(std::string Name, double Value, std::string Op, double Bound,
            bool Exact = false) {
    bool Ok = compare(Value, Op, Bound);
    Gates.push_back(
        {std::move(Name), Value, std::move(Op), Bound, Exact || !Quick, Ok});
    return Gates.back();
  }

  /// True iff every enforced gate holds.
  bool gatesOk() const {
    for (const Gate &G : Gates)
      if (G.Enforced && !G.Ok)
        return false;
    return true;
  }

  /// Median of the row with this workload, variant and metric (0 if none).
  double median(const std::string &Workload, const std::string &Variant,
                const std::string &Metric) const {
    for (const Row &R : Rows)
      if (R.Workload == Workload && R.Variant == Variant && R.Metric == Metric)
        return R.S.Median;
    return 0;
  }

  void print() const {
    Table T({"workload", "variant", "metric", "median", "iqr", "reps"});
    for (const Row &R : Rows)
      T.row({R.Workload, R.Variant, R.Metric + " (" + R.Unit + ")",
             num(R.S.Median), num(R.S.Iqr), std::to_string(R.S.Reps)});
    T.print();
    for (const Gate &G : Gates)
      std::printf("gate %s: %s %s %s — %s\n", G.Name.c_str(),
                  num(G.Value).c_str(), G.Op.c_str(), num(G.Bound).c_str(),
                  G.Ok         ? "holds"
                  : G.Enforced ? "FAILED"
                               : "fails (not enforced in --quick)");
  }

  std::string json() const {
    support::JsonWriter J;
    J.beginObject();
    J.key("schema").value("b2stack-bench-v1");
    J.key("bench").value(Bench);
    J.key("quick").value(Quick);
    J.key("rows").beginArray();
    for (const Row &R : Rows) {
      J.beginObject();
      J.key("layer").value(R.Layer);
      J.key("workload").value(R.Workload);
      J.key("variant").value(R.Variant);
      J.key("metric").value(R.Metric);
      J.key("unit").value(R.Unit);
      J.key("better").value(R.HigherIsBetter ? "higher" : "lower");
      J.key("median").value(R.S.Median);
      J.key("iqr").value(R.S.Iqr);
      J.key("reps").value(R.S.Reps);
      J.key("deterministic").value(R.Deterministic);
      J.endObject();
    }
    J.endArray();
    J.key("gates").beginArray();
    for (const Gate &G : Gates) {
      J.beginObject();
      J.key("name").value(G.Name);
      J.key("value").value(G.Value);
      J.key("op").value(G.Op);
      J.key("bound").value(G.Bound);
      J.key("enforced").value(G.Enforced);
      J.key("ok").value(G.Ok);
      J.endObject();
    }
    J.endArray();
    J.endObject();
    return J.str();
  }

  /// Prints the table and writes the document to \p Path.
  void finish(const char *Path) const {
    print();
    if (support::writeFile(Path, json()))
      std::printf("wrote %s\n", Path);
    else
      std::fprintf(stderr, "failed to write %s\n", Path);
  }

private:
  static std::string num(double V) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.4g", V);
    return Buf;
  }

  std::string Bench;
  bool Quick;
  std::vector<Row> Rows;
  std::vector<Gate> Gates;
};

} // namespace bench
} // namespace b2

#endif // B2_BENCH_BENCHUTIL_H
