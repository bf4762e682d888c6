//===- kccbench/src/Trace.cpp - In-memory spans and counters --------------===//
//
// Part of cundef's benchmark (kccbench).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "Common.h"

#include <algorithm>
#include <cstdio>

namespace kccbench {

int64_t Tracer::begin(const char *Name, uint64_t Request, int64_t Parent) {
  double Now = nowSeconds();
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back({Name, Now, Now, Parent, Request});
  return static_cast<int64_t>(Spans.size() - 1);
}

void Tracer::end(int64_t Id) {
  double Now = nowSeconds();
  std::lock_guard<std::mutex> Lock(Mu);
  Spans[static_cast<size_t>(Id)].End = Now;
}

int64_t Tracer::add(const char *Name, double Start, double End,
                    uint64_t Request, int64_t Parent) {
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back({Name, Start, End, Parent, Request});
  return static_cast<int64_t>(Spans.size() - 1);
}

void Tracer::count(const std::string &Name, double Delta) {
  std::lock_guard<std::mutex> Lock(Mu);
  Counters[Name] += Delta;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans;
}

std::map<std::string, double> Tracer::counters() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Counters;
}

std::map<std::string, double> Tracer::selfByName() const {
  std::vector<Span> All = spans();
  std::vector<std::vector<size_t>> Children(All.size());
  for (size_t I = 0; I < All.size(); ++I)
    if (All[I].Parent >= 0)
      Children[static_cast<size_t>(All[I].Parent)].push_back(I);

  std::map<std::string, double> Self;
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<double, double>> Iv;
    for (size_t C : Children[I])
      Iv.emplace_back(std::max(All[C].Start, S.Start),
                      std::min(All[C].End, S.End));
    std::sort(Iv.begin(), Iv.end());
    double Covered = 0.0, Reach = S.Start;
    for (const auto &[Lo, Hi] : Iv) {
      double From = std::max(Lo, Reach);
      if (Hi > From) {
        Covered += Hi - From;
        Reach = Hi;
      }
    }
    Self[S.Name] += std::max(0.0, (S.End - S.Start) - Covered);
  }
  return Self;
}

std::map<std::string, double> Tracer::selfByLayer() const {
  std::map<std::string, double> Layers;
  for (const auto &[Name, Sec] : selfByName())
    Layers[Name.substr(0, Name.find('.'))] += Sec;
  return Layers;
}

static std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

std::string Tracer::toJson() const {
  std::vector<Span> All = spans();
  double Origin = All.empty() ? 0.0 : All.front().Start;
  std::string J = "{\"spans\": [";
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    J += (I ? ",\n" : "\n") + std::string("[\"") + S.Name + "\", " +
         num((S.Start - Origin) * 1e6) + ", " + num((S.End - Origin) * 1e6) +
         ", " + std::to_string(S.Parent) + ", " + std::to_string(S.Request) +
         "]";
  }
  J += "],\n\"span_fields\": [\"name\", \"start_us\", \"end_us\", \"parent\", "
       "\"request\"],\n\"self_s_by_name\": {";
  bool First = true;
  for (const auto &[Name, Sec] : selfByName()) {
    J += (First ? "" : ", ") + std::string("\"") + Name + "\": " + num(Sec);
    First = false;
  }
  J += "},\n\"self_s_by_layer\": {";
  First = true;
  for (const auto &[Name, Sec] : selfByLayer()) {
    J += (First ? "" : ", ") + std::string("\"") + Name + "\": " + num(Sec);
    First = false;
  }
  J += "},\n\"counters\": {";
  First = true;
  for (const auto &[Name, V] : counters()) {
    J += (First ? "" : ", ") + std::string("\"") + Name + "\": " + num(V);
    First = false;
  }
  J += "}}";
  return J;
}

} // namespace kccbench
