//===- kccbench/src/ServeMixed.cpp - The serve-mixed workload -------------===//
//
// Part of cundef's benchmark (kccbench).
//
// A kcc-serve daemon in the bench process on a Unix socket, driven by
// two closed-loop RemoteClient connections, one request in flight
// each. Eight in ten requests re-submit the hot set warmed during
// set-up (result-cache reads served by the wire, the poll loop and the
// lookup); two in ten are fresh programs that miss, search and publish
// (cache writes). The same caches are read and written at once across
// clients; the median lands on hits and the tail on real searches. Hot
// programs are file-sized (about 48 KB), so a hit's latency is mostly
// shipping and hashing the file rather than thread wake-ups.
//
//===----------------------------------------------------------------------===//

#include "Generators.h"
#include "Layers.h"
#include "Reference.h"
#include "Workloads.h"

#include "driver/Request.h"
#include "serve/Client.h"
#include "serve/Server.h"

#include <atomic>
#include <memory>
#include <thread>
#include <unistd.h>

using namespace cundef;

namespace kccbench {

namespace {

constexpr unsigned SearchBudget = 5000;
constexpr int Setups = 5;
constexpr unsigned Clients = 2;

/// A daemon serving on its own thread; destruction drains and joins it.
class Daemon {
public:
  Daemon(const std::string &SocketPath, std::string &Err) {
    ServeConfig Cfg;
    Cfg.UnixPath = SocketPath;
    Cfg.Engine = benchEngineConfig();
    D = std::make_unique<ServeDaemon>(Cfg);
    Ep.IsUnix = true;
    Ep.UnixPath = SocketPath;
    if (!D->listen(Err))
      return;
    Loop = std::thread([this] { D->run(); });
  }
  ~Daemon() {
    if (Loop.joinable()) {
      D->requestStop();
      Loop.join();
    }
  }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool running() const { return Loop.joinable(); }
  ServeDaemon &daemon() { return *D; }
  const RemoteEndpoint &endpoint() const { return Ep; }

private:
  std::unique_ptr<ServeDaemon> D;
  RemoteEndpoint Ep;
  std::thread Loop;
};

} // namespace

RunResult runServeMixed(const Options &Opt) {
  const AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(SearchBudget).buildOrDie();
  RunResult R;
  EndToEnd E;
  ServeStream Stream(Opt.Seed, Opt.Tiny);
  std::mutex Mu; // guards E, R and Ref across the client threads
  Sample Ref(Opt.Seed, 24);

  auto Fail = [&](const std::string &Why) {
    std::lock_guard<std::mutex> Lock(Mu);
    R.Correct = false;
    R.Notes.push_back(Why);
  };
  auto Record = [&](const Program &P, const DriverOutcome &O) {
    std::lock_guard<std::mutex> Lock(Mu);
    tally(R, E, P, O);
    Ref.offer(P, O);
  };

  // Set-up: daemon construction, listen, pool spawn, and filling the
  // hot set through one client.
  std::vector<BatchInput> HotInputs;
  for (const Program &P : Stream.hotSet())
    HotInputs.push_back({P.Source, P.Name});
  std::unique_ptr<Daemon> D;
  const StealScale SetupSteal;
  for (int I = 0; I < Setups; ++I) {
    D.reset();
    std::string Path = Opt.OutDir + "/kccbench-" +
                       std::to_string(getpid()) + ".sock";
    std::string Err;
    double T0 = nowSeconds();
    D = std::make_unique<Daemon>(Path, Err);
    RemoteClient Warm;
    std::vector<DriverOutcome> Outs;
    bool Ok = D->running() && Warm.connect(D->endpoint(), Err);
    // In chunks the daemon's per-client in-flight bound admits.
    for (size_t At = 0; Ok && At < HotInputs.size(); At += 16) {
      std::vector<BatchInput> Chunk(
          HotInputs.begin() + At,
          HotInputs.begin() + std::min(HotInputs.size(), At + 16));
      std::vector<DriverOutcome> ChunkOuts;
      std::vector<double> Micros;
      Ok = Warm.runBatch(Req, Chunk, ChunkOuts, Micros, Err);
      Outs.insert(Outs.end(), ChunkOuts.begin(), ChunkOuts.end());
    }
    if (!Ok) {
      Fail("serve set-up failed: " + Err);
      return R;
    }
    E.SetupSeconds.push_back(nowSeconds() - T0);
    for (size_t J = 0; J < Outs.size(); ++J)
      if (grade(Outs[J], Stream.hotSet()[J].Answer).StrictMiss)
        Fail("wrong verdict: " + Stream.hotSet()[J].Name);
  }
  E.scaleSetups(SetupSteal);

  AnalysisEngine &Eng = D->daemon().engine();
  R.Notes.push_back(heldOutNote(Eng, Req));

  const unsigned TinyRequests = 20; // per client and window
  uint64_t RequestBase = 0;
  auto Run = [&](double Seconds, Tracer *T, LayerStats *L, Slicer *Cut) {
    Window W;
    std::atomic<bool> Stop{false};
    std::atomic<uint64_t> Tus{0};
    std::atomic<double> ProbeSeconds{0};
    auto Client = [&](unsigned C) {
      RemoteClient Conn;
      std::string Err;
      if (!Conn.connect(D->endpoint(), Err)) {
        Fail("connect: " + Err);
        return;
      }
      for (unsigned N = 0; Opt.Tiny ? N < TinyRequests : !Stop.load(); ++N) {
        Program P = Stream.next(C);
        const uint64_t Id = RequestBase + N * Clients + C + 1;
        std::vector<DriverOutcome> Outs;
        std::vector<double> Micros;
        {
          ScopedSpan Span(T, "bench.request", Id);
          double S = nowSeconds();
          bool Ok = Conn.runBatch(Req, {{P.Source, P.Name}}, Outs, Micros,
                                  Err);
          double End = nowSeconds();
          if (!Ok) {
            Graded Failed; // no verdict
            std::lock_guard<std::mutex> Lock(Mu);
            E.add(Failed);
            R.Notes.push_back("request failed: " + Err);
            if (!Conn.connected() && !Conn.connect(D->endpoint(), Err))
              return;
            continue;
          }
          {
            std::lock_guard<std::mutex> Lock(Mu);
            E.Latencies.push_back({End, (End - S) * 1e3});
          }
          if (L) {
            int64_t Trip = T->add("serve.client.roundtrip", S, End, Id,
                                  Span.id());
            L->jobs(*T, {{&Outs[0], Micros[0], End}}, Id, Trip);
            L->serverOverhead((End - S) * 1e3 - Micros[0] / 1e3);
          }
          Record(P, Outs[0]);
        }
        Tus.fetch_add(1);
        if (L) {
          double S = nowSeconds();
          if (!L->probe(*T, Eng.headers(), Req, P, Outs[0], Micros[0], true,
                        Id))
            Fail("finished frame does not decode: " + P.Name);
          double Spent = nowSeconds() - S;
          double Cur = ProbeSeconds.load();
          while (!ProbeSeconds.compare_exchange_weak(Cur, Cur + Spent))
            ;
        }
      }
    };
    const double Start = nowSeconds();
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back(Client, C);
    if (!Opt.Tiny) {
      while (nowSeconds() - Start < Seconds) {
        usleep(20000);
        if (Cut && Cut->open() >= 1.0)
          Cut->cut(Tus.load());
      }
      Stop = true;
    }
    for (std::thread &Th : Threads)
      Th.join();
    if (Cut && (E.Slices.empty() || Cut->open() >= 0.5))
      Cut->cut(Tus.load());
    W.Seconds = nowSeconds() - Start;
    // Probes run on both client threads at once; their share of the
    // window is the mean per client.
    W.ProbeSeconds = ProbeSeconds.load() / Clients;
    W.Tus = Tus.load();
    RequestBase += 1u << 24;
    return W;
  };

  Tracer T;
  LayerStats L;
  const double OverheadPct = measure(Opt, Eng, E, T, L, Run, [&] {
    return D->daemon().counters().Rejected;
  });
  D.reset();

  std::string Why;
  if (!referenceCheck(Ref, Req, Why))
    Fail(Why);
  if (Opt.Trace) {
    L.emit(R, T, OverheadPct);
    R.RecordJson = T.toJson();
  }
  E.emit(R, Opt.Trace);
  return R;
}

} // namespace kccbench
