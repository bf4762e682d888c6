//===- serve/Client.h - Remote client for kcc-serve -------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client half of the analysis service: endpoint parsing for
/// `kcc --remote=HOST:PORT|unix:PATH` and a blocking RemoteClient that
/// speaks the cundef-kcc-v1 protocol (serve/Protocol.h) to a running
/// kcc-serve daemon.
///
/// The client reconstructs full DriverOutcome values from the wire, so
/// kcc's remote mode feeds them through the exact same rendering code
/// as a local run — byte-identical stdout and the unchanged
/// 139/1/exit-code contract are a consequence of sharing the code, not
/// a separate implementation to keep in sync.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_SERVE_CLIENT_H
#define CUNDEF_SERVE_CLIENT_H

#include "serve/Protocol.h"

#include <string>
#include <vector>

namespace cundef {

/// A parsed --remote target: either a Unix-domain socket path or a
/// TCP host:port.
struct RemoteEndpoint {
  bool IsUnix = false;
  std::string UnixPath; ///< when IsUnix
  std::string Host;     ///< when !IsUnix (hostname or IPv4 literal)
  unsigned Port = 0;    ///< when !IsUnix (1..65535)
};

/// Strict parsing of "HOST:PORT" and "unix:PATH". Empty hosts/paths,
/// missing or non-numeric ports, and ports outside 1..65535 are
/// diagnosed, never coerced (the kcc exit-2 contract).
bool parseRemoteEndpoint(const std::string &Spec, RemoteEndpoint &Out,
                         std::string &Err);

/// One decoded server frame (the tests drive the protocol at this
/// granularity; runBatch() is the convenience on top).
struct RemoteMessage {
  std::string Type; ///< "finished", "error", "ub_found",
                    ///< "frontier_truncated", "stats_result"
  uint64_t Id = 0;  ///< client job id the frame answers

  // "error"
  std::string Code; ///< serveerr::* string
  std::string Message;

  // "finished"
  DriverOutcome Outcome;
  double WallMicros = 0.0;

  // "ub_found" / "frontier_truncated"
  std::vector<UbReport> Reports;
  unsigned DroppedSubtrees = 0;

  // "stats_result"
  SchedulerStats Pool;
  EngineMemoryStats Memory;
  TranslationCacheStats Translation;
  ResultCacheStats ResultC;
  HeaderPrefixStats HeaderPrefix;
};

/// A blocking connection to one kcc-serve daemon. Not thread-safe; one
/// client per thread.
class RemoteClient {
public:
  RemoteClient() = default;
  ~RemoteClient();

  RemoteClient(const RemoteClient &) = delete;
  RemoteClient &operator=(const RemoteClient &) = delete;

  /// Connects and consumes the server hello (verifying the protocol
  /// name). Returns false with a diagnostic on failure.
  bool connect(const RemoteEndpoint &Ep, std::string &Err);

  bool connected() const { return Fd >= 0; }
  /// The daemon's search-pool width, from the hello frame.
  unsigned serverWorkers() const { return Workers; }

  /// Frame-level access: send a pre-encoded frame / decode the next
  /// server frame. receive() fails on timeout (TimeoutMs >= 0), EOF,
  /// or malformed frames.
  bool send(const std::string &FramePayload, std::string &Err);
  bool receive(RemoteMessage &Msg, std::string &Err, int TimeoutMs = -1);

  /// Submits every input under \p Req and blocks until each has a
  /// final result, tolerating out-of-order completion. On success,
  /// \p Outcomes and \p Micros are parallel to \p Inputs. On failure
  /// (transport error or a structured rejection), returns false with a
  /// diagnostic; errorCode() then carries the serveerr::* string when
  /// the daemon sent one ("" for transport failures).
  bool runBatch(const AnalysisRequest &Req,
                const std::vector<BatchInput> &Inputs,
                std::vector<DriverOutcome> &Outcomes,
                std::vector<double> &Micros, std::string &Err);

  /// Issues a `stats` request and blocks for the result: the daemon
  /// engine's monotonic lifetime counters (docs/SERVE.md discusses how
  /// remote kcc reports them).
  bool queryStats(SchedulerStats &Pool, EngineMemoryStats &Memory,
                  TranslationCacheStats &Translation,
                  ResultCacheStats &ResultC, HeaderPrefixStats &HeaderPrefix,
                  std::string &Err);

  /// The serveerr::* code of the last structured rejection runBatch()
  /// or queryStats() saw (empty when the failure was transport-level).
  const std::string &errorCode() const { return LastErrorCode; }

  void close();

private:
  int Fd = -1;
  unsigned Workers = 0;
  std::string LastErrorCode;
  /// Persistent stream buffer: one recv may deliver several frames,
  /// and bytes past the first must survive into the next receive().
  std::string ReadBuf;
};

} // namespace cundef

#endif // CUNDEF_SERVE_CLIENT_H
