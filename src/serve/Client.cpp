//===- serve/Client.cpp - Remote client for kcc-serve ---------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"

#include "support/Strings.h"

#include <cerrno>
#include <cstring>

#include <netdb.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace cundef;

bool cundef::parseRemoteEndpoint(const std::string &Spec, RemoteEndpoint &Out,
                                 std::string &Err) {
  Out = RemoteEndpoint();
  if (startsWith(Spec.c_str(), "unix:")) {
    Out.IsUnix = true;
    Out.UnixPath = Spec.substr(5);
    if (Out.UnixPath.empty()) {
      Err = "--remote=unix: requires a socket path";
      return false;
    }
    return true;
  }
  size_t Colon = Spec.rfind(':');
  if (Colon == std::string::npos) {
    Err = strFormat("invalid --remote target '%s' (expected HOST:PORT or "
                    "unix:PATH)",
                    Spec.c_str());
    return false;
  }
  Out.Host = Spec.substr(0, Colon);
  if (Out.Host.empty()) {
    Err = strFormat("invalid --remote target '%s' (empty host)", Spec.c_str());
    return false;
  }
  std::string PortText = Spec.substr(Colon + 1);
  unsigned Port = 0;
  if (!parseUnsigned(PortText.c_str(), Port) || Port < 1 || Port > 65535) {
    Err = strFormat("invalid --remote port '%s' (expected 1..65535)",
                    PortText.c_str());
    return false;
  }
  Out.Port = Port;
  return true;
}

RemoteClient::~RemoteClient() { close(); }

void RemoteClient::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  ReadBuf.clear();
}

bool RemoteClient::connect(const RemoteEndpoint &Ep, std::string &Err) {
  close();
  if (Ep.IsUnix) {
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    if (Ep.UnixPath.size() >= sizeof(Addr.sun_path)) {
      Err = strFormat("socket path too long (%zu bytes, max %zu)",
                      Ep.UnixPath.size(), sizeof(Addr.sun_path) - 1);
      return false;
    }
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0) {
      Err = strFormat("socket(AF_UNIX) failed: %s", std::strerror(errno));
      return false;
    }
    Addr.sun_family = AF_UNIX;
    std::strcpy(Addr.sun_path, Ep.UnixPath.c_str());
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
      Err = strFormat("cannot connect to unix:%s: %s", Ep.UnixPath.c_str(),
                      std::strerror(errno));
      close();
      return false;
    }
  } else {
    addrinfo Hints;
    std::memset(&Hints, 0, sizeof(Hints));
    Hints.ai_family = AF_INET;
    Hints.ai_socktype = SOCK_STREAM;
    addrinfo *Res = nullptr;
    std::string PortText = strFormat("%u", Ep.Port);
    int GA = ::getaddrinfo(Ep.Host.c_str(), PortText.c_str(), &Hints, &Res);
    if (GA != 0 || !Res) {
      Err = strFormat("cannot resolve %s: %s", Ep.Host.c_str(),
                      ::gai_strerror(GA));
      return false;
    }
    int LastErrno = 0;
    for (addrinfo *AI = Res; AI; AI = AI->ai_next) {
      Fd = ::socket(AI->ai_family, AI->ai_socktype, AI->ai_protocol);
      if (Fd < 0) {
        LastErrno = errno;
        continue;
      }
      if (::connect(Fd, AI->ai_addr, AI->ai_addrlen) == 0)
        break;
      LastErrno = errno;
      close();
    }
    ::freeaddrinfo(Res);
    if (Fd < 0) {
      Err = strFormat("cannot connect to %s:%u: %s", Ep.Host.c_str(), Ep.Port,
                      std::strerror(LastErrno));
      return false;
    }
  }
  // The server greets first; verify we are talking to a kcc-serve of
  // the same schema lineage before sending anything.
  std::string Payload;
  if (!readFrameBlocking(Fd, ReadBuf, Payload, Err, /*TimeoutMs=*/30000)) {
    Err = "no server hello: " + Err;
    close();
    return false;
  }
  JsonValue Hello;
  if (!JsonValue::parse(Payload, Hello, Err) || !Hello.isObject() ||
      Hello.getString("type") != "hello") {
    Err = "malformed server hello";
    close();
    return false;
  }
  if (Hello.getString("schema") != ServeProtocolName) {
    Err = strFormat("protocol mismatch: server speaks '%s', client '%s'",
                    Hello.getString("schema").c_str(), ServeProtocolName);
    close();
    return false;
  }
  Workers = static_cast<unsigned>(Hello.getU64("workers", 0));
  return true;
}

bool RemoteClient::send(const std::string &FramePayload, std::string &Err) {
  if (Fd < 0) {
    Err = "not connected";
    return false;
  }
  if (!writeFrameBlocking(Fd, FramePayload)) {
    Err = strFormat("write to daemon failed: %s", std::strerror(errno));
    return false;
  }
  return true;
}

bool RemoteClient::receive(RemoteMessage &Msg, std::string &Err,
                           int TimeoutMs) {
  Msg = RemoteMessage();
  if (Fd < 0) {
    Err = "not connected";
    return false;
  }
  std::string Payload;
  if (!readFrameBlocking(Fd, ReadBuf, Payload, Err, TimeoutMs))
    return false;
  JsonValue V;
  if (!JsonValue::parse(Payload, V, Err) || !V.isObject()) {
    if (Err.empty())
      Err = "frame is not a JSON object";
    return false;
  }
  Msg.Type = V.getString("type");
  Msg.Id = V.getU64("id", 0);
  if (Msg.Type == "error") {
    Msg.Code = V.getString("code");
    Msg.Message = V.getString("message");
    return true;
  }
  if (Msg.Type == "finished") {
    Msg.WallMicros = V.getDouble("wall_micros", 0.0);
    const JsonValue *O = V.get("outcome");
    if (!O) {
      Err = "finished frame without an outcome";
      return false;
    }
    return parseOutcome(*O, Msg.Outcome, Err);
  }
  if (Msg.Type == "ub_found") {
    const JsonValue *F = V.get("findings");
    if (!F) {
      Err = "ub_found frame without findings";
      return false;
    }
    return parseFindings(*F, Msg.Reports, Err);
  }
  if (Msg.Type == "frontier_truncated") {
    Msg.DroppedSubtrees =
        static_cast<unsigned>(V.getU64("dropped_subtrees", 0));
    return true;
  }
  if (Msg.Type == "stats_result") {
    const JsonValue *S = V.get("stats");
    if (!S) {
      Err = "stats_result frame without stats";
      return false;
    }
    return parseStats(*S, Msg.Pool, Msg.Memory, Msg.Translation, Msg.ResultC,
                      Msg.HeaderPrefix, Err);
  }
  // Unknown frame types pass through undecoded: additions to the
  // protocol must not break older clients (the schema lineage rule).
  return true;
}

bool RemoteClient::runBatch(const AnalysisRequest &Req,
                            const std::vector<BatchInput> &Inputs,
                            std::vector<DriverOutcome> &Outcomes,
                            std::vector<double> &Micros, std::string &Err) {
  LastErrorCode.clear();
  Outcomes.assign(Inputs.size(), DriverOutcome());
  Micros.assign(Inputs.size(), 0.0);
  for (size_t I = 0; I < Inputs.size(); ++I) {
    // Client job ids are 1-based input indices; the daemon echoes them
    // back, so completion order is free to differ from submission
    // order (concurrent clients share the pool).
    if (!send(submitFrame(I + 1, Inputs[I].Name, Inputs[I].Source, Req), Err))
      return false;
  }
  size_t Remaining = Inputs.size();
  std::vector<bool> Done(Inputs.size(), false);
  while (Remaining) {
    RemoteMessage Msg;
    if (!receive(Msg, Err))
      return false;
    if (Msg.Type == "error") {
      LastErrorCode = Msg.Code;
      Err = strFormat("daemon rejected job %llu [%s]: %s",
                      static_cast<unsigned long long>(Msg.Id),
                      Msg.Code.c_str(), Msg.Message.c_str());
      return false;
    }
    if (Msg.Type != "finished")
      continue; // streamed events; the final outcome carries the data
    if (Msg.Id < 1 || Msg.Id > Inputs.size() || Done[Msg.Id - 1]) {
      Err = strFormat("daemon answered unknown job id %llu",
                      static_cast<unsigned long long>(Msg.Id));
      return false;
    }
    Done[Msg.Id - 1] = true;
    Outcomes[Msg.Id - 1] = std::move(Msg.Outcome);
    Micros[Msg.Id - 1] = Msg.WallMicros;
    --Remaining;
  }
  return true;
}

bool RemoteClient::queryStats(SchedulerStats &Pool, EngineMemoryStats &Memory,
                              TranslationCacheStats &Translation,
                              ResultCacheStats &ResultC,
                              HeaderPrefixStats &HeaderPrefix,
                              std::string &Err) {
  LastErrorCode.clear();
  if (!send(statsFrame(0), Err))
    return false;
  while (true) {
    RemoteMessage Msg;
    if (!receive(Msg, Err))
      return false;
    if (Msg.Type == "error") {
      LastErrorCode = Msg.Code;
      Err = strFormat("stats request rejected [%s]: %s", Msg.Code.c_str(),
                      Msg.Message.c_str());
      return false;
    }
    if (Msg.Type != "stats_result")
      continue; // a stale event of an abandoned job; skip it
    Pool = Msg.Pool;
    Memory = Msg.Memory;
    Translation = Msg.Translation;
    ResultC = Msg.ResultC;
    HeaderPrefix = Msg.HeaderPrefix;
    return true;
  }
}
