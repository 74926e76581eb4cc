#ifndef TOPODB_SERVER_FRAME_SERVER_H_
#define TOPODB_SERVER_FRAME_SERVER_H_

// The one front door of every TopoDB daemon: a loopback TCP listener that
// speaks the framing of src/server/wire.h and hands each well-formed
// request frame to its owner's callback. TopoDbServer (admission + worker
// pool) and TopoDbRouter (routing) are both owners; neither touches a
// socket itself (DESIGN.md §5d).
//
// What the loop owns:
//   - bind/listen on 127.0.0.1 and one acceptor thread. The acceptor ends
//     only at StopAccepting(): any other accept() failure (EMFILE, ENFILE,
//     ECONNABORTED, ...) is counted in <prefix>.accept_errors and retried
//     after a short pause, so fd exhaustion stalls accepting instead of
//     ending it. A connection whose reader thread cannot be started is
//     dropped and counted there too;
//   - one reader thread per session, reading frames under one
//     malformed-frame policy: a header that does not decode gets an error
//     frame (request id 0) and a half-close; a frame truncated by EOF or a
//     recv() failure is counted and half-closed; an unknown opcode is
//     answered Unsupported and the session kept;
//   - response writes, serialized per session (the owner may answer from
//     any thread, in any order — the request id does the matching);
//   - the counters <prefix>.{connections, accept_errors, bytes_read,
//     bytes_written, responses, protocol_errors, truncated_frames,
//     write_errors} and the <prefix>.write_us histogram.
//
// Session lifetime: a session is shared by its reader thread and by every
// response its owner still has to write. When the peer disconnects the
// reader thread exits and drops its share; the socket closes when the last
// share goes, so a late response can never land on a reused fd. A closed
// connection keeps no fd, and its thread is joined by the next reader to
// exit (or at shutdown), so it keeps no thread either.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "src/base/status.h"
#include "src/obs/deadline.h"
#include "src/obs/metrics.h"

namespace topodb {

// --- Stream helpers -------------------------------------------------------
// The only exact-length read and send-all loops in the code base: the
// front door and the client both frame through them.

// Outcome of one exact-length read. A clean close is an EOF before the
// first byte (the peer finished between frames); a truncated read is an
// EOF after some of the bytes, and carries how many arrived.
struct ReadOutcome {
  enum Kind { kOk, kCleanClose, kTruncated, kError } kind = kOk;
  size_t bytes_read = 0;
};

// Reads exactly n bytes into buf, or reports why it could not (errno is
// left set for kError).
ReadOutcome ReadFull(int fd, char* buf, size_t n);

// Sends every byte (retrying EINTR, never raising SIGPIPE). False on
// failure, with errno left set.
bool SendFull(int fd, std::string_view bytes);

// --- The loop ---------------------------------------------------------------

// One accepted connection; opaque to owners, who only hand it back to
// Respond().
class FrameSession;

// A request frame whose header decoded and whose opcode is known.
struct FrameRequest {
  uint16_t opcode = 0;
  uint64_t request_id = 0;
  // The header's budget, materialized when the frame was read.
  Deadline deadline;
  std::string payload;
};

class FrameServer {
 public:
  // Runs on the session's reader thread, once per request frame, in
  // arrival order. It may answer inline or keep the session and answer
  // later from another thread.
  using Handler = std::function<void(const std::shared_ptr<FrameSession>&,
                                     FrameRequest)>;

  // `metrics` must outlive the server; every metric is named
  // "<metric_prefix>.<name>".
  FrameServer(std::string metric_prefix, MetricsRegistry* metrics,
              Handler handler);
  ~FrameServer();  // StopAccepting() + CloseSessions().

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  // Binds 127.0.0.1:port (0 = ephemeral), listens, starts the acceptor.
  // Internal on socket errors.
  Status Start(uint16_t port);
  uint16_t port() const { return port_; }

  // Shutdown phase 1, idempotent: close the listener and join the
  // acceptor. Existing sessions keep reading and writing.
  void StopAccepting();
  // Shutdown phase 2, after StopAccepting(), idempotent: half-close every
  // session's read side and join every reader thread. Responses still
  // owed keep their sessions' write halves open until written.
  void CloseSessions();

  // Writes one response frame (opcode | kWireResponseBit). Safe from any
  // thread; a session whose peer is gone drops the write and counts it.
  void Respond(FrameSession& session, uint16_t opcode, uint64_t request_id,
               const Status& status, std::string_view body);

 private:
  void AcceptLoop();
  void ReadLoop(const std::shared_ptr<FrameSession>& session);
  // Called by a reader thread on its way out (see readers_).
  void Retire(FrameSession* session);
  // The stream cannot be resynced: count it, send `report` if it is an
  // error, and give the peer EOF.
  void Abandon(FrameSession& session, bool truncated,
               const Status& report = Status::OK());

  const Handler handler_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> accepting_{false};

  Counter* const c_connections_;
  Counter* const c_accept_errors_;
  Counter* const c_bytes_read_;
  Counter* const c_bytes_written_;
  Counter* const c_responses_;
  Counter* const c_protocol_errors_;
  Counter* const c_truncated_frames_;
  Counter* const c_write_errors_;
  Histogram* const h_write_us_;

  std::mutex sessions_mu_;
  std::condition_variable sessions_cv_;  // A reader retired.
  // The live sessions and their reader threads. A retiring reader moves
  // its thread to finished_ and joins the one it displaces, so at most one
  // finished thread ever waits to be joined; CloseSessions() joins the
  // last.
  std::unordered_map<FrameSession*, std::thread> readers_;
  std::thread finished_;
  std::thread acceptor_;
};

}  // namespace topodb

#endif  // TOPODB_SERVER_FRAME_SERVER_H_
