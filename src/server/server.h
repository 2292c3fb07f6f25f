#ifndef PIPES_SERVER_SERVER_H_
#define PIPES_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/engine/engine.h"
#include "src/server/protocol.h"

/// \file
/// `pipes::server::PipesServer` — the multi-tenant TCP front of one
/// `engine::Engine` (docs/server.md). Each connection names its tenant with
/// a HELLO frame and then registers/cancels/fetches continuous queries;
/// every tenant's queries multiplex onto the engine's one shared graph, so
/// overlapping queries from different connections share subplans. A
/// background pump thread drives the executor and parks while the engine
/// has no work; admission control and per-tenant quotas are the engine's.
/// Dropping a connection cancels everything its tenant registered.

namespace pipes::server {

struct ServerOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (see `port()`).
  std::uint16_t port = 0;
  /// Executor steps per pump-thread iteration.
  std::uint64_t pump_steps = 4096;
  /// Hard cap on rows returned by one FETCH, whatever the client asks.
  std::uint32_t max_fetch_results = 65536;
};

/// Accepts connections on a listener thread, serves each on its own
/// thread, and pumps the engine on another, which parks in
/// `Engine::WaitForWork` whenever a pump finds the graph idle and wakes on
/// the next write or graft. A closed connection's thread is joined at the
/// next accept. Start/Stop are not re-entrant; Stop is idempotent and also
/// runs from the destructor.
class PipesServer {
 public:
  explicit PipesServer(engine::Engine& engine, ServerOptions options = {});
  ~PipesServer();

  PipesServer(const PipesServer&) = delete;
  PipesServer& operator=(const PipesServer&) = delete;

  /// Binds, listens, and spawns the accept + pump threads. Fails with
  /// FailedPrecondition when already running, Internal when the OS refuses
  /// the socket (sandboxes without network access land here).
  Status Start();

  /// The bound port (valid after a successful Start).
  int port() const { return port_; }

  bool running() const { return running_.load(); }

  /// Connections being served: accepted and not yet closed.
  std::size_t connections() const;

  /// Blocks until the server stops (Stop() from another thread, or a
  /// client SHUTDOWN frame).
  void Wait();

  /// Stops listening, shuts every connection down, joins all threads.
  void Stop();

 private:
  void AcceptLoop(int listen_fd);
  void PumpLoop(const std::stop_token& stop);
  void ServeConnection(int fd);
  /// Joins the threads of connections that have closed.
  void JoinFinishedConnections();

  /// Per-connection request dispatch state.
  struct Connection;
  Message Handle(Connection& conn, const Message& request);

  engine::Engine& engine_;
  ServerOptions options_;

  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  int port_ = 0;

  std::thread accept_thread_;
  std::jthread pump_thread_;

  /// Serializes concurrent Stop() calls (a SHUTDOWN frame's connection
  /// thread can race the owner's Stop); taken before mu_.
  std::mutex stop_mu_;
  mutable std::mutex mu_;
  std::condition_variable stopped_cv_;
  /// Connection threads not joined yet, by id.
  std::map<std::thread::id, std::thread> conn_threads_;
  /// Ids of the threads in `conn_threads_` whose connection has closed.
  std::vector<std::thread::id> finished_;
  /// Sockets of the open connections. A connection drops its own before it
  /// closes it, so Stop() never shuts down a number the process reused.
  std::vector<int> conn_fds_;
};

}  // namespace pipes::server

#endif  // PIPES_SERVER_SERVER_H_
