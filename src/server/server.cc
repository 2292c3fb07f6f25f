#include "src/server/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <utility>

#include "src/metadata/snapshot.h"

namespace pipes::server {

namespace {

/// Writes all of `bytes` to `fd`; false on a broken connection.
bool SendAll(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// The reply to a CANCEL or FETCH naming a query this connection did not
/// register.
Message NotRegisteredHere(std::uint64_t id) {
  return ErrorMessage(Status::NotFound("query " + std::to_string(id) +
                                       " is not registered on this "
                                       "connection"));
}

}  // namespace

/// Everything one connection accumulates: its tenant (after HELLO) and the
/// handles of the queries it registered. Rows wait in each query's result
/// queue until a FETCH takes them.
struct PipesServer::Connection {
  bool has_tenant = false;
  std::string tenant;
  std::map<std::uint64_t, engine::QueryHandle> handles;
  bool shutdown_requested = false;
};

PipesServer::PipesServer(engine::Engine& engine, ServerOptions options)
    : engine_(engine), options_(options) {}

PipesServer::~PipesServer() { Stop(); }

Status PipesServer::Start() {
  if (running_.load()) {
    return Status::FailedPrecondition("server is already running");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket() failed: ") +
                            std::strerror(errno));
  }
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::Internal("bind() failed: " + error);
  }
  if (::listen(fd, 64) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::Internal("listen() failed: " + error);
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::Internal("getsockname() failed: " + error);
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  running_.store(true);
  // The loop gets the descriptor by value: Stop() resets listen_fd_ while
  // the loop may still be running.
  accept_thread_ = std::thread([this, fd] { AcceptLoop(fd); });
  pump_thread_ =
      std::jthread([this](const std::stop_token& stop) { PumpLoop(stop); });
  return Status::OK();
}

std::size_t PipesServer::connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return conn_fds_.size();
}

void PipesServer::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  stopped_cv_.wait(lock, [this] { return !running_.load(); });
}

void PipesServer::Stop() {
  // One teardown at a time: a racing second caller blocks here and finds
  // nothing left to join.
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  const bool was_running = running_.exchange(false);
  if (was_running && listen_fd_ >= 0) {
    // Unblocks accept(); the loop then exits on running_ == false.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    stopped_cv_.notify_all();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (pump_thread_.joinable()) {
    // Wakes the pump if it is parked in Engine::WaitForWork.
    pump_thread_.request_stop();
    pump_thread_.join();
  }
  std::map<std::thread::id, std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.swap(conn_threads_);
  }
  for (auto& [id, t] : threads) {
    if (id == std::this_thread::get_id()) {
      // A SHUTDOWN frame stops the server from inside its own connection
      // thread; that thread cannot join itself.
      t.detach();
      continue;
    }
    t.join();
  }
  // Only now is every id in finished_ joined; a later Start must not find
  // one of them reused by a live thread.
  std::lock_guard<std::mutex> lock(mu_);
  finished_.clear();
}

void PipesServer::AcceptLoop(int listen_fd) {
  while (running_.load()) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Listener closed (Stop) or fatal error.
    }
    JoinFinishedConnections();
    std::lock_guard<std::mutex> lock(mu_);
    // Checked under mu_: Stop() clears running_ before it shuts down the
    // sockets in conn_fds_ under mu_, so this one is either among them or
    // never served.
    if (!running_.load()) {
      ::close(fd);
      break;
    }
    conn_fds_.push_back(fd);
    std::thread thread([this, fd] { ServeConnection(fd); });
    const std::thread::id id = thread.get_id();
    conn_threads_.emplace(id, std::move(thread));
  }
}

void PipesServer::JoinFinishedConnections() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::thread::id id : finished_) {
      if (auto node = conn_threads_.extract(id)) {
        finished.push_back(std::move(node.mapped()));
      }
    }
    finished_.clear();
  }
  for (std::thread& t : finished) t.join();
}

void PipesServer::PumpLoop(const std::stop_token& stop) {
  while (!stop.stop_requested()) {
    // A pump that stops short of its step budget found the graph idle.
    if (engine_.Pump(options_.pump_steps) < options_.pump_steps) {
      engine_.WaitForWork(stop);
    }
  }
}

void PipesServer::ServeConnection(int fd) {
  Connection conn;
  FrameDecoder decoder;
  char buffer[4096];
  bool alive = true;
  while (alive && running_.load()) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    decoder.Feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    while (alive) {
      auto next = decoder.Next();
      if (!next.ok()) {
        SendAll(fd, EncodeFrame(ErrorMessage(next.status())));
        alive = false;
        break;
      }
      if (!next->has_value()) break;
      const Message reply = Handle(conn, **next);
      if (!SendAll(fd, EncodeFrame(reply))) {
        alive = false;
        break;
      }
      if (conn.shutdown_requested) {
        alive = false;
        break;
      }
    }
  }
  // Disconnect semantics: everything this tenant registered dies with the
  // connection.
  if (conn.has_tenant) engine_.CancelAllForTenant(conn.tenant);
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::erase(conn_fds_, fd);
    // A connection that stops the server is left to that Stop(): were the
    // accept loop to join it, each would wait for the other.
    if (!conn.shutdown_requested) {
      finished_.push_back(std::this_thread::get_id());
    }
  }
  ::close(fd);
  if (conn.shutdown_requested) Stop();
}

Message PipesServer::Handle(Connection& conn, const Message& request) {
  if (!conn.has_tenant && request.type != MsgType::kHello &&
      request.type != MsgType::kPing) {
    return ErrorMessage(
        Status::FailedPrecondition("HELLO must precede other requests"));
  }
  switch (request.type) {
    case MsgType::kHello: {
      BodyReader reader(request.body);
      auto tenant = reader.String();
      if (!tenant.ok()) return ErrorMessage(tenant.status());
      if (const Status s = reader.Finish(); !s.ok()) return ErrorMessage(s);
      if (tenant->empty()) {
        return ErrorMessage(Status::InvalidArgument("empty tenant name"));
      }
      conn.has_tenant = true;
      conn.tenant = *std::move(tenant);
      return {MsgType::kOk, {}};
    }
    case MsgType::kRegister: {
      BodyReader reader(request.body);
      auto cql = reader.String();
      if (!cql.ok()) return ErrorMessage(cql.status());
      if (const Status s = reader.Finish(); !s.ok()) return ErrorMessage(s);
      engine::RegisterOptions options;
      options.tenant = conn.tenant;
      auto handle = engine_.Register(*cql, options);
      if (!handle.ok()) return ErrorMessage(handle.status());
      conn.handles[handle->id()] = *handle;
      BodyWriter writer;
      writer.PutU64(handle->id()).PutString(handle->schema().ToString());
      return {MsgType::kRegistered, writer.Take()};
    }
    case MsgType::kCancel: {
      BodyReader reader(request.body);
      auto id = reader.U64();
      if (!id.ok()) return ErrorMessage(id.status());
      if (const Status s = reader.Finish(); !s.ok()) return ErrorMessage(s);
      auto it = conn.handles.find(*id);
      if (it == conn.handles.end()) return NotRegisteredHere(*id);
      const Status status = it->second.Cancel();
      if (!status.ok()) return ErrorMessage(status);
      conn.handles.erase(it);
      return {MsgType::kOk, {}};
    }
    case MsgType::kFetch: {
      BodyReader reader(request.body);
      auto id = reader.U64();
      if (!id.ok()) return ErrorMessage(id.status());
      auto max = reader.U32();
      if (!max.ok()) return ErrorMessage(max.status());
      if (const Status s = reader.Finish(); !s.ok()) return ErrorMessage(s);
      auto it = conn.handles.find(*id);
      if (it == conn.handles.end()) return NotRegisteredHere(*id);
      const std::vector<engine::QueryHandle::Element> rows = it->second.Poll(
          std::min<std::uint32_t>(*max, options_.max_fetch_results));
      BodyWriter writer;
      writer.PutU32(static_cast<std::uint32_t>(rows.size()));
      for (const engine::QueryHandle::Element& row : rows) {
        writer.PutTimestamp(row.start())
            .PutTimestamp(row.end())
            .PutString(row.payload.ToString());
      }
      return {MsgType::kResults, writer.Take()};
    }
    case MsgType::kSnapshot: {
      BodyReader reader(request.body);
      auto mode = reader.U32();
      if (!mode.ok()) return ErrorMessage(mode.status());
      if (const Status s = reader.Finish(); !s.ok()) return ErrorMessage(s);
      std::string json;
      if (*mode == 1) {
        json = metadata::ToJson(engine_.Snapshot());
      } else {
        metadata::SnapshotOptions options;
        options.scope = conn.tenant;
        json = metadata::ToJson(engine_.TenantSnapshot(conn.tenant),
                                options);
      }
      return {MsgType::kSnapshotReply, BodyWriter().PutString(json).Take()};
    }
    case MsgType::kPing:
      return {MsgType::kPong, {}};
    case MsgType::kShutdown:
      conn.shutdown_requested = true;
      return {MsgType::kOk, {}};
    default:
      return ErrorMessage(Status::InvalidArgument(
          "unknown message type " +
          std::to_string(static_cast<int>(request.type))));
  }
}

}  // namespace pipes::server
