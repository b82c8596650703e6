#include "workloads.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "net/client.h"
#include "net/socket.h"
#include "net/wire.h"

namespace perfbench {

namespace net = emblookup::net;
namespace serve = emblookup::serve;
namespace update = emblookup::update;
using emblookup::Result;
using emblookup::Status;
using emblookup::StatusCode;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

bool IsShed(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kDeadlineExceeded;
}

class RemoteTransport : public Transport {
 public:
  Status Connect(int port) { return client_.Connect("127.0.0.1", port); }

  Status Send(uint64_t request_id, const std::string& query) override {
    return client_.SendLookup(request_id, query, kTopK);
  }

  Result<Reply> Read() override {
    EL_ASSIGN_OR_RETURN(net::Frame frame, client_.ReadReply());
    Reply reply;
    reply.request_id = frame.request_id;
    if (frame.type == net::FrameType::kLookupResponse) {
      reply.ok = true;
      reply.ids = std::move(frame.ids);
    } else if (frame.type == net::FrameType::kError) {
      reply.shed = IsShed(frame.error_code);
    }
    return reply;
  }

  void Abort() override { client_.Shutdown(); }

 private:
  net::RemoteClient client_;
};

class InProcessTransport : public Transport {
 public:
  explicit InProcessTransport(serve::LookupServer* server)
      : server_(server), inbox_(std::make_shared<Inbox>()) {}

  Status Send(uint64_t request_id, const std::string& query) override {
    server_->SubmitAsync(
        query, kTopK, std::chrono::microseconds::zero(),
        [inbox = inbox_, request_id](Result<serve::LookupResponse> result) {
          Reply reply;
          reply.request_id = request_id;
          if (result.ok()) {
            reply.ok = true;
            reply.ids = std::move(result.value().ids);
          } else {
            reply.shed = IsShed(result.status().code());
          }
          {
            std::lock_guard<std::mutex> lock(inbox->mu);
            inbox->replies.push_back(std::move(reply));
          }
          inbox->cv.notify_one();
        });
    return Status::OK();
  }

  Result<Reply> Read() override {
    std::unique_lock<std::mutex> lock(inbox_->mu);
    inbox_->cv.wait(lock, [&] {
      return inbox_->aborted || !inbox_->replies.empty();
    });
    if (inbox_->replies.empty()) return Status::Unavailable("aborted");
    Reply reply = std::move(inbox_->replies.front());
    inbox_->replies.pop_front();
    return reply;
  }

  void Abort() override {
    {
      std::lock_guard<std::mutex> lock(inbox_->mu);
      inbox_->aborted = true;
    }
    inbox_->cv.notify_all();
  }

 private:
  struct Inbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Reply> replies;
    bool aborted = false;
  };
  serve::LookupServer* server_;
  std::shared_ptr<Inbox> inbox_;  ///< Shared with in-flight callbacks.
};

/// Applies one scripted mutation through the server's durable endpoints
/// and describes what was acknowledged.
Status ApplyMutation(serve::LookupServer* server, const Op& op,
                     update::Mutation* acked) {
  acked->label.clear();
  acked->qid.clear();
  acked->aliases.clear();
  switch (op.kind) {
    case OpKind::kAdd: {
      EL_ASSIGN_OR_RETURN(acked->entity,
                          server->AddEntity(op.label, op.qid, op.aliases));
      acked->kind = update::MutationKind::kAddEntity;
      acked->label = op.label;
      acked->qid = op.qid;
      acked->aliases = op.aliases;
      return Status::OK();
    }
    case OpKind::kUpdateAliases:
      EL_RETURN_NOT_OK(server->UpdateAliases(op.target, op.aliases));
      acked->kind = update::MutationKind::kUpdateAliases;
      acked->entity = op.target;
      acked->aliases = op.aliases;
      return Status::OK();
    case OpKind::kRemove:
      EL_RETURN_NOT_OK(server->RemoveEntity(op.target));
      acked->kind = update::MutationKind::kRemoveEntity;
      acked->entity = op.target;
      return Status::OK();
    case OpKind::kLookup:
      break;
  }
  return Status::InvalidArgument("not a mutation");
}

/// One connection's shared state between its sender and reader.
struct Conn {
  Conn(const std::vector<Op>* ops_in, Transport* transport_in)
      : ops(ops_in),
        transport(transport_in),
        sent_ns(ops_in->size()),
        send_end_ns(ops_in->size()) {
    result.ops.resize(ops->size());
    for (const Op& op : *ops) lookups += op.kind == OpKind::kLookup ? 1 : 0;
  }

  const std::vector<Op>* ops;
  Transport* transport;
  int64_t lookups = 0;
  std::vector<std::atomic<int64_t>> sent_ns;
  std::vector<std::atomic<int64_t>> send_end_ns;
  ConnResult result;  ///< Lookup slots: reader only; the rest: sender only.
  std::vector<Span> reader_spans;
  int64_t last_done_ns = 0;  ///< Reader's last completion.
  int64_t last_mutation_ns = 0;

  std::mutex mu;
  std::condition_variable cv;
  int inflight = 0;
  bool reader_exited = false;
  std::atomic<bool> reader_done{false};
};

void SenderLoop(Conn* conn, const DriveOptions& options, int64_t start_ns,
                uint64_t conn_tag) {
  ConnResult& result = conn->result;
  int64_t current_table = -1;
  for (size_t j = 0; j < conn->ops->size(); ++j) {
    const Op& op = (*conn->ops)[j];
    const uint64_t span_id = conn_tag | (j + 1);
    if (op.kind != OpKind::kLookup) {
      update::Mutation acked;
      const int64_t t0 = NowNs();
      const Status status = options.server == nullptr
                                ? Status::FailedPrecondition("no server")
                                : ApplyMutation(options.server, op, &acked);
      const int64_t t1 = NowNs();
      OpResult& r = result.ops[j];
      r.sent_ns = t0;
      r.latency_us = static_cast<double>(t1 - t0) / 1e3;
      r.done = true;
      r.ok = status.ok();
      conn->last_mutation_ns = t1;
      if (status.ok()) {
        if (op.kind == OpKind::kRemove) result.removed_ack_ns[op.target] = t1;
        result.acked.push_back(std::move(acked));
      }
      if (options.trace) result.spans.push_back({span_id, "mutation", t0, t1});
      continue;
    }
    // Open loop: latency counts from the scheduled send.
    int64_t sent = start_ns + op.send_at_ns;
    if (options.open_loop) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(sent)));
    }
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      if (op.table >= 0 && op.table != current_table) {
        conn->cv.wait(lock, [&] {
          return conn->inflight == 0 || conn->reader_exited;
        });
        current_table = op.table;
      }
      const int cap = options.open_loop ? kOpenLoopMaxInflight : kWindow;
      conn->cv.wait(lock, [&] {
        return conn->inflight < cap || conn->reader_exited;
      });
      if (conn->reader_exited) {
        result.broken = true;
        break;
      }
      ++conn->inflight;
    }
    if (options.open_loop) {
      if (NowNs() - sent > 1000000) ++result.late_sends;
    } else {
      sent = NowNs();
    }
    conn->sent_ns[j].store(sent, std::memory_order_release);
    const int64_t s0 = NowNs();
    const Status status = conn->transport->Send(j + 1, op.mention.text);
    const int64_t s1 = NowNs();
    conn->send_end_ns[j].store(s1, std::memory_order_release);
    ++result.sends;
    if (options.trace) result.spans.push_back({span_id, "send", s0, s1});
    if (!status.ok()) {
      result.broken = true;
      conn->transport->Abort();
      break;
    }
  }
}

void ReaderLoop(Conn* conn, const DriveOptions& options, uint64_t conn_tag) {
  int64_t received = 0;
  while (received < conn->lookups) {
    auto reply = conn->transport->Read();
    if (!reply.ok()) break;
    const int64_t now = NowNs();
    const uint64_t id = reply.value().request_id;
    if (id == 0 || id > conn->ops->size()) continue;
    const size_t j = id - 1;
    OpResult& r = conn->result.ops[j];
    if (r.done) continue;
    r.sent_ns = conn->sent_ns[j].load(std::memory_order_acquire);
    r.latency_us = static_cast<double>(now - r.sent_ns) / 1e3;
    r.done = true;
    r.ok = reply.value().ok;
    r.shed = reply.value().shed;
    r.ids = std::move(reply.value().ids);
    conn->last_done_ns = now;
    if (options.trace) {
      const uint64_t span_id = conn_tag | id;
      const int64_t send_end =
          conn->send_end_ns[j].load(std::memory_order_acquire);
      conn->reader_spans.push_back({span_id, "lookup", r.sent_ns, now});
      conn->reader_spans.push_back({span_id, "reply_wait", send_end, now});
    }
    ++received;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      --conn->inflight;
    }
    conn->cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->reader_exited = true;
    if (received < conn->lookups) conn->result.broken = true;
  }
  conn->cv.notify_all();
  conn->reader_done.store(true, std::memory_order_release);
}

}  // namespace

Result<std::unique_ptr<Transport>> ConnectRemote(int port) {
  auto transport = std::make_unique<RemoteTransport>();
  EL_RETURN_NOT_OK(transport->Connect(port));
  return std::unique_ptr<Transport>(std::move(transport));
}

std::unique_ptr<Transport> InProcess(serve::LookupServer* server) {
  return std::make_unique<InProcessTransport>(server);
}

std::vector<Span> DriveResult::Spans() const {
  std::vector<Span> spans;
  for (const ConnResult& c : conns) {
    spans.insert(spans.end(), c.spans.begin(), c.spans.end());
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return spans;
}

DriveResult Drive(const std::vector<std::vector<Op>>& conns,
                  const std::vector<Transport*>& transports,
                  const DriveOptions& options) {
  std::vector<std::unique_ptr<Conn>> state;
  for (size_t c = 0; c < conns.size(); ++c) {
    state.push_back(std::make_unique<Conn>(&conns[c], transports[c]));
  }
  // Open-loop schedules start a little after the threads are up.
  const int64_t start_ns = NowNs() + 2000000;
  std::vector<std::thread> senders;
  std::vector<std::thread> readers;
  for (size_t c = 0; c < state.size(); ++c) {
    const uint64_t tag = static_cast<uint64_t>(c) << 40;
    readers.emplace_back(ReaderLoop, state[c].get(), std::cref(options), tag);
    senders.emplace_back(SenderLoop, state[c].get(), std::cref(options),
                         start_ns, tag);
  }
  for (auto& t : senders) t.join();
  // A reply that never comes must not hang the run: give the readers a
  // bounded time to drain, then break their transports.
  const int64_t give_up = NowNs() + 60'000'000'000;
  for (auto& conn : state) {
    while (!conn->reader_done.load(std::memory_order_acquire) &&
           NowNs() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!conn->reader_done.load(std::memory_order_acquire)) {
      conn->transport->Abort();
    }
  }
  for (auto& t : readers) t.join();

  DriveResult out;
  const int64_t first = options.open_loop ? start_ns : start_ns - 2000000;
  int64_t last = first;
  for (auto& conn : state) {
    last = std::max({last, conn->last_done_ns, conn->last_mutation_ns});
    ConnResult& r = conn->result;
    r.spans.insert(r.spans.end(), conn->reader_spans.begin(),
                   conn->reader_spans.end());
    out.conns.push_back(std::move(r));
  }
  out.start_ns = first;
  out.end_ns = last;
  out.wall_s = static_cast<double>(last - first) / 1e9;
  return out;
}

DriveResult DriveLanes(const std::vector<std::vector<Op>>& lanes, int port,
                       bool trace) {
  DriveResult out;
  out.conns.resize(lanes.size());
  std::vector<size_t> next(lanes.size(), 0);  // The one in flight: next - 1.
  std::vector<std::string> buffers(lanes.size());
  std::vector<int> sockets;
  std::vector<pollfd> fds;  // A finished lane's entry gets fd -1.
  for (size_t l = 0; l < lanes.size(); ++l) {
    out.conns[l].ops.resize(lanes[l].size());
    Result<int> fd = net::ConnectTcp("127.0.0.1", port);
    if (!fd.ok()) {
      for (ConnResult& c : out.conns) c.broken = true;
      for (const int open : sockets) ::close(open);
      return out;
    }
    (void)net::SetNoDelay(fd.value());
    sockets.push_back(fd.value());
    fds.push_back({fd.value(), POLLIN, 0});
  }

  size_t active = lanes.size();
  auto finish = [&](size_t l) {
    if (fds[l].fd < 0) return;
    fds[l].fd = -1;
    --active;
  };
  // Sends lane l's next lookup, or finishes the lane.
  auto send_next = [&](size_t l) {
    ConnResult& result = out.conns[l];
    if (next[l] >= lanes[l].size()) return finish(l);
    const size_t j = next[l]++;
    std::string frame;
    net::AppendLookupRequest(&frame, j + 1, lanes[l][j].mention.text, kTopK,
                             /*deadline_us=*/0);
    result.ops[j].sent_ns = NowNs();
    ++result.sends;
    if (!net::SendAll(sockets[l], frame.data(), frame.size()).ok()) {
      result.broken = true;
      finish(l);
    }
  };

  out.start_ns = NowNs();
  int64_t last = out.start_ns;
  for (size_t l = 0; l < lanes.size(); ++l) send_next(l);
  char chunk[16384];
  const int64_t give_up = NowNs() + 60'000'000'000;
  while (active > 0 && NowNs() < give_up) {
    if (::poll(fds.data(), fds.size(), 100) < 0 && errno != EINTR) break;
    for (size_t l = 0; l < lanes.size(); ++l) {
      if (fds[l].fd < 0 || fds[l].revents == 0) continue;
      ConnResult& result = out.conns[l];
      const ssize_t n = ::recv(sockets[l], chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        result.broken = true;
        finish(l);
        continue;
      }
      buffers[l].append(chunk, static_cast<size_t>(n));
      for (;;) {
        net::Frame frame;
        const Result<size_t> used = net::DecodeFrame(
            reinterpret_cast<const uint8_t*>(buffers[l].data()),
            buffers[l].size(), net::kDefaultMaxPayloadBytes, &frame);
        if (!used.ok()) {
          result.broken = true;
          finish(l);
          break;
        }
        if (used.value() == 0) break;  // A partial frame.
        buffers[l].erase(0, used.value());
        if (frame.request_id != next[l]) continue;  // Not the one in flight.
        const int64_t now = NowNs();
        OpResult& r = result.ops[next[l] - 1];
        r.latency_us = static_cast<double>(now - r.sent_ns) / 1e3;
        r.done = true;
        r.ok = frame.type == net::FrameType::kLookupResponse;
        r.shed = frame.type == net::FrameType::kError &&
                 IsShed(frame.error_code);
        r.ids = std::move(frame.ids);
        last = now;
        if (trace) {
          const uint64_t span_id =
              (static_cast<uint64_t>(l) << 40) | frame.request_id;
          result.spans.push_back({span_id, "lookup", r.sent_ns, now});
        }
        send_next(l);
        break;
      }
    }
  }
  for (size_t l = 0; l < lanes.size(); ++l) {
    for (const OpResult& r : out.conns[l].ops) {
      if (!r.done) out.conns[l].broken = true;
    }
    ::close(sockets[l]);
  }
  out.end_ns = last;
  out.wall_s = static_cast<double>(last - out.start_ns) / 1e9;
  return out;
}

std::vector<std::vector<Op>> WarmupOps(const std::vector<Mention>& warmup) {
  std::vector<std::vector<Op>> conns(kConnections);
  for (size_t i = 0; i < warmup.size(); ++i) {
    Op op;
    op.mention = warmup[i];
    conns[i % kConnections].push_back(std::move(op));
  }
  return conns;
}

}  // namespace perfbench
