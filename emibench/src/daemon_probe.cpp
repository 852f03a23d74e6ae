// The daemon probe of the traced design-flow run: the svc and io layers,
// measured over the real socket.
//
// An in-process svc::Service (2 executors, 2 pool lanes) sits behind its
// Unix socket (svc::SocketServer). Two clients, each with its own connection
// and session, send `SUBMIT` then a blocking `RESULT` for kProbeSeconds; the
// seeded job mix is buck/boost at 60 points, 3 in 4 with `adaptive=1` and 1
// in 4 exact. The global cache tier is warmed first, so extraction is
// read-mostly and the work is wire, service, job records, checkpoint writes
// and the sweeps. Every RESULT must be `done` with the in-process reference
// fingerprint of its spec, and the service may shed or fail no job.
//
// It is not an end-to-end workload: the server answers a parked RESULT on
// its 20 ms poll tick, so job latency is a whole number of ticks plus a
// little, and a small change in host speed moved the median from one tick
// to two (22 -> 43 ms) with CPU per job unchanged.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "harness.hpp"
#include "src/core/thread_pool.hpp"
#include "src/flow/buck_converter.hpp"
#include "src/flow/checkpoint.hpp"
#include "src/flow/design_flow.hpp"
#include "src/io/wire.hpp"
#include "src/svc/server.hpp"
#include "src/svc/service.hpp"

namespace emibench {
namespace {

using namespace emi;
namespace fs = std::filesystem;

constexpr std::size_t kClients = 2;  // one per executor
constexpr std::size_t kExecutors = 2;
constexpr std::size_t kPoolLanes = 2;
constexpr std::size_t kPoints = 60;
constexpr std::uint64_t kPingEvery = 8;  // one PING per 8 ops
constexpr double kProbeSeconds = 3.0;

// The four job kinds: topology x sweep engine.
struct JobKind {
  const char* topology;
  bool adaptive;
  std::uint64_t reference = 0;
};

// One blocking line-protocol connection.
class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) throw std::runtime_error("socket path too long");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect " + path + ": " + std::strerror(errno));
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Send one request line, block for one reply line.
  std::string request(const std::string& line) {
    const std::string out = line + "\n";
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      if (std::optional<std::string> reply = framer_.next_line()) return *reply;
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) throw std::runtime_error("connection closed");
      if (!framer_.feed(std::string_view(buf, static_cast<std::size_t>(n))).ok()) {
        throw std::runtime_error("reply line too long");
      }
    }
  }

 private:
  int fd_ = -1;
  io::LineFramer framer_;
};

std::optional<std::string> field(const std::string& reply, std::string_view key) {
  return io::kv_value(io::split_tokens(reply), key);
}

std::uint64_t field_u64(const std::string& reply, std::string_view key) {
  const std::optional<std::string> v = field(reply, key);
  return v ? std::strtoull(v->c_str(), nullptr, 10) : 0;
}

double field_double(const std::string& reply, std::string_view key) {
  const std::optional<std::string> v = field(reply, key);
  return v ? std::strtod(v->c_str(), nullptr) : 0.0;
}

std::string submit_line(const JobKind& k, const std::string& client) {
  return "SUBMIT topology=" + std::string(k.topology) + " points=" +
         std::to_string(kPoints) + " adaptive=" + (k.adaptive ? "1" : "0") +
         " client=" + client;
}

// The flow the service runs for a spec, minus checkpointing and the shared
// cache (neither changes result bits).
std::uint64_t reference_fingerprint(const JobKind& k) {
  const bool buck = std::string(k.topology) == "buck";
  flow::BuckConverter bc = buck ? flow::make_buck_converter() : flow::make_boost_converter();
  const place::Layout initial =
      buck ? flow::layout_unfavorable(bc) : flow::boost_layout_unfavorable(bc);
  flow::FlowOptions fopt;
  fopt.sweep.n_points = kPoints;
  fopt.sweep_accel.adaptive = k.adaptive;
  fopt.sweep_accel.surrogate = k.adaptive;
  return flow::result_fingerprint(flow::run_design_flow(bc, initial, fopt));
}

// A running daemon: service, socket server and its poll thread. A bind
// failure shows up as connect_when_ready's timeout.
class Daemon {
 public:
  Daemon(const std::string& state_dir, const std::string& socket_path)
      : svc_(svc::ServiceOptions{state_dir, kExecutors, 64}), server_(svc_, socket_path) {
    thread_ = std::thread([this] { (void)server_.serve(); });
  }
  ~Daemon() {
    server_.stop();
    thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::string job_dir(std::uint64_t id) const { return svc_.job_dir(id); }

 private:
  svc::Service svc_;
  svc::SocketServer server_;
  std::thread thread_;  // declared last: joins before the members it uses die
};

// Connect, retrying while the server thread binds.
std::unique_ptr<Connection> connect_when_ready(const std::string& path) {
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
  for (;;) {
    try {
      auto c = std::make_unique<Connection>(path);
      if (c->request("PING") == "OK pong") return c;
    } catch (const std::runtime_error&) {
      if (Clock::now() > give_up) throw;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::string client_name(std::size_t idx) { return "c" + std::to_string(idx); }

struct OpRecord {
  std::size_t kind = 0;
  std::uint64_t id = 0;
  std::string reply;  // RESULT reply, or the refused SUBMIT's reply
};

struct ClientTotals {
  std::vector<OpRecord> ops;
  double submit_ms = 0.0;
  double wait_ms = 0.0;
  std::vector<double> ping_us;
};

void client_loop(std::size_t idx, Connection& conn, const std::array<JobKind, 4>& kinds,
                 std::uint64_t seed, Clock::time_point deadline, Tracer& tracer,
                 ClientTotals& t) {
  Rng rng(seed ^ (0x5851f42d4c957f2dull * (idx + 1)));
  const std::string client = client_name(idx);
  const std::uint32_t tid = static_cast<std::uint32_t>(idx + 1);
  // Per block of 8: 3 adaptive + 1 exact of each topology, shuffled.
  std::array<std::size_t, 8> block = {0, 0, 0, 1, 2, 2, 2, 3};
  for (std::uint64_t op = 0; Clock::now() < deadline; ++op) {
    const std::size_t slot = op % block.size();
    if (slot == 0) {
      for (std::size_t i = block.size() - 1; i > 0; --i) {
        std::swap(block[i], block[rng.below(i + 1)]);
      }
    }
    const std::size_t kind = block[slot];
    const std::uint64_t op_id = (static_cast<std::uint64_t>(idx) << 32) | op;
    if (op % kPingEvery == 0) {
      const Clock::time_point p0 = Clock::now();
      const std::string pong = conn.request("PING");
      const Clock::time_point p1 = Clock::now();
      tracer.record("io.ping", p0, p1, Tracer::kNoParent, op_id, tid);
      if (pong == "OK pong") t.ping_us.push_back(ms_between(p0, p1) * 1e3);
    }
    const Clock::time_point t0 = Clock::now();
    const std::string submitted = conn.request(submit_line(kinds[kind], client));
    const Clock::time_point t1 = Clock::now();
    OpRecord rec{kind, 0, submitted};
    Clock::time_point t2 = t1;
    if (submitted.rfind("OK id=", 0) == 0) {
      rec.id = field_u64(submitted, "id");
      rec.reply = conn.request("RESULT job=" + std::to_string(rec.id));
      t2 = Clock::now();
    }
    const std::int64_t parent =
        tracer.record(std::string("svc.job.") + kinds[kind].topology +
                          (kinds[kind].adaptive ? ".adaptive" : ".exact"),
                      t0, t2, Tracer::kNoParent, op_id, tid);
    tracer.record("svc.submit", t0, t1, parent, op_id, tid);
    tracer.record("svc.result_wait", t1, t2, parent, op_id, tid);
    t.submit_ms += ms_between(t0, t1);
    t.wait_ms += ms_between(t1, t2);
    t.ops.push_back(std::move(rec));
  }
}

}  // namespace

void probe_daemon_layers(const Options& opt, Tracer& tracer, Result& r, LayerValues& lv) {
  const std::string run_dir = ".bench_build/serve-" + std::to_string(::getpid());
  const std::string state_dir = run_dir + "/state";
  const std::string socket_path = run_dir + "/s.sock";
  std::array<JobKind, 4> kinds = {JobKind{"buck", true}, JobKind{"buck", false},
                                  JobKind{"boost", true}, JobKind{"boost", false}};

  // Fresh state, daemon up, reference fingerprints, then one job of each
  // kind for a warm-up session (fills the global tier) and for each client
  // session (fills the sessions' private tiers).
  core::ThreadPool::set_global_thread_count(kPoolLanes);
  fs::remove_all(run_dir);
  fs::create_directories(run_dir);
  auto daemon = std::make_unique<Daemon>(state_dir, socket_path);
  {
    const std::unique_ptr<Connection> warm = connect_when_ready(socket_path);
    for (JobKind& k : kinds) k.reference = reference_fingerprint(k);
    std::vector<std::string> sessions = {"warmup"};
    for (std::size_t i = 0; i < kClients; ++i) sessions.push_back(client_name(i));
    for (const std::string& session : sessions) {
      for (const JobKind& k : kinds) {
        const std::string id = warm->request(submit_line(k, session));
        const std::string done =
            warm->request("RESULT job=" + std::to_string(field_u64(id, "id")));
        if (field(done, "state") != "done") throw std::runtime_error("warm-up job: " + done);
      }
    }
  }

  Connection control(socket_path);
  const std::string stats0 = control.request("STATS");
  const std::string health0 = control.request("HEALTH");
  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t i = 0; i < kClients; ++i) {
    conns.push_back(std::make_unique<Connection>(socket_path));
  }
  std::array<ClientTotals, kClients> totals;
  const Clock::time_point deadline = deadline_after(kProbeSeconds);
  {
    std::vector<std::thread> clients;
    std::atomic<bool> client_error{false};
    for (std::size_t i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        try {
          client_loop(i, *conns[i], kinds, opt.seed, deadline, tracer, totals[i]);
        } catch (const std::exception& ex) {
          std::fprintf(stderr, "emibench: daemon probe client %zu: %s\n", i, ex.what());
          client_error = true;
        }
      });
    }
    for (std::thread& c : clients) c.join();
    if (client_error) throw std::runtime_error("a daemon probe client lost its connection");
  }
  const std::string stats1 = control.request("STATS");
  const std::string health1 = control.request("HEALTH");

  // Output check, then re-save and reload finished jobs' checkpoints.
  std::vector<std::uint64_t> done_ids;
  double submit_ms = 0.0;
  double wait_ms = 0.0;
  std::vector<double> ping_us;
  std::size_t jobs = 0;
  for (const ClientTotals& t : totals) {
    submit_ms += t.submit_ms;
    wait_ms += t.wait_ms;
    ping_us.insert(ping_us.end(), t.ping_us.begin(), t.ping_us.end());
    jobs += t.ops.size();
    for (const OpRecord& op : t.ops) {
      ++r.attempted;
      const std::optional<std::string> fp = field(op.reply, "fingerprint");
      const bool ok = op.id != 0 && field(op.reply, "state") == "done" && fp &&
                      std::strtoull(fp->c_str(), nullptr, 16) == kinds[op.kind].reference;
      if (!ok) {
        r.note_failure("daemon probe job " + std::to_string(op.id) + ": " + op.reply);
      } else if (done_ids.size() < 16) {
        done_ids.push_back(op.id);
      }
    }
  }
  double save_ms = 0.0;
  double load_ms = 0.0;
  double bytes = 0.0;
  std::size_t n_ckpt = 0;
  const std::string copy = run_dir + "/resave.ckpt";
  for (std::uint64_t id : done_ids) {
    const Clock::time_point l0 = Clock::now();
    core::Result<flow::FlowCheckpoint> ck =
        flow::load_checkpoint_file(daemon->job_dir(id) + "/flow.ckpt");
    const Clock::time_point l1 = Clock::now();
    if (!ck.ok()) {
      r.note_failure("checkpoint of job " + std::to_string(id) + ": " + ck.status().to_string());
      continue;
    }
    const core::Status st = flow::save_checkpoint_file(copy, ck.value());
    const Clock::time_point s1 = Clock::now();
    if (!st.ok()) {
      r.note_failure("re-save of job " + std::to_string(id) + ": " + st.to_string());
      continue;
    }
    tracer.record("io.checkpoint_load", l0, l1, Tracer::kNoParent, id);
    tracer.record("io.checkpoint_save", l1, s1, Tracer::kNoParent, id);
    load_ms += ms_between(l0, l1);
    save_ms += ms_between(l1, s1);
    bytes += static_cast<double>(fs::file_size(copy));
    ++n_ckpt;
  }
  conns.clear();
  daemon.reset();
  fs::remove_all(run_dir);

  const auto per_job = [&](double v) { return jobs > 0 ? v / static_cast<double>(jobs) : 0.0; };
  const auto delta = [](const std::string& a, const std::string& b, std::string_view key) {
    return field_double(b, key) - field_double(a, key);
  };
  // A shed SUBMIT or a failed job already fails its op's check; the
  // service's own counters must agree.
  for (const auto& [reply0, reply1, key] :
       {std::tuple{&health0, &health1, "shed"}, std::tuple{&stats0, &stats1, "failed"}}) {
    const double n_bad = delta(*reply0, *reply1, key);
    if (n_bad != 0.0) {
      r.note_failure("daemon probe: " + std::string(key) + " went up by " +
                     std::to_string(n_bad));
    }
  }
  const double hits = delta(stats0, stats1, "cache_mutual_hits");
  const double misses = delta(stats0, stats1, "cache_mutual_misses");
  const double n = static_cast<double>(std::max<std::size_t>(n_ckpt, 1));
  lv["peec.global_hit_ratio"] = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  lv["svc.submit_rtt_ms"] = per_job(submit_ms);
  lv["svc.result_wait_ms"] = per_job(wait_ms);
  lv["io.ping_rtt_us"] = median(ping_us);
  lv["io.checkpoint_save_ms"] = save_ms / n;
  lv["io.checkpoint_load_ms"] = load_ms / n;
  lv["io.checkpoint_bytes"] = bytes / n;
}

}  // namespace emibench
