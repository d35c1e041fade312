// serve_mixed: the wcmd request path under a seeded stream of generate
// requests (E odd, so coprime to w = 32; b in {64, 128, 512}; k in 1..6)
// and prove requests, one new request in 16 a prove as in wcm_loadgen's
// mix.  60% are new and 40% repeat an earlier one: below one half, so the
// median latency falls among computed requests rather than on the edge
// between cache hits and them.  wcmd is spawned as its own
// process; an untraced run times the request path in this process and has
// the daemon answer the stream's first requests, a traced run drives the
// daemon with a closed loop of nproc connections.  The simulator is not on
// this path.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <exception>
#include <iostream>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "analyze/symbolic/prove.hpp"
#include "serve/client.hpp"
#include "serve/handlers.hpp"
#include "serve/protocol.hpp"
#include "serve/tenant_cache.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace {

constexpr int kSetupReps = 41;
/// Requests the daemon answers for the byte-compare of an untraced run:
/// about two passes over the generate shapes, so the largest is in it.
constexpr std::size_t kCheckRequests = 1000;
constexpr double kCheckSeconds = 60.0;
constexpr std::size_t kStreamLength = 50000;

// ---- the daemon process ----------------------------------------------------

/// A spawned wcmd; the destructor kills and reaps it if it still runs.
/// Its stderr is a pipe to this process: the daemon logs one line once its
/// socket listens, so readiness needs no polling.
class Daemon {
 public:
  Daemon(const std::string& wcmd, const std::string& socket, unsigned threads,
         bool telemetry)
      : socket_(socket) {
    const std::string threads_arg = std::to_string(threads);
    std::vector<std::string> args{wcmd, "--socket", socket, "--threads",
                                  threads_arg};
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "WCM_", 4) != 0) {
        env.emplace_back(*e);
      }
    }
    if (telemetry) {
      env.emplace_back("WCM_TELEMETRY=1");
    }
    std::vector<char*> argv;
    for (auto& a : args) {
      argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    std::vector<char*> envp;
    for (auto& e : env) {
      envp.push_back(e.data());
    }
    envp.push_back(nullptr);
    int log[2];
    if (::pipe2(log, O_CLOEXEC) != 0) {
      throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
    }
    log_fd_ = log[0];
    // The daemon's stdout goes to stderr: stdout ends with the result line.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
    posix_spawn_file_actions_adddup2(&actions, log[1], STDERR_FILENO);
    const int rc = posix_spawn(&pid_, wcmd.c_str(), &actions, nullptr,
                               argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&actions);
    ::close(log[1]);
    if (rc != 0) {
      pid_ = -1;
      ::close(log_fd_);
      throw std::runtime_error("cannot spawn " + wcmd + ": " +
                               std::strerror(rc));
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    forward_log();
    ::close(log_fd_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  Daemon(Daemon&&) = delete;
  Daemon& operator=(Daemon&&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] const std::string& socket() const noexcept { return socket_; }

  /// Block until the daemon logs that it serves; throws when it logs
  /// anything else first, exits, or takes more than 30 s.
  void wait_ready() {
    std::string line;
    while (line.empty() || line.back() != '\n') {
      pollfd pfd{log_fd_, POLLIN, 0};
      char c = 0;
      if (::poll(&pfd, 1, 30000) != 1 || ::read(log_fd_, &c, 1) != 1) {
        throw std::runtime_error("wcmd did not start: " + line);
      }
      line += c;
    }
    if (line.rfind("wcmd: serving on ", 0) != 0) {
      throw std::runtime_error("wcmd did not start: " + line);
    }
    ::fcntl(log_fd_, F_SETFL, O_NONBLOCK);
  }

  /// Ask the daemon to drain and wait for it; true on a clean exit 0.
  bool drain() {
    {
      wcm::serve::Client client(socket_);
      (void)client.roundtrip(R"({"op":"drain"})");
    }
    int status = 0;
    for (int waited_ms = 0; waited_ms < 60000; waited_ms += 10) {
      forward_log();  // a full pipe would block the daemon's exit
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;  // the destructor kills it
  }

 private:
  /// Copy what the daemon logged since it became ready to stderr.
  void forward_log() {
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::read(log_fd_, buf, sizeof buf)) > 0) {
      std::cerr.write(buf, n);
    }
  }

  std::string socket_;
  pid_t pid_ = -1;
  int log_fd_ = -1;
};

std::string socket_name() {
  static int counter = 0;
  return "@perfbench-" + std::to_string(getpid()) + "-" +
         std::to_string(counter++);
}

/// Spawn a daemon and time it until its first `health` reply.
std::unique_ptr<Daemon> spawn(const std::string& wcmd, bool telemetry,
                              double& seconds, Result& result) {
  const auto t0 = Clock::now();
  auto daemon =
      std::make_unique<Daemon>(wcmd, socket_name(), nproc(), telemetry);
  daemon->wait_ready();
  wcm::serve::Client client(daemon->socket());
  const std::string reply = client.roundtrip(R"({"op":"health"})");
  seconds = seconds_since(t0);
  result.check(reply.find("\"ok\":true") != std::string::npos,
               "health reply is ok");
  return daemon;
}

// ---- the request stream ----------------------------------------------------

struct Stream {
  std::vector<std::string> lines;   ///< request line per stream index
  std::vector<std::size_t> unique;  ///< index of the new request it is
  std::vector<bool> repeat;         ///< true when it repeats an earlier one
  std::size_t uniques = 0;
};

/// Draws items in a seeded shuffled order, every item once per pass, so
/// any run of the stream holds the same mix whatever the seed.
template <typename T>
class Deck {
 public:
  explicit Deck(std::vector<T> items) : items_(std::move(items)) {}
  T draw(wcm::Xoshiro256& rng) {
    if (next_ == items_.size()) {
      wcm::shuffle(items_, rng);
      next_ = 0;
    }
    return items_[next_++];
  }

 private:
  std::vector<T> items_;
  std::size_t next_ = items_.size();
};

struct Shape {
  unsigned E = 0;
  unsigned b = 0;
  unsigned k = 0;
};

constexpr unsigned kBlockSizes[] = {64, 128, 512};

/// Every generate shape: E odd below w = 32 (so coprime to it), b in
/// {64, 128, 512}, k in 1..6; the largest is n = 31 * 512 * 2^6 keys.
std::vector<Shape> generate_shapes() {
  std::vector<Shape> shapes;
  for (unsigned e = 3; e < 32; e += 2) {
    for (const unsigned b : kBlockSizes) {
      for (unsigned k = 1; k <= 6; ++k) {
        shapes.push_back({e, b, k});
      }
    }
  }
  return shapes;
}

std::string generate_params(const Shape& shape, std::uint64_t tile_seed) {
  std::ostringstream os;
  os << R"({"E":)" << shape.E << R"(,"b":)" << shape.b << R"(,"k":)"
     << shape.k << R"(,"seed":)" << tile_seed << "}";
  return os.str();
}

using ProveKey =
    std::tuple<std::uint64_t, unsigned, unsigned, unsigned, unsigned>;

/// A prove request not drawn before, or "" once draws keep repeating (the
/// space holds a few thousand).  Any engine, the generate block sizes, and
/// an odd E range drawn uniformly: the repository records no prove
/// caller's parameters beyond wcm_loadgen's two fixed requests, so this
/// spread is an assumption.
std::string prove_params(wcm::Xoshiro256& rng, std::set<ProveKey>& seen) {
  const auto& engines = wcm::analyze::symbolic::all_engines();
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::uint64_t engine = rng.below(engines.size());
    const unsigned b = kBlockSizes[rng.below(std::size(kBlockSizes))];
    const unsigned pad = static_cast<unsigned>(rng.below(2));
    const unsigned e_min = 3 + 2 * static_cast<unsigned>(rng.below(7));
    const unsigned e_max =
        e_min + 2 * static_cast<unsigned>(rng.below((31 - e_min) / 2 + 1));
    if (!seen.insert({engine, b, pad, e_min, e_max}).second) {
      continue;
    }
    std::ostringstream os;
    os << R"({"engine":")" << engines[engine] << R"(","b":)" << b
       << R"(,"pad":)" << pad << R"(,"E_min":)" << e_min << R"(,"E_max":)"
       << e_max << "}";
    return os.str();
  }
  return "";
}

Stream make_stream(std::uint64_t seed) {
  wcm::Xoshiro256 rng(seed);
  Deck<bool> repeats({true, true, false, false, false});  // 40% repeats
  // One new request in 16 is a prove, as in wcm_loadgen's mix.
  std::vector<bool> prove_deck(16, false);
  prove_deck[0] = true;
  Deck<bool> proves(std::move(prove_deck));
  Deck<Shape> shapes(generate_shapes());
  // Distinct per new request, below 2^53 so JSON carries it exactly.
  const std::uint64_t tile_seed_base = (wcm::fork_seed(seed, 0) >> 20) + 1;
  Stream s;
  std::vector<std::string> bodies;  // op + params of each new request
  std::set<ProveKey> seen;
  for (std::size_t i = 0; i < kStreamLength; ++i) {
    std::size_t u = bodies.size();
    const bool repeat = repeats.draw(rng) && !bodies.empty();
    if (repeat) {
      u = rng.below(bodies.size());
    } else {
      const std::string prove =
          proves.draw(rng) ? prove_params(rng, seen) : std::string();
      bodies.push_back(prove.empty()
                           ? R"("op":"generate","params":)" +
                                 generate_params(shapes.draw(rng),
                                                 tile_seed_base + u)
                           : R"("op":"prove","params":)" + prove);
    }
    s.lines.push_back(R"({"id":"q)" + std::to_string(i) + "\"," + bodies[u] +
                      "}");
    s.unique.push_back(u);
    s.repeat.push_back(repeat);
  }
  s.uniques = bodies.size();
  return s;
}

// ---- the closed loop -------------------------------------------------------

struct Sample {
  std::size_t index = 0;
  double latency_s = 0.0;
  std::string response;
};

struct Load {
  std::vector<Sample> samples;
  double wall_s = 0.0;
};

/// Send stream lines 0, 1, ... over `connections` connections until
/// `count` were sent or `seconds` passed.
Load closed_loop(const std::string& socket, const Stream& stream,
                 unsigned connections, double seconds, std::size_t count) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;  // guards load.samples and error
  Load load;
  std::string error;
  const auto start = Clock::now();
  std::vector<std::jthread> clients;
  for (unsigned c = 0; c < connections; ++c) {
    clients.emplace_back([&] {
      try {
        wcm::serve::Client client(socket);
        std::vector<Sample> mine;
        while (seconds_since(start) < seconds) {
          const std::size_t i = next.fetch_add(1);
          if (i >= count) {
            break;
          }
          const auto t0 = Clock::now();
          std::string response = client.roundtrip(stream.lines[i]);
          mine.push_back({i, seconds_since(t0), std::move(response)});
        }
        const std::lock_guard<std::mutex> lock(mu);
        for (auto& s : mine) {
          load.samples.push_back(std::move(s));
        }
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(mu);
        error = e.what();
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  load.wall_s = seconds_since(start);
  if (!error.empty()) {
    throw std::runtime_error("client: " + error);
  }
  if (next.load() >= stream.lines.size()) {
    std::cerr << "perfbench: request stream exhausted before the deadline\n";
  }
  std::sort(load.samples.begin(), load.samples.end(),
            [](const Sample& a, const Sample& b) { return a.index < b.index; });
  return load;
}

// ---- the request path in this process --------------------------------------

struct Local {
  std::vector<std::string> responses;  ///< response line per stream index
  std::vector<double> latency_ms;
  double wall_s = 0.0;
};

/// One thread serving the stream through the daemon's request path without
/// its socket: parse, canonicalize, tenant-cache lookup, execute on a miss,
/// render the response.
Local serve_in_process(const Stream& stream, double seconds) {
  wcm::serve::TenantCache cache;
  const wcm::serve::ServerConfig cfg;
  Local out;
  const auto start = Clock::now();
  for (std::size_t i = 0;
       i < stream.lines.size() && seconds_since(start) < seconds; ++i) {
    const auto t0 = Clock::now();
    const wcm::serve::Request req = wcm::serve::parse_request(stream.lines[i]);
    const std::uint64_t key =
        cache.key_of(wcm::serve::canonical_request(req));
    std::string result;
    if (auto hit = cache.lookup(req.tenant, key)) {
      result = std::move(*hit);
    } else {
      result = wcm::serve::execute(req, cfg, nullptr);
      cache.insert(req.tenant, key, result);
    }
    out.responses.push_back(wcm::serve::ok_response(req.id, result));
    out.latency_ms.push_back(1e3 * seconds_since(t0));
  }
  out.wall_s = seconds_since(start);
  return out;
}

// ---- verification ----------------------------------------------------------

struct Executed {
  std::string result;
  std::string error;
  double seconds = 0.0;
  bool generate = false;
};

/// serve::execute, in this process, on every new request the loads sent.
std::vector<Executed> execute_all(const Stream& stream,
                                  const std::vector<std::size_t>& firsts) {
  std::vector<Executed> out(firsts.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::jthread> workers;
  const wcm::serve::ServerConfig cfg;
  for (unsigned t = 0; t < nproc(); ++t) {
    workers.emplace_back([&] {
      for (std::size_t j = next.fetch_add(1); j < firsts.size();
           j = next.fetch_add(1)) {
        Executed& e = out[j];
        try {
          const auto req = wcm::serve::parse_request(stream.lines[firsts[j]]);
          e.generate = req.op == "generate";
          const auto t0 = Clock::now();
          e.result = wcm::serve::execute(req, cfg, nullptr);
          e.seconds = seconds_since(t0);
        } catch (const std::exception& ex) {
          e.error = ex.what();
        }
      }
    });
  }
  for (auto& t : workers) {
    t.join();
  }
  return out;
}

/// Check every response against serve::execute called directly; returns
/// the executions, indexed by the stream's new-request number.
std::vector<Executed> verify(const Stream& stream,
                             const std::vector<const Load*>& loads,
                             Result& result, std::vector<long>& slot_of) {
  slot_of.assign(stream.uniques, -1);
  std::vector<std::size_t> firsts;
  for (const Load* load : loads) {
    for (const Sample& s : load->samples) {
      const std::size_t u = stream.unique[s.index];
      if (slot_of[u] < 0) {
        slot_of[u] = static_cast<long>(firsts.size());
        firsts.push_back(s.index);
      }
    }
  }
  const std::vector<Executed> executed = execute_all(stream, firsts);
  for (const Load* load : loads) {
    for (const Sample& s : load->samples) {
      const Executed& e =
          executed[static_cast<std::size_t>(slot_of[stream.unique[s.index]])];
      const std::string id = "q" + std::to_string(s.index);
      result.check(e.error.empty() &&
                       s.response == wcm::serve::ok_response(id, e.result),
                   "response to " + id + " is byte-identical to execute" +
                       (e.error.empty() ? "" : " (execute: " + e.error + ")"));
    }
  }
  return executed;
}

double hit_ratio(const std::string& metrics_reply) {
  const auto doc = wcm::json::parse(metrics_reply);
  double hits = 0.0;
  double misses = 0.0;
  for (const auto& row : doc.as_object().at("result").as_object().at(
           "metrics").as_array()) {
    const auto& o = row.as_object();
    const std::string& name = o.at("name").as_string();
    if (name == "serve.cache.hit") {
      hits += o.at("value").as_double();
    } else if (name == "serve.cache.miss") {
      misses += o.at("value").as_double();
    }
  }
  return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

std::vector<double> latencies_ms(const Load& load, const Stream& stream,
                                 int want_repeat) {
  std::vector<double> v;
  for (const Sample& s : load.samples) {
    if (want_repeat < 0 || stream.repeat[s.index] == (want_repeat == 1)) {
      v.push_back(1e3 * s.latency_s);
    }
  }
  return v;
}

}  // namespace

void run_serve_mixed(const Options& opts, const std::string& wcmd,
                     Result& result) {
  const unsigned connections = nproc();
  const Stream stream = make_stream(opts.seed);

  // Set-up: spawn the daemon until its first health reply, several times;
  // report the median and keep the last daemon.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (daemon) {
      result.check(daemon->drain(), "daemon drains and exits 0");
    }
    double seconds = 0.0;
    daemon = spawn(wcmd, false, seconds, result);
    setup_s.push_back(seconds);
  }
  result.set("setup_s", median(setup_s), setup_s.size());

  if (!opts.trace) {
    // End-to-end figures come from the request path in this process: over
    // the socket, the same loop moved 15-25% between runs with the shared
    // host's load.  The daemon then answers the stream's first requests on
    // one connection, so its peak memory does not depend on which requests
    // happened to overlap, and every answer must be byte-identical to the
    // one computed here.
    const Local local = serve_in_process(stream, opts.seconds);
    const std::size_t n = local.responses.size();
    result.set("ops_per_s", static_cast<double>(n) / local.wall_s, n);
    result.set("p50_ms", median(local.latency_ms), n);
    const std::size_t count = std::min(n, kCheckRequests);
    const Load check =
        closed_loop(daemon->socket(), stream, 1, kCheckSeconds, count);
    result.set("peak_rss_mb", peak_rss_mb(daemon->pid()), 1);
    result.check(daemon->drain(), "daemon drains and exits 0");
    result.check(check.samples.size() == count,
                 "daemon answered every check request");
    for (const Sample& s : check.samples) {
      result.check(s.response == local.responses[s.index],
                   "daemon response to q" + std::to_string(s.index) +
                       " is byte-identical to execute");
    }
    return;
  }

  // A traced run gives half its time to this plain daemon and half to one
  // with telemetry on, which answers the per-layer questions; every
  // response is checked against serve::execute.
  const double phase_s = opts.seconds / 2;
  const Load plain = closed_loop(daemon->socket(), stream, connections,
                                 phase_s, stream.lines.size());
  result.check(daemon->drain(), "daemon drains and exits 0");
  double seconds = 0.0;
  daemon = spawn(wcmd, true, seconds, result);
  const Load traced = closed_loop(daemon->socket(), stream, connections,
                                  phase_s, stream.lines.size());
  result.set("peak_rss_mb", peak_rss_mb(daemon->pid()), 1);
  double cache_hit_ratio = 0.0;
  {
    wcm::serve::Client client(daemon->socket());
    cache_hit_ratio = hit_ratio(client.roundtrip(R"({"op":"metrics"})"));
  }
  result.check(daemon->drain(), "telemetry daemon drains and exits 0");
  daemon.reset();

  const std::vector<double> all_ms = latencies_ms(traced, stream, -1);
  const double qps = static_cast<double>(all_ms.size()) / traced.wall_s;
  const Tail p99 = tail(all_ms);
  result.set("qps", qps, all_ms.size());
  if (p99.defined) {
    result.set("p99_ms", p99.value, all_ms.size());
    std::cout << "p99_ms is the p" << p99.percentile << " latency\n";
  }
  std::vector<long> slot_of;
  const std::vector<Executed> executed =
      verify(stream, {&plain, &traced}, result, slot_of);

  // ---- traced run: per-layer decomposition ---------------------------------
  const double qps_plain =
      static_cast<double>(plain.samples.size()) / plain.wall_s;
  result.set("trace_overhead_pct", 100.0 * (qps_plain / qps - 1.0), 2);
  result.set("serve.cache_hit_ratio", cache_hit_ratio, 1);

  // Protocol work per line, in this process.
  std::vector<double> protocol_us;
  for (const Sample& s : traced.samples) {
    const auto t0 = Clock::now();
    wcm::serve::Request req;
    {
      const auto span = tracer().span("serve.parse_request");
      req = wcm::serve::parse_request(stream.lines[s.index]);
    }
    {
      const auto span = tracer().span("serve.canonical_request");
      (void)wcm::serve::canonical_request(req);
    }
    protocol_us.push_back(1e6 * seconds_since(t0));
  }
  result.set("serve.protocol_us", median(protocol_us), protocol_us.size());

  // Execute times of the new requests the traced load sent.
  std::vector<double> gen_ms;
  std::vector<double> prove_ms;
  double execute_s = 0.0;
  std::vector<bool> counted(executed.size(), false);
  for (const Sample& s : traced.samples) {
    const auto slot =
        static_cast<std::size_t>(slot_of[stream.unique[s.index]]);
    if (stream.repeat[s.index] || counted[slot]) {
      continue;
    }
    counted[slot] = true;
    const Executed& e = executed[slot];
    (e.generate ? gen_ms : prove_ms).push_back(1e3 * e.seconds);
    execute_s += e.seconds;
  }
  tracer().record("serve.execute", execute_s, gen_ms.size() + prove_ms.size());
  double client_s = 0.0;
  for (const Sample& s : traced.samples) {
    client_s += s.latency_s;
  }
  tracer().record("client.roundtrip", client_s, traced.samples.size());
  std::vector<double> all_exec_ms = gen_ms;
  all_exec_ms.insert(all_exec_ms.end(), prove_ms.begin(), prove_ms.end());
  if (!gen_ms.empty()) {
    result.set("serve.execute_generate_ms", median(gen_ms), gen_ms.size());
  }
  if (!prove_ms.empty()) {
    result.set("serve.execute_prove_ms", median(prove_ms), prove_ms.size());
  }

  const std::vector<double> unique_ms = latencies_ms(traced, stream, 0);
  const std::vector<double> repeat_ms = latencies_ms(traced, stream, 1);
  result.set("serve.unique_p50_ms", median(unique_ms), unique_ms.size());
  result.set("serve.repeat_p50_ms", median(repeat_ms), repeat_ms.size());
  result.set("serve.queue_overhead_ms",
             median(unique_ms) - median(all_exec_ms), unique_ms.size());
  result.set("serve.repeat_share",
             static_cast<double>(repeat_ms.size()) /
                 static_cast<double>(traced.samples.size()),
             traced.samples.size());
}

}  // namespace perfbench
