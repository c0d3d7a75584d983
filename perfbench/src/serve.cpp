#include "serve.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "fvc/api/client.hpp"
#include "fvc/api/session.hpp"
#include "fvc/api/wire.hpp"
#include "fvc/io/network_io.hpp"
#include "fvc/stats/distributions.hpp"
#include "fvc/stats/rng.hpp"
#include "requests.hpp"

namespace fvcbench {

namespace {

using fvc::api::WireObject;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kPointPool = 64;
constexpr std::size_t kBatches = 4;       ///< `points` requests of kPointPool points
constexpr std::size_t kAddPool = 4;       ///< distinct cameras a what-if pair adds
constexpr double kStrips[][2] = {{0.0, 1.0},   {0.0, 0.25}, {0.25, 0.5}, {0.5, 0.75},
                                 {0.75, 1.0},  {0.4, 0.6},  {0.1, 0.15}, {0.9, 0.95}};
constexpr std::size_t kStripPool = sizeof(kStrips) / sizeof(kStrips[0]);
/// An open-loop run is invalid when its generator falls behind.  A
/// request's lag is its send time minus its due time, less a what-if's wait
/// for its turn: the wake-up overshoot plus any time the request was due
/// while every connection was busy.  Connections stuck behind a session-lock
/// hold (a what-if rebuild, an uncached region) delay the next request by
/// about one hold; a generator that cannot keep up with the rate piles up
/// lag without limit (the open loop has turned closed).  So the bound on the
/// lag p99 is kLagHolds service times (p90) of the slowest op class, and
/// never less than kLagFloorMs.
constexpr double kLagHolds = 3.0;
constexpr double kLagFloorMs = 20.0;

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) {
        cpus.push_back(c);
      }
    }
  }
  return cpus;
}

void pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) {
    CPU_SET(c, &set);
  }
  (void)sched_setaffinity(0, sizeof set, &set);
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string s;
  for (const int c : cpus) {
    if (!s.empty()) {
      s += ',';
    }
    s += std::to_string(c);
  }
  return s;
}

/// One `fvc_sim serve` process, pinned with taskset and killed with its
/// parent (PR_SET_PDEATHSIG) so no daemon outlives the harness.
class Daemon {
 public:
  Daemon(const ServeConfig& cfg, const std::string& camera_file, const std::string& socket,
         const std::vector<int>& cpus)
      : socket_(socket) {
    ::unlink(socket.c_str());
    std::vector<std::string> args = {"taskset",  "-c",          cpu_list(cpus),
                                     cfg.fvc_sim, "serve",      "--socket",
                                     socket,      "--load",     camera_file,
                                     "--grid-side", std::to_string(cfg.grid_side)};
    std::vector<char*> argv;
    for (std::string& a : args) {
      argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    const std::string log = cfg.work_dir + "/daemon.log";
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
      throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) {
        ::_exit(127);
      }
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      ::execvp("taskset", argv.data());
      ::_exit(127);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  [[nodiscard]] int pid() const { return pid_; }

  /// Connect and ask `info` until the daemon answers (or `timeout_s`).
  std::optional<WireObject> wait_info(double timeout_s) {
    const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
    while (Clock::now() < deadline) {
      try {
        fvc::api::Client c(socket_);
        return fvc::api::parse_flat_object(c.request("{\"op\":\"info\"}"));
      } catch (const std::exception&) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          return std::nullopt;  // exited before serving
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return std::nullopt;
  }

  /// SIGINT drain; returns the exit code (-1 when it had to be killed).
  int stop(double timeout_s) {
    if (pid_ <= 0) {
      return -1;
    }
    const Span span("bench.serve.drain", kBenchCat);
    ::kill(pid_, SIGINT);
    const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
    int status = 0;
    while (Clock::now() < deadline) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return -1;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

/// Expected answers of one deployment state (keyed by its digest).
struct Expect {
  std::vector<fvc::api::PointAnswer> points;
  std::vector<std::vector<fvc::api::PointAnswer>> batches;
  std::vector<fvc::api::RegionAnswer> strips;
  std::size_t cameras = 0;
};

struct Pools {
  std::vector<double> px, py;                       ///< point pool
  std::vector<std::vector<double>> bx, by;          ///< `points` batches
  std::vector<fvc::core::Camera> adds;              ///< what-if add cameras
  std::vector<std::string> point_body, batch_body, strip_body, add_body;
  std::string remove_body;
};

enum class Op : std::uint8_t { kPoint, kPoints, kRegion, kAdd, kRemove };

struct Req {
  double due_s = 0.0;
  Op op = Op::kPoint;
  std::uint32_t item = 0;      ///< pool index / batch / strip / add camera
  std::uint32_t what_if = 0;   ///< sequence number among what-ifs
};

/// The 60/10/20/10 mix, dealt in shuffled blocks of 20 requests (12 point,
/// 2 points, 4 region, one what-if add/remove pair) with the strips taken
/// in turn, so every run sends the same op counts and run-to-run cost
/// differences come from the program rather than from sampling the mix.
/// What-ifs alternate add/remove, so at most one added camera is live and
/// the daemon only visits mirrored states.
std::vector<Req> make_schedule(std::size_t count, double rate, std::uint64_t seed) {
  static constexpr Op kBlock[] = {Op::kPoint,  Op::kPoint,  Op::kPoint,  Op::kPoint,
                                  Op::kPoint,  Op::kPoint,  Op::kPoint,  Op::kPoint,
                                  Op::kPoint,  Op::kPoint,  Op::kPoint,  Op::kPoint,
                                  Op::kPoints, Op::kPoints, Op::kRegion, Op::kRegion,
                                  Op::kRegion, Op::kRegion, Op::kAdd,    Op::kAdd};
  constexpr std::size_t kBlockSize = sizeof(kBlock) / sizeof(kBlock[0]);
  fvc::stats::Pcg32 rng = fvc::stats::make_child_rng(seed, 0x5C4E);
  std::vector<Req> out;
  out.reserve(count + 1);
  double t = 0.0;
  std::uint32_t what_ifs = 0;
  std::uint32_t strips = 0;
  Op block[kBlockSize];
  for (std::size_t i = 0; i < count; ++i) {
    if (i % kBlockSize == 0) {
      std::copy(std::begin(kBlock), std::end(kBlock), block);
      for (std::size_t k = kBlockSize - 1; k > 0; --k) {  // Fisher-Yates
        std::swap(block[k], block[rng() % (k + 1)]);
      }
    }
    Req r;
    if (rate > 0.0) {
      t += -std::log(1.0 - fvc::stats::uniform01(rng)) / rate;
      r.due_s = t;
    }
    r.op = block[i % kBlockSize];
    if (r.op == Op::kPoint) {
      r.item = static_cast<std::uint32_t>(rng() % kPointPool);
    } else if (r.op == Op::kPoints) {
      r.item = static_cast<std::uint32_t>(rng() % kBatches);
    } else if (r.op == Op::kRegion) {
      r.item = strips++ % kStripPool;
    } else {
      r.op = what_ifs % 2 == 0 ? Op::kAdd : Op::kRemove;
      r.item = static_cast<std::uint32_t>(rng() % kAddPool);
      r.what_if = what_ifs++;
    }
    out.push_back(r);
  }
  if (what_ifs % 2 == 1) {  // close the last pair
    Req r;
    r.due_s = t;
    r.op = Op::kRemove;
    r.what_if = what_ifs;
    out.push_back(r);
  }
  return out;
}

bool points_match(const WireObject& obj, const std::vector<fvc::api::PointAnswer>& want) {
  const auto& covered = fvc::api::get_numbers(obj, "covered");
  const auto& necessary = fvc::api::get_numbers(obj, "necessary");
  const auto& sufficient = fvc::api::get_numbers(obj, "sufficient");
  const auto& max_gap = fvc::api::get_numbers(obj, "max_gap");
  const auto& count = fvc::api::get_numbers(obj, "covering_count");
  if (covered.size() != want.size() || necessary.size() != want.size() ||
      sufficient.size() != want.size() || max_gap.size() != want.size() ||
      count.size() != want.size() ||
      fvc::api::get_number(obj, "count") != static_cast<double>(want.size())) {
    return false;
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (covered[i] != (want[i].covered ? 1.0 : 0.0) ||
        necessary[i] != (want[i].necessary ? 1.0 : 0.0) ||
        sufficient[i] != (want[i].sufficient ? 1.0 : 0.0) || max_gap[i] != want[i].max_gap ||
        count[i] != static_cast<double>(want[i].covering_count)) {
      return false;
    }
  }
  return true;
}

bool point_matches(const WireObject& obj, const fvc::api::PointAnswer& want) {
  return fvc::api::get_bool(obj, "covered") == want.covered &&
         fvc::api::get_bool(obj, "necessary") == want.necessary &&
         fvc::api::get_bool(obj, "sufficient") == want.sufficient &&
         fvc::api::get_number(obj, "max_gap") == want.max_gap &&
         fvc::api::get_number(obj, "covering_count") == static_cast<double>(want.covering_count);
}

bool region_matches(const WireObject& obj, const fvc::api::RegionAnswer& want) {
  const auto num = [&](const char* k) { return fvc::api::get_number(obj, k); };
  const auto& s = want.stats;
  // tiles_cached / tiles_computed describe cache history, not the answer.
  return num("row_begin") == static_cast<double>(want.row_begin) &&
         num("row_end") == static_cast<double>(want.row_end) &&
         num("total_points") == static_cast<double>(s.total_points) &&
         num("covered_1") == static_cast<double>(s.covered_1) &&
         num("necessary_ok") == static_cast<double>(s.necessary_ok) &&
         num("full_view_ok") == static_cast<double>(s.full_view_ok) &&
         num("sufficient_ok") == static_cast<double>(s.sufficient_ok) &&
         num("k_covered_ok") == static_cast<double>(s.k_covered_ok) &&
         num("min_max_gap") == s.min_max_gap && num("max_max_gap") == s.max_max_gap &&
         num("tiles_total") == static_cast<double>(want.tiles_total);
}

/// Everything the load workers share.
struct Load {
  const Pools* pools = nullptr;
  const std::map<std::string, Expect>* mirror = nullptr;
  std::vector<std::string> add_digest;  ///< digest after add k
  std::string base_digest;
  double theta = 0.0;
  std::size_t cameras = 0;
};

struct Sample {
  Op op;
  double latency_us;
  double service_us;
  double lag_us;
  double done_s;  ///< answer time since the phase started
};

/// Check one response; returns a failure description or "".
std::string verify(const Load& L, const Req& r, const std::string& raw) {
  const WireObject obj = fvc::api::parse_flat_object(raw);
  if (!fvc::api::get_bool(obj, "ok")) {
    return "ok:false: " + raw.substr(0, 160);
  }
  const std::string& digest = fvc::api::get_string(obj, "digest");
  if (r.op == Op::kAdd || r.op == Op::kRemove) {
    const bool add = r.op == Op::kAdd;
    const std::string& want = add ? L.add_digest[r.item] : L.base_digest;
    if (digest != want ||
        fvc::api::get_number(obj, "cameras") != static_cast<double>(L.cameras + (add ? 1 : 0)) ||
        fvc::api::get_number(obj, "theta") != L.theta) {
      return "what_if answer differs from the mirror: " + raw.substr(0, 160);
    }
    return "";
  }
  const auto it = L.mirror->find(digest);
  if (it == L.mirror->end()) {
    return "answer carries an unknown digest " + digest;
  }
  const Expect& e = it->second;
  bool ok = false;
  switch (r.op) {
    case Op::kPoint:
      ok = point_matches(obj, e.points[r.item]);
      break;
    case Op::kPoints:
      ok = points_match(obj, e.batches[r.item]);
      break;
    case Op::kRegion:
      ok = region_matches(obj, e.strips[r.item]);
      break;
    default:
      break;
  }
  return ok ? "" : "answer differs from the mirror";
}

const std::string& body_of(const Pools& p, const Req& r) {
  switch (r.op) {
    case Op::kPoint:
      return p.point_body[r.item];
    case Op::kPoints:
      return p.batch_body[r.item];
    case Op::kRegion:
      return p.strip_body[r.item];
    case Op::kAdd:
      return p.add_body[r.item];
    case Op::kRemove:
      break;
  }
  return p.remove_body;
}

const char* span_name(Op op) {
  switch (op) {
    case Op::kPoint:
      return "bench.serve.point";
    case Op::kPoints:
      return "bench.serve.points";
    case Op::kRegion:
      return "bench.serve.region";
    case Op::kAdd:
    case Op::kRemove:
      break;
  }
  return "bench.serve.what_if";
}

struct PhaseResult {
  std::vector<Sample> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few descriptions per connection

  /// The failure descriptions, for the report line.
  [[nodiscard]] std::string detail() const {
    std::string s;
    for (const std::string& f : failures) {
      s += (s.empty() ? " (" : "; ") + f;
    }
    return s.empty() ? s : s + ")";
  }
};

/// Drive `schedule` over `connections` clients.  Open loop (rate > 0):
/// request i leaves at its due time, or as soon as a connection frees up.
/// Closed loop (rate == 0): back to back until `seconds` pass.  What-ifs
/// are sequenced: what-if k leaves only after what-if k-1 was answered.
PhaseResult drive(const std::string& socket, const Load& L, const std::vector<Req>& schedule,
                  bool open_loop, double seconds, std::size_t connections) {
  PhaseResult res;
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::uint32_t> what_if_done{0};
  std::atomic<bool> stopping{false};
  std::vector<PhaseResult> per(connections);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point stop = t0 + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(seconds));
  const auto us_since = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  auto worker = [&](std::size_t w) {
    PhaseResult& mine = per[w];
    ::prctl(PR_SET_TIMERSLACK, 1UL);  // wake at the due time, not 50 us after
    std::optional<fvc::api::Client> client;
    try {
      client.emplace(socket);
    } catch (const std::exception& e) {
      ++mine.attempted;
      ++mine.failed;
      mine.failures.push_back(std::string("connect: ") + e.what());
      return;
    }
    while (true) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= schedule.size()) {
        break;  // every earlier what-if is claimed, so no turn is left waiting
      }
      if (!open_loop && Clock::now() >= stop) {
        stopping.store(true);  // releases a worker waiting on a what-if turn
        break;
      }
      const Req& r = schedule[i];
      const Clock::time_point claimed = Clock::now();
      const Clock::time_point due =
          open_loop ? t0 + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(r.due_s))
                    : claimed;
      if (due > claimed) {
        // Sleep to just short of the due time, then yield-spin: a timer
        // wake-up alone lands tens of microseconds late on a busy core.
        std::this_thread::sleep_until(due - std::chrono::microseconds(300));
        while (Clock::now() < due) {
          std::this_thread::yield();
        }
      }
      const bool is_what_if = r.op == Op::kAdd || r.op == Op::kRemove;
      Clock::duration turn_wait{0};
      if (is_what_if) {
        const Clock::time_point waiting = Clock::now();
        while (what_if_done.load() != r.what_if && !stopping.load()) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        if (what_if_done.load() != r.what_if) {
          break;  // closed loop ended before this what-if's turn
        }
        turn_wait = Clock::now() - waiting;
      }
      ++mine.attempted;
      std::string failure;
      const Clock::time_point sent = Clock::now();
      std::optional<std::string> raw;
      {
        const Span span(span_name(r.op), kBenchCat, "req", i);
        try {
          raw = client->try_request(body_of(*L.pools, r));
        } catch (const std::exception& e) {
          failure = std::string("request: ") + e.what();
        }
      }
      const Clock::time_point got = Clock::now();
      if (failure.empty()) {
        if (!raw.has_value()) {
          failure = "connection lost";
        } else {
          try {
            failure = verify(L, r, *raw);
          } catch (const std::exception& e) {
            failure = std::string("malformed answer: ") + e.what();
          }
        }
      }
      if (is_what_if) {
        what_if_done.store(r.what_if + 1);
      }
      if (!failure.empty()) {
        ++mine.failed;
        if (mine.failures.size() < 5) {
          mine.failures.push_back(failure);
        }
        if (!raw.has_value()) {
          break;  // the connection is gone
        }
        continue;
      }
      mine.samples.push_back(
          {r.op, us_since(due, got), us_since(sent, got), us_since(due + turn_wait, sent),
           us_since(t0, got) / 1e6});
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < connections; ++w) {
    threads.emplace_back(worker, w);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (PhaseResult& p : per) {
    res.samples.insert(res.samples.end(), p.samples.begin(), p.samples.end());
    res.attempted += p.attempted;
    res.failed += p.failed;
    res.failures.insert(res.failures.end(), p.failures.begin(), p.failures.end());
  }
  return res;
}

/// One `stats` verb answer.
WireObject poll_stats(const std::string& socket) {
  fvc::api::Client c(socket);
  return fvc::api::parse_flat_object(c.request("{\"op\":\"stats\"}"));
}

}  // namespace

ServeOutcome run_serve(const ServeConfig& cfg, Report& report) {
  ServeOutcome out;
  const std::string camera_file = cfg.work_dir + "/serve_cameras.txt";
  const std::string socket = cfg.work_dir + "/serve.sock";
  {
    const Span span("bench.io.save_cameras", kBenchCat);
    fvc::io::save_cameras_file(camera_file, cfg.cameras);
  }

  // Disjoint cores: the daemon gets all but the last allowed CPU, the
  // client process the last one (on a 1-CPU host they share it).
  const std::vector<int> cpus = allowed_cpus();
  const std::vector<int> daemon_cpus(cpus.begin(), cpus.end() - (cpus.size() > 1 ? 1 : 0));
  const std::vector<int> client_cpus = {cpus.back()};
  out.connections = std::max<std::size_t>(1, cpus.size() - 1);

  // Set-up: spawn -> first `info` answer, several times before each load
  // round, so the samples span the run the way the load does; the last
  // daemon of each batch serves the round.
  std::unique_ptr<Daemon> daemon;
  std::optional<WireObject> info;
  const auto spawn = [&]() -> bool {
    if (daemon) {
      report.check(daemon->stop(10.0) == 130, "serve: SIGINT drain exits 130");
    }
    const Span span("bench.serve.spawn", kBenchCat);
    const std::uint64_t t0 = now_ns();
    daemon = std::make_unique<Daemon>(cfg, camera_file, socket, daemon_cpus);
    info = daemon->wait_info(60.0);
    out.setup_s.add(static_cast<double>(now_ns() - t0) / 1e9);
    report.check(info.has_value(), "serve: daemon answers info");
    return info.has_value();
  };
  const auto spawn_round = [&]() -> bool {
    for (std::size_t s = 0; s < std::max<std::size_t>(1, cfg.spawns_per_round); ++s) {
      if (!spawn()) {
        return false;
      }
    }
    return true;
  };
  if (!spawn_round()) {
    return out;
  }

  // The mirror: one in-process Session per reachable state.
  const double theta = fvc::api::get_number(*info, "theta");
  Pools pools;
  fvc::stats::Pcg32 rng = fvc::stats::make_child_rng(cfg.seed, 0x9001);
  for (std::size_t i = 0; i < kPointPool; ++i) {
    pools.px.push_back(fvc::stats::uniform01(rng));
    pools.py.push_back(fvc::stats::uniform01(rng));
    pools.point_body.push_back(point_request(pools.px[i], pools.py[i]));
  }
  for (std::size_t b = 0; b < kBatches; ++b) {
    std::vector<double> xs(kPointPool);
    std::vector<double> ys(kPointPool);
    for (std::size_t i = 0; i < kPointPool; ++i) {
      xs[i] = fvc::stats::uniform01(rng);
      ys[i] = fvc::stats::uniform01(rng);
    }
    pools.batch_body.push_back(fvc::api::points_request(xs, ys));
    pools.bx.push_back(std::move(xs));
    pools.by.push_back(std::move(ys));
  }
  for (const auto& strip : kStrips) {
    pools.strip_body.push_back(region_request(strip[0], strip[1]));
  }
  for (std::size_t k = 0; k < kAddPool; ++k) {
    pools.adds.push_back(random_camera(cfg.cameras, rng));
    pools.add_body.push_back(add_request(pools.adds.back()));
  }
  pools.remove_body = remove_request(cfg.cameras.size());

  std::map<std::string, Expect> mirror;
  Load load;
  load.pools = &pools;
  load.mirror = &mirror;
  load.theta = theta;
  load.cameras = cfg.cameras.size();
  {
    const Span span("bench.serve.mirror", kBenchCat);
    for (std::size_t state = 0; state <= kAddPool; ++state) {
      fvc::api::SessionConfig scfg;
      scfg.cameras = cfg.cameras;
      if (state > 0) {
        scfg.cameras.push_back(pools.adds[state - 1]);
      }
      scfg.theta = theta;
      scfg.grid_side = cfg.grid_side;
      fvc::api::Session s(std::move(scfg));
      Expect e;
      e.cameras = s.camera_count();
      for (std::size_t i = 0; i < kPointPool; ++i) {
        e.points.push_back(s.query_point(pools.px[i], pools.py[i]));
      }
      for (std::size_t b = 0; b < kBatches; ++b) {
        std::vector<fvc::api::PointAnswer> answers(kPointPool);
        s.query_points(pools.bx[b].data(), pools.by[b].data(), kPointPool, answers.data());
        e.batches.push_back(std::move(answers));
      }
      for (const auto& strip : kStrips) {
        e.strips.push_back(s.query_region(strip[0], strip[1]));
      }
      if (state == 0) {
        load.base_digest = s.digest_hex();
      } else {
        load.add_digest.push_back(s.digest_hex());
      }
      mirror.emplace(s.digest_hex(), std::move(e));
    }
  }

  // Load rounds, each against a fresh daemon: a process's memory placement
  // sets its speed for its whole life on a shared host, so the figures are
  // pooled (latencies, throughput windows) or medians over the rounds.
  const auto stat = [](const WireObject& o, const std::string& k) {
    return fvc::api::get_number(o, k);
  };
  // `stats` verb keys feed only per-layer metrics, so a key the daemon no
  // longer reports (the batcher's, once it is gone) reads 0 instead of
  // failing the run.
  const auto stat_or_0 = [](const WireObject& o, const std::string& k) {
    return fvc::api::get_number_or(o, k, 0.0);
  };
  static constexpr const char* kTypes[] = {"point", "batch", "region", "what_if"};
  Samples daemon_p50[4];
  Samples daemon_p99[4];
  Samples coalesced;
  Samples batch_p50;
  Samples hit_ratio;
  Samples rss;
  Samples windows;
  Samples lag_ms;
  const std::size_t rounds = std::max<std::size_t>(1, cfg.rounds);
  for (std::size_t round = 0; round < rounds; ++round) {
    if (round > 0 && !spawn_round()) {
      return out;
    }
    report.check(fvc::api::get_string(*info, "digest") == load.base_digest &&
                     stat(*info, "cameras") == static_cast<double>(cfg.cameras.size()) &&
                     stat(*info, "grid_side") == static_cast<double>(cfg.grid_side),
                 "serve: daemon info agrees with the mirror");
    pin_to(client_cpus);
    {
      const Span span("bench.serve.open_loop", kBenchCat, "rate_qps",
                      static_cast<std::uint64_t>(cfg.rate_qps));
      const WireObject before = poll_stats(socket);
      const double seconds = cfg.open_seconds / static_cast<double>(rounds);
      const std::vector<Req> schedule =
          make_schedule(static_cast<std::size_t>(cfg.rate_qps * seconds), cfg.rate_qps,
                        fvc::stats::mix64(cfg.seed, round));
      const PhaseResult open =
          drive(socket, load, schedule, true, seconds, out.connections);
      const WireObject after = poll_stats(socket);
      report.ops(open.attempted, open.failed, "serve: open-loop requests" + open.detail());
      out.open_requests += open.samples.size();
      for (const Sample& s : open.samples) {
        OpLatency& into = s.op == Op::kPoint    ? out.point
                          : s.op == Op::kPoints ? out.points
                          : s.op == Op::kRegion ? out.region
                                                : out.what_if;
        into.latency_us.add(s.latency_us);
        into.service_us.add(s.service_us);
        lag_ms.add(s.lag_us / 1e3);
      }
      const auto delta = [&](const std::string& k) {
        return stat_or_0(after, k) - stat_or_0(before, k);
      };
      for (std::size_t t = 0; t < 4; ++t) {
        daemon_p50[t].add(stat_or_0(after, std::string(kTypes[t]) + "_p50_us"));
        daemon_p99[t].add(stat_or_0(after, std::string(kTypes[t]) + "_p99_us"));
      }
      const double point_reqs = delta("point_count") + delta("batch_count");
      coalesced.add(point_reqs > 0 ? delta("batched_requests") / point_reqs : 0.0);
      batch_p50.add(stat_or_0(after, "batch_size_p50"));
      const double hits = delta("cache_hits");
      const double misses = delta("cache_misses");
      hit_ratio.add(hits + misses > 0 ? hits / (hits + misses) : 0.0);
    }
    if (cfg.sat_seconds > 0.0) {
      const Span span("bench.serve.closed_loop", kBenchCat);
      const double seconds = cfg.sat_seconds / static_cast<double>(rounds);
      const std::vector<Req> schedule =
          make_schedule(static_cast<std::size_t>(seconds * 20000), 0.0,
                        fvc::stats::mix64(cfg.seed, 0x5A7 + round));
      const PhaseResult sat =
          drive(socket, load, schedule, false, seconds, out.connections);
      report.ops(sat.attempted, sat.failed, "serve: closed-loop requests" + sat.detail());
      // Throughput per half-second window: a burst of foreign load on the
      // host moves a window, not the figure.
      // A window's rate is (answers - 1) over its first-to-last answer span.
      constexpr double kWindowS = 0.5;
      struct Window {
        std::size_t answers = 0;
        double first = 0.0;
        double last = 0.0;
      };
      std::vector<Window> per_window(
          std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kWindowS)));
      for (const Sample& s : sat.samples) {
        const auto w = static_cast<std::size_t>(s.done_s / kWindowS);
        if (w < per_window.size()) {
          Window& win = per_window[w];
          win.first = win.answers == 0 ? s.done_s : std::min(win.first, s.done_s);
          win.last = std::max(win.last, s.done_s);
          ++win.answers;
        }
      }
      for (const Window& win : per_window) {
        if (win.answers > 1 && win.last > win.first) {
          windows.add(static_cast<double>(win.answers - 1) / (win.last - win.first));
        }
      }
      out.sat_requests += sat.samples.size();
    }
    pin_to(cpus);
    rss.add(peak_rss_mb(daemon->pid()));
  }
  report.check(daemon->stop(10.0) == 130, "serve: SIGINT drain exits 130");

  out.generator_lag_p99_ms = lag_ms.quantile(0.99);
  double slowest_us = 0.0;
  for (const OpLatency* op : {&out.point, &out.points, &out.region, &out.what_if}) {
    if (op->service_us.size() > 0) {
      slowest_us = std::max(slowest_us, op->service_us.quantile(0.9));
    }
  }
  out.generator_lag_bound_ms = std::max(kLagFloorMs, kLagHolds * slowest_us / 1e3);
  report.check(out.generator_lag_p99_ms <= out.generator_lag_bound_ms,
               "serve: open-loop generator lag p99 within " +
                   std::to_string(out.generator_lag_bound_ms) + " ms (run invalid otherwise)");
  for (std::size_t t = 0; t < 4; ++t) {
    out.daemon_p50_us[t] = daemon_p50[t].median();
    out.daemon_p99_us[t] = daemon_p99[t].median();
  }
  out.coalesced_ratio = coalesced.median();
  out.batch_size_p50 = batch_p50.median();
  out.cache_hit_ratio = hit_ratio.median();
  out.peak_rss_mb = rss.median();
  out.sat_qps = windows.median();
  return out;
}

void report_serve_layers(const ServeOutcome& out, Report& report) {
  static constexpr const char* kOps[] = {"point", "points", "region", "what_if"};
  const OpLatency* ops[] = {&out.point, &out.points, &out.region, &out.what_if};
  for (std::size_t t = 0; t < 4; ++t) {
    const std::string op = kOps[t];
    report.layer("api.daemon." + op + "_p50_us", "us", out.daemon_p50_us[t],
                 ops[t]->latency_us.size());
    report.layer("api.daemon." + op + "_p99_us", "us", out.daemon_p99_us[t],
                 ops[t]->latency_us.size());
    report.layer("api.transport." + op + "_us", "us",
                 ops[t]->service_us.median() - out.daemon_p50_us[t], ops[t]->service_us.size());
  }
  const std::size_t n = out.open_requests;
  report.layer("api.batch.coalesced_ratio", "ratio", out.coalesced_ratio, n);
  report.layer("api.batch.size_p50", "count", out.batch_size_p50, n);
  report.layer("api.tile_cache.hit_ratio", "ratio", out.cache_hit_ratio, n);
  report.layer("serve.generator_lag_ms", "ms", out.generator_lag_p99_ms, n);
}

}  // namespace fvcbench
