/// Group-commit batching tests: the `points` wire verb, served-vs-
/// in-process bit-identity under concurrent clients, the fixed round
/// budget, drain-mid-batch flushing, and the serve-loop lifecycle fixes
/// (poll_readable error revents, handler-thread reaping, drain past a
/// stalled client).

#include "fvc/api/server.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fvc/api/batch.hpp"
#include "fvc/api/client.hpp"
#include "fvc/api/session.hpp"
#include "fvc/api/socket_io.hpp"
#include "fvc/api/wire.hpp"
#include "fvc/core/full_view.hpp"
#include "fvc/core/network.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/obs/cancellation.hpp"
#include "fvc/obs/serve_stats.hpp"

namespace fvc {
namespace {

/// A heterogeneous hand-placed deployment: lattice positions with
/// per-camera orientation/radius/fov spread, so points land in covered,
/// partially covered, and empty neighbourhoods.
std::vector<core::Camera> lattice_deployment() {
  std::vector<core::Camera> cams;
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      core::Camera c;
      c.position = {0.1 + 0.2 * i, 0.1 + 0.2 * j};
      c.orientation = 0.3 * i + 0.7 * j;
      c.radius = 0.125 + 0.015625 * i;
      c.fov = 1.0 + 0.25 * j;
      c.group = static_cast<std::uint32_t>(j % 3);
      cams.push_back(c);
    }
  }
  return cams;
}

api::SessionConfig lattice_config() {
  api::SessionConfig cfg;
  cfg.cameras = lattice_deployment();
  cfg.theta = geom::kHalfPi;
  cfg.grid_side = 16;
  cfg.threads = 2;
  return cfg;
}

/// The lattice deployment plus one wide camera (index 25, radius 0.5, so
/// its disk reaches every grid row) on a 512^2 grid.  A lock-holding
/// client sends `kClearEveryRow` before each whole-grid `region`: the
/// no-op move of the wide camera clears every row slot without changing
/// any answer, so each region recomputes all 512 rows and holds the
/// session mutex long enough for point waiters to pile up behind it.
api::SessionConfig lock_holder_config() {
  api::SessionConfig cfg = lattice_config();
  cfg.grid_side = 512;
  core::Camera wide;
  wide.position = {0.5, 0.5};
  wide.orientation = 0.25;
  wide.radius = 0.5;
  wide.fov = 1.0;
  cfg.cameras.push_back(wide);
  return cfg;
}

constexpr const char* kClearEveryRow =
    "{\"op\":\"what_if\",\"action\":\"move\",\"index\":25}";
constexpr const char* kWholeGridRegion =
    "{\"op\":\"region\",\"y_lo\":0,\"y_hi\":1}";

/// Query points exercising bin interiors, bin boundaries, and the domain
/// corners — the places an index lookup could disagree with the oracle.
void probe_points(std::vector<double>& xs, std::vector<double>& ys) {
  for (int i = 0; i < 13; ++i) {
    for (int j = 0; j < 13; ++j) {
      xs.push_back(0.03125 + i * 0.078125);
      ys.push_back(0.015625 + j * 0.0791015625);
    }
  }
  const double edges[] = {0.0, 0.5, 1.0};
  for (double x : edges) {
    for (double y : edges) {
      xs.push_back(x);
      ys.push_back(y);
    }
  }
}

std::string unique_socket_path(const char* tag) {
  return "/tmp/fvc_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

api::Client connect_with_retry(const std::string& path) {
  for (int attempt = 0;; ++attempt) {
    try {
      return api::Client(path);
    } catch (const std::exception&) {
      if (attempt > 200) {
        throw;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

/// A live daemon with its own telemetry registry, drained on destruction.
class BatchServeFixture {
 public:
  BatchServeFixture(api::Session& session, const char* tag)
      : path_(unique_socket_path(tag)), thread_([this, &session] {
          report_ = api::serve(session, {path_, 16}, stats_, token_);
        }) {}

  ~BatchServeFixture() { drain(); }

  void drain() {
    if (thread_.joinable()) {
      token_.request_stop();
      thread_.join();
    }
  }

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] obs::ServeStats& stats() { return stats_; }
  [[nodiscard]] const api::ServeReport& report() const { return report_; }

 private:
  std::string path_;
  obs::ServeStats stats_;
  obs::CancellationToken token_;
  api::ServeReport report_;
  std::thread thread_;
};

/// Poll `done` every millisecond for up to `timeout`; returns its last value.
template <typename Pred>
bool wait_for(Pred done, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

std::string point_request(double x, double y) {
  api::JsonObjectWriter w;
  w.add_string("op", "point");
  w.add_number("x", x);
  w.add_number("y", y);
  return w.finish();
}

/// Parse a `points` response into per-point answers (fails the test on
/// ok:false or ragged arrays).
std::vector<api::PointAnswer> parse_points_response(const std::string& body) {
  const api::WireObject obj = api::parse_flat_object(body);
  EXPECT_TRUE(api::get_bool(obj, "ok")) << body;
  const std::vector<double>& covered = api::get_numbers(obj, "covered");
  const std::vector<double>& necessary = api::get_numbers(obj, "necessary");
  const std::vector<double>& sufficient = api::get_numbers(obj, "sufficient");
  const std::vector<double>& max_gap = api::get_numbers(obj, "max_gap");
  const std::vector<double>& count = api::get_numbers(obj, "covering_count");
  const std::size_t n = static_cast<std::size_t>(api::get_number(obj, "count"));
  EXPECT_EQ(covered.size(), n);
  EXPECT_EQ(necessary.size(), n);
  EXPECT_EQ(sufficient.size(), n);
  EXPECT_EQ(max_gap.size(), n);
  EXPECT_EQ(count.size(), n);
  std::vector<api::PointAnswer> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].covered = covered[i] != 0.0;
    out[i].necessary = necessary[i] != 0.0;
    out[i].sufficient = sufficient[i] != 0.0;
    out[i].max_gap = max_gap[i];
    out[i].covering_count = static_cast<std::size_t>(count[i]);
  }
  return out;
}

void expect_same_answer(const api::PointAnswer& got, const api::PointAnswer& want,
                        std::size_t i) {
  EXPECT_EQ(got.covered, want.covered) << "point " << i;
  EXPECT_EQ(got.necessary, want.necessary) << "point " << i;
  EXPECT_EQ(got.sufficient, want.sufficient) << "point " << i;
  EXPECT_EQ(got.max_gap, want.max_gap) << "point " << i;  // bit-identical
  EXPECT_EQ(got.covering_count, want.covering_count) << "point " << i;
}

// --- Session::query_points vs the scalar oracle ----------------------------

/// Both session point paths — batched `query_points` and the one-point
/// `query_point` — must be bit-identical to the scalar oracles, called
/// directly on the same deployment.
TEST(QueryPoints, MatchesScalarOracleUnderEveryIndex) {
  std::vector<double> xs;
  std::vector<double> ys;
  probe_points(xs, ys);
  const api::SessionConfig cfg = lattice_config();
  const core::Network net(cfg.cameras);
  api::Session session(cfg);
  std::vector<api::PointAnswer> bulk(xs.size());
  session.query_points(xs.data(), ys.data(), xs.size(), bulk.data());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const geom::Vec2 p{xs[i], ys[i]};
    const core::FullViewResult fv = core::full_view_covered(net, p, cfg.theta);
    api::PointAnswer oracle;
    oracle.covered = fv.covered;
    oracle.max_gap = fv.max_gap;
    oracle.covering_count = fv.covering_count;
    oracle.necessary = core::meets_necessary_condition(net, p, cfg.theta);
    oracle.sufficient = core::meets_sufficient_condition(net, p, cfg.theta);
    expect_same_answer(bulk[i], oracle, i);
    expect_same_answer(session.query_point(xs[i], ys[i]), oracle, i);
  }
}

// --- The `points` wire verb ------------------------------------------------

TEST(PointsVerb, AnswersMatchPerPointResponses) {
  api::Session session(lattice_config());
  const std::vector<double> xs = {0.1, 0.55, 0.98, 0.0};
  const std::vector<double> ys = {0.1, 0.42, 0.98, 1.0};
  const std::string response =
      api::handle_query(session, api::points_request(xs, ys));
  const std::vector<api::PointAnswer> got = parse_points_response(response);
  ASSERT_EQ(got.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    expect_same_answer(got[i], session.query_point(xs[i], ys[i]), i);
  }
  // The digest matches the session's, like every other answer.
  const api::WireObject obj = api::parse_flat_object(response);
  EXPECT_EQ(api::get_string(obj, "digest"), session.digest_hex());
}

TEST(PointsVerb, EmptyArraysAnswerEmptyArrays) {
  api::Session session(lattice_config());
  const std::string response =
      api::handle_query(session, "{\"op\":\"points\",\"x\":[],\"y\":[]}");
  EXPECT_TRUE(parse_points_response(response).empty());
}

TEST(PointsVerb, RejectsRaggedAndOversizedArrays) {
  api::Session session(lattice_config());
  const std::string ragged =
      api::handle_query(session, "{\"op\":\"points\",\"x\":[0.5],\"y\":[]}");
  EXPECT_EQ(ragged.rfind("{\"ok\":false", 0), 0u) << ragged;
  EXPECT_NE(ragged.find("equal length"), std::string::npos) << ragged;

  const std::vector<double> too_many(api::kMaxPointsPerRequest + 1, 0.5);
  const std::string oversized =
      api::handle_query(session, api::points_request(too_many, too_many));
  EXPECT_EQ(oversized.rfind("{\"ok\":false", 0), 0u) << oversized;
  EXPECT_NE(oversized.find("too many points"), std::string::npos) << oversized;

  const std::string missing =
      api::handle_query(session, "{\"op\":\"points\",\"x\":[0.5]}");
  EXPECT_EQ(missing.rfind("{\"ok\":false", 0), 0u) << missing;
}

/// A full-cap request and its answer both fit the 1 MiB frame.
TEST(PointsVerb, MaxSizeRequestFitsTheFrameBudget) {
  std::vector<double> xs(api::kMaxPointsPerRequest);
  std::vector<double> ys(api::kMaxPointsPerRequest);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    // Full-width %.17g coordinates: the worst case for frame size.
    xs[i] = 1.0 / 3.0 + static_cast<double>(i) * 1e-9;
    ys[i] = 2.0 / 3.0 - static_cast<double>(i) * 1e-9;
  }
  const std::string request = api::points_request(xs, ys);
  EXPECT_LE(request.size(), api::kMaxFrameBytes);
  api::Session session(lattice_config());
  const std::string response = api::handle_query(session, request);
  EXPECT_LE(response.size(), api::kMaxFrameBytes);
  EXPECT_EQ(parse_points_response(response).size(), xs.size());
}

// --- Batched daemon: concurrency, bit-identity, telemetry ------------------

/// N concurrent clients mixing `point`, `points`, and (no-op) `what_if`
/// rounds against the daemon, whose point work always rides the batcher:
/// every answer must equal the one a fresh in-process session computes
/// for the same coordinates.
TEST(BatchServe, ConcurrentAnswersAreBitIdenticalToUnbatched) {
  api::Session session(lattice_config());
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRounds = 24;
  std::vector<std::vector<std::string>> replies(kClients);
  obs::ServeStatsSnapshot snap;
  {
    BatchServeFixture daemon(session, "batch_ident");
    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < kClients; ++c) {
      workers.emplace_back([&, c] {
        api::Client client = connect_with_retry(daemon.path());
        for (std::size_t r = 0; r < kRounds; ++r) {
          const double x = 0.03125 * ((c * 7 + r * 3) % 32);
          const double y = 0.03125 * ((c * 11 + r * 5) % 32);
          if (r % 8 == 7) {
            // A no-op edit (move camera 0 onto itself): exercises the
            // what_if path racing the batcher without changing answers.
            replies[c].push_back(client.request(
                "{\"op\":\"what_if\",\"action\":\"move\",\"index\":0}"));
          } else if (r % 3 == 0) {
            const std::vector<double> xs = {x, 1.0 - x, 0.5};
            const std::vector<double> ys = {y, 1.0 - y, y};
            replies[c].push_back(client.request(api::points_request(xs, ys)));
          } else {
            replies[c].push_back(client.request(point_request(x, y)));
          }
        }
      });
    }
    for (std::thread& t : workers) {
      t.join();
    }
    daemon.drain();
    snap = daemon.stats().snapshot(false);
  }
  // Replay every round against a fresh in-process session.
  api::Session oracle(lattice_config());
  std::uint64_t expected_points = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t r = 0; r < kRounds; ++r) {
      const double x = 0.03125 * ((c * 7 + r * 3) % 32);
      const double y = 0.03125 * ((c * 11 + r * 5) % 32);
      const std::string& reply = replies[c][r];
      if (r % 8 == 7) {
        EXPECT_EQ(reply.rfind("{\"ok\":true", 0), 0u) << reply;
        continue;
      }
      if (r % 3 == 0) {
        expected_points += 3;
        const std::vector<api::PointAnswer> got = parse_points_response(reply);
        const double pxs[] = {x, 1.0 - x, 0.5};
        const double pys[] = {y, 1.0 - y, y};
        ASSERT_EQ(got.size(), 3u);
        for (std::size_t i = 0; i < 3; ++i) {
          expect_same_answer(got[i], oracle.query_point(pxs[i], pys[i]), i);
        }
      } else {
        expected_points += 1;
        const api::WireObject obj = api::parse_flat_object(reply);
        ASSERT_TRUE(api::get_bool(obj, "ok")) << reply;
        const api::PointAnswer want = oracle.query_point(x, y);
        EXPECT_EQ(api::get_bool(obj, "covered"), want.covered);
        EXPECT_EQ(api::get_bool(obj, "necessary"), want.necessary);
        EXPECT_EQ(api::get_bool(obj, "sufficient"), want.sufficient);
        EXPECT_EQ(api::get_number(obj, "max_gap"), want.max_gap);
        EXPECT_EQ(static_cast<std::size_t>(
                      api::get_number(obj, "covering_count")),
                  want.covering_count);
      }
    }
  }
  // Every point/points request went through the batcher: rounds and the
  // per-round point totals are deterministic even when coalescing isn't.
  EXPECT_GT(snap.batch_rounds, 0u);
  EXPECT_EQ(snap.batch_points, expected_points);
}

/// The fixed 256-point round budget still answers everything, bit for
/// bit: arrays bigger than the budget run alone (the head waiter is taken
/// whole), and 100-point arrays split across rounds (three never fit one
/// round) without starving.  A client looping row-clearing moves and
/// whole-grid regions holds the session mutex so waiters pile up behind
/// it; the moves change no answer, so every point still matches a fresh
/// session.
TEST(BatchServe, TinyBatchBudgetStillAnswersEverything) {
  static_assert(api::PointBatcher::kMaxRoundPoints == 256);
  api::Session session(lock_holder_config());
  BatchServeFixture daemon(session, "batch_budget");
  const std::size_t sizes[] = {300, 300, 100, 100, 100};
  constexpr int kRounds = 4;
  std::vector<std::vector<double>> xs(std::size(sizes));
  std::vector<std::vector<double>> ys(std::size(sizes));
  std::vector<std::vector<api::PointAnswer>> want(std::size(sizes));
  api::Session oracle(lock_holder_config());
  std::uint64_t expected_points = 0;
  for (std::size_t c = 0; c < std::size(sizes); ++c) {
    for (std::size_t i = 0; i < sizes[c]; ++i) {
      xs[c].push_back(0.001 * static_cast<double>((i * 37 + c * 101) % 1000));
      ys[c].push_back(0.001 * static_cast<double>((i * 53 + c * 17) % 1000));
    }
    want[c].resize(sizes[c]);
    oracle.query_points(xs[c].data(), ys[c].data(), sizes[c], want[c].data());
    expected_points += kRounds * sizes[c];
  }
  std::atomic<bool> points_done{false};
  std::thread holder([&] {
    api::Client client = connect_with_retry(daemon.path());
    while (!points_done.load()) {
      EXPECT_EQ(client.request(kClearEveryRow).rfind("{\"ok\":true", 0), 0u);
      EXPECT_EQ(client.request(kWholeGridRegion).rfind("{\"ok\":true", 0), 0u);
    }
  });
  std::vector<std::thread> workers;
  std::atomic<int> mismatches{0};
  for (std::size_t c = 0; c < std::size(sizes); ++c) {
    workers.emplace_back([&, c] {
      api::Client client = connect_with_retry(daemon.path());
      for (int r = 0; r < kRounds; ++r) {
        const std::vector<api::PointAnswer> got = parse_points_response(
            client.request(api::points_request(xs[c], ys[c])));
        if (got.size() != sizes[c]) {
          mismatches.fetch_add(1);
          continue;
        }
        for (std::size_t i = 0; i < sizes[c]; ++i) {
          if (got[i].covered != want[c][i].covered ||
              got[i].necessary != want[c][i].necessary ||
              got[i].sufficient != want[c][i].sufficient ||
              got[i].max_gap != want[c][i].max_gap ||
              got[i].covering_count != want[c][i].covering_count) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : workers) {
    t.join();
  }
  points_done.store(true);
  holder.join();
  EXPECT_EQ(mismatches.load(), 0);
  const obs::ServeStatsSnapshot snap = daemon.stats().snapshot(false);
  EXPECT_EQ(snap.batch_points, expected_points);
  // No round ever merged two waiters past the budget: at most one round
  // per request, and at least one per 300-point request (those never share).
  EXPECT_LE(snap.batch_rounds, kRounds * std::size(sizes));
  EXPECT_GE(snap.batch_rounds, 2u * kRounds);
}

/// Draining mid-batch flushes every in-flight waiter with an answer —
/// a client never sees EOF in place of a response it was owed.  A client
/// looping row-clearing moves and whole-grid regions holds the session
/// mutex, so point waiters are queued in the batcher when the drain lands.
TEST(BatchServe, DrainMidBatchFlushesWaitersWithAnswers) {
  api::Session session(lock_holder_config());
  auto daemon = std::make_unique<BatchServeFixture>(session, "batch_drain");
  std::vector<std::thread> workers;
  std::atomic<int> truncated{0};
  std::atomic<bool> stop{false};
  for (int c = 0; c < 5; ++c) {
    workers.emplace_back([&, c] {
      api::Client client = connect_with_retry(daemon->path());
      const std::vector<std::string> bodies =
          c == 0 ? std::vector<std::string>{kClearEveryRow, kWholeGridRegion}
                 : std::vector<std::string>{point_request(0.1 + 0.1 * c, 0.3)};
      for (std::size_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
        std::optional<std::string> reply;
        try {
          reply = client.try_request(bodies[k % bodies.size()]);
        } catch (const std::exception&) {
          break;  // write raced the close: the request never got in
        }
        if (!reply.has_value()) {
          break;  // daemon drained: EOF *between* exchanges is the contract
        }
        if (reply->rfind("{\"ok\":true", 0) != 0) {
          truncated.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  daemon->drain();  // SIGINT equivalent, mid-load
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : workers) {
    t.join();
  }
  EXPECT_EQ(truncated.load(), 0);
}

/// A client that sends half a length prefix and stalls pins its handler
/// in a blocking read.  Drain must not wait for it: the daemon shuts down
/// every client's read side, so the stalled read returns EOF at once,
/// while a `point` queued behind a whole-grid region still gets its
/// answer.
TEST(BatchServe, StalledPartialFrameDoesNotBlockDrain) {
  using std::chrono::milliseconds;
  using Clock = std::chrono::steady_clock;
  api::Session session(lock_holder_config());
  auto daemon = std::make_unique<BatchServeFixture>(session, "batch_stall");
  api::Client stalled = connect_with_retry(daemon->path());
  const unsigned char half_prefix[2] = {0, 0};
  ASSERT_EQ(::send(stalled.fd(), half_prefix, sizeof half_prefix, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof half_prefix));

  api::Client region_client = connect_with_retry(daemon->path());
  api::Client point_client = connect_with_retry(daemon->path());
  obs::ServeStats& stats = daemon->stats();
  const auto in_flight = [&stats] { return stats.snapshot(false).in_flight; };
  std::string region_reply;
  std::string point_reply;
  std::atomic<bool> point_done{false};
  Clock::time_point region_answered;
  // A failed exchange lands in the reply string, so the checks below
  // report it instead of the throw ending the test binary.
  const auto exchange = [](api::Client& client, const std::string& body) {
    try {
      return client.request(body);
    } catch (const std::exception& e) {
      return std::string(e.what());
    }
  };
  std::thread region([&] {
    region_reply = exchange(region_client, kWholeGridRegion);
    region_answered = Clock::now();
  });
  // EXPECT, not ASSERT, from here on: the threads must be joined.
  EXPECT_TRUE(wait_for([&] { return in_flight() >= 1; }, milliseconds(5000)));
  std::thread point([&] {
    point_reply = exchange(point_client, point_request(0.45, 0.55));
    point_done.store(true);
  });
  // Once both are counted in flight (or the point already has its answer),
  // the daemon has read the point: the drain owes it a response.
  EXPECT_TRUE(wait_for([&] { return point_done.load() || in_flight() >= 2; },
                       milliseconds(5000)));

  const Clock::time_point drain_start = Clock::now();
  std::future<void> drained =
      std::async(std::launch::async, [&daemon] { daemon->drain(); });
  const bool finished = drained.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;
  const Clock::time_point drain_end = Clock::now();
  if (!finished) {
    // The wedge this test guards against: hang up so the daemon can exit.
    ::shutdown(stalled.fd(), SHUT_RDWR);
    drained.wait();
  }
  region.join();
  point.join();
  ASSERT_TRUE(finished) << "drain blocked on the stalled client";
  // The drain waits for in-flight work, never for the stalled client: it
  // ends within a poll tick or so of the region's answer.
  const Clock::time_point busy_until = std::max(drain_start, region_answered);
  EXPECT_LT(drain_end - busy_until, milliseconds(1000));
  EXPECT_EQ(point_reply.rfind("{\"ok\":true", 0), 0u) << point_reply;
  EXPECT_EQ(region_reply.rfind("{\"ok\":true", 0), 0u) << region_reply;
  // The stalled connection was dropped, not answered.
  EXPECT_FALSE(api::read_frame(stalled.fd()).has_value());
  EXPECT_EQ(daemon->report().connections, 3u);
}

// --- Lifecycle fixes -------------------------------------------------------

/// poll_readable must report error revents as readable: a handler
/// polling a broken socket has to fall through to read(), see the
/// failure, and exit — not spin on "nothing to read" forever.
TEST(PollReadable, ErrorReventsCountAsReadable) {
  // POLLHUP: peer of a socketpair closed.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_EQ(::close(sv[1]), 0);
  EXPECT_TRUE(api::poll_readable(sv[0], 100));
  ASSERT_EQ(::close(sv[0]), 0);

  // POLLERR: write end of a pipe whose read end is gone.
  int pfd[2];
  ASSERT_EQ(::pipe(pfd), 0);
  ASSERT_EQ(::close(pfd[0]), 0);
  EXPECT_TRUE(api::poll_readable(pfd[1], 100));
  ASSERT_EQ(::close(pfd[1]), 0);

  // POLLNVAL: an fd that is not open at all.
  int dead[2];
  ASSERT_EQ(::pipe(dead), 0);
  ASSERT_EQ(::close(dead[0]), 0);
  ASSERT_EQ(::close(dead[1]), 0);
  EXPECT_TRUE(api::poll_readable(dead[0], 100));

  // And a quiet healthy fd still times out unreadable.
  int quiet[2];
  ASSERT_EQ(::pipe(quiet), 0);
  EXPECT_FALSE(api::poll_readable(quiet[0], 10));
  ASSERT_EQ(::close(quiet[0]), 0);
  ASSERT_EQ(::close(quiet[1]), 0);
}

/// Sequential connections must not accumulate unjoined handler threads:
/// the accept-tick reap keeps the live-thread high-water mark bounded by
/// *concurrency*, not by total connections served.
TEST(BatchServe, SequentialConnectionsKeepThreadCountBounded) {
  api::Session session(lattice_config());
  constexpr std::size_t kConnections = 24;
  api::ServeReport report;
  {
    BatchServeFixture daemon(session, "thread_reap");
    for (std::size_t i = 0; i < kConnections; ++i) {
      api::Client client = connect_with_retry(daemon.path());
      const std::string reply = client.request("{\"op\":\"info\"}");
      ASSERT_EQ(reply.rfind("{\"ok\":true", 0), 0u);
      // Client closes here; give the handler a beat to notice EOF so the
      // next accept tick can reap it.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    daemon.drain();
    report = daemon.report();
  }
  EXPECT_EQ(report.connections, kConnections);
  EXPECT_GE(report.peak_threads, 1u);
  // Strictly-sequential clients with reaping stay far below one thread
  // per connection (generous slack for slow sanitizer schedules).
  EXPECT_LE(report.peak_threads, kConnections / 3);
}

}  // namespace
}  // namespace fvc
