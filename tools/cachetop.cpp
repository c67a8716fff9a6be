// cachetop — a top(1)-style live view of the portal's cache telemetry.
//
// Polls the admin endpoints a running portal_site (or anything using
// PortalSite's handler) exposes:
//
//   /metrics   lifetime + rolling-window counters (Prometheus text)
//   /profiles  per-(service, operation, representation) cost rows,
//              hot keys, cache footprint (JSON)
//   /adaptive  adaptive representation policy state (JSON; optional —
//              older portals without the endpoint just lose the column)
//   /events    recent structured events (JSON)
//
// and redraws a terminal dashboard every --interval seconds.  `--once`
// prints a single frame without clearing the screen (CI smoke mode) and
// exits non-zero if any endpoint is unreachable or malformed.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/stats.hpp"
#include "http/client.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/uri.hpp"

using namespace wsc;

namespace {

struct Args {
  std::string host = "127.0.0.1";
  std::uint16_t port = 8080;
  double interval_s = 2.0;
  bool once = false;
  std::size_t keys = 10;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--url http://host:port] [--host H] [--port P]\n"
               "          [--interval SECONDS] [--keys N] [--once]\n",
               argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  auto next = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--url") == 0) {
      util::Uri uri = util::Uri::parse(next(i));
      args.host = uri.host;
      args.port = uri.effective_port();
    } else if (std::strcmp(argv[i], "--host") == 0) {
      args.host = next(i);
    } else if (std::strcmp(argv[i], "--port") == 0) {
      args.port = static_cast<std::uint16_t>(std::atoi(next(i)));
    } else if (std::strcmp(argv[i], "--interval") == 0) {
      args.interval_s = std::atof(next(i));
    } else if (std::strcmp(argv[i], "--keys") == 0) {
      args.keys = static_cast<std::size_t>(std::atoi(next(i)));
    } else if (std::strcmp(argv[i], "--once") == 0) {
      args.once = true;
    } else {
      usage(argv[0]);
    }
  }
  return args;
}

std::string fetch(http::HttpConnection& conn, const std::string& path) {
  http::Request request;
  request.target = path;
  request.headers.set("Host", conn.host());
  http::Response response = conn.round_trip(request);
  if (response.status != 200)
    throw Error("GET " + path + " -> HTTP " + std::to_string(response.status));
  return response.body;
}

/// Value of the first sample line `<name> <value>` (no labels) in a
/// Prometheus text exposition; 0 when absent.
double prom_value(const std::string& text, std::string_view name) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string_view line(text.data() + pos, eol - pos);
    if (line.size() > name.size() + 1 && line.substr(0, name.size()) == name &&
        line[name.size()] == ' ')
      return std::strtod(line.data() + name.size() + 1, nullptr);
    pos = eol + 1;
  }
  return 0;
}

/// Lifetime value of one cache counter, its family named by its
/// kCacheFields row (a counter without a row does not compile).
double cache_counter(const std::string& prom, cache::CacheStats::Counter c) {
  return prom_value(prom, obs::family_name(cache::kCacheMetricPrefix,
                                           cache::kCacheFields[c.row]));
}

std::string human_bytes(double bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB"};
  int u = 0;
  while (bytes >= 1024 && u < 3) {
    bytes /= 1024;
    ++u;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%s", bytes, units[u]);
  return buf;
}

/// The adaptive candidate entry for (operation, representation), if the
/// policy tracks it.
const util::json::Value* adaptive_candidate(const util::json::Value& adaptive,
                                            const std::string& operation,
                                            const std::string& representation) {
  const util::json::Value* ops = adaptive.find("operations");
  if (!ops) return nullptr;
  for (const util::json::Value& op : ops->array) {
    if (op.string_or("operation") != operation) continue;
    if (const util::json::Value* cands = op.find("candidates"))
      for (const util::json::Value& c : cands->array)
        if (c.string_or("representation") == representation) return &c;
    return nullptr;
  }
  return nullptr;
}

/// The operation's current serving representation per the policy ("" when
/// unmanaged).
std::string adaptive_current(const util::json::Value& adaptive,
                             const std::string& operation) {
  if (const util::json::Value* ops = adaptive.find("operations"))
    for (const util::json::Value& op : ops->array)
      if (op.string_or("operation") == operation)
        return op.string_or("representation");
  return "";
}

void draw_frame(const Args& args, const std::string& prom,
                const util::json::Value& profiles,
                const util::json::Value& adaptive,
                const util::json::Value& events) {
  using cache::StatsSnapshot;
  const double hits = cache_counter(prom, &StatsSnapshot::hits);
  const double misses = cache_counter(prom, &StatsSnapshot::misses);
  // The cache counters are collector samples (no windowed twin in the
  // exposition); the rolling view comes from the profile rows instead.
  double hits_w = 0, misses_w = 0;
  if (const util::json::Value* rows = profiles.find("rows")) {
    for (const util::json::Value& row : rows->array) {
      hits_w += row.number_or("window_hits");
      misses_w += row.number_or("window_misses");
    }
  }
  const double lookups = hits + misses;
  const double lookups_w = hits_w + misses_w;

  std::printf("cachetop — %s:%u\n", args.host.c_str(), args.port);
  std::printf(
      "lifetime: %.0f lookups, %.1f%% hit | last %s: %.0f lookups, %.1f%% "
      "hit\n",
      lookups, lookups ? 100.0 * hits / lookups : 0.0,
      profiles.string_or("window", "60s").c_str(), lookups_w,
      lookups_w ? 100.0 * hits_w / lookups_w : 0.0);
  std::printf(
      "stores %.0f  evictions %.0f  stale serves %.0f  retries %.0f  "
      "breaker opens %.0f\n",
      cache_counter(prom, &StatsSnapshot::stores),
      cache_counter(prom, &StatsSnapshot::evictions),
      cache_counter(prom, &StatsSnapshot::stale_serves),
      cache_counter(prom, &StatsSnapshot::transport_retries),
      cache_counter(prom, &StatsSnapshot::breaker_opens));
  std::printf(
      "anti-herd: coalesced waits %.0f (%.0f failed)  swr serves %.0f  "
      "refresh-ahead %.0f\n",
      cache_counter(prom, &StatsSnapshot::coalesced_waits),
      cache_counter(prom, &StatsSnapshot::coalesced_failures),
      cache_counter(prom, &StatsSnapshot::stale_while_revalidate_served),
      cache_counter(prom, &StatsSnapshot::refresh_ahead_triggered));
  if (const util::json::Value* cache = profiles.find("cache"))
    std::printf("footprint: %.0f entries, %s\n", cache->number_or("entries"),
                human_bytes(cache->number_or("bytes")).c_str());
  if (adaptive.find("operations")) {
    const util::json::Value* pressure = adaptive.find("memory_pressure");
    std::printf(
        "adaptive: objective %s  decisions %.0f  switches %.0f  probes %.0f  "
        "pressure %s\n",
        adaptive.string_or("objective", "?").c_str(),
        adaptive.number_or("decisions"), adaptive.number_or("switches"),
        adaptive.number_or("explore_stores"),
        pressure && pressure->boolean ? "ON" : "off");
  }

  // `*` marks the operation's current serving representation per the
  // adaptive policy; "score" is that candidate's objective score (blank
  // until the policy has enough samples).
  std::printf("\n%-28s %-16s %8s %8s %7s %10s %10s %10s %10s\n", "operation",
              "representation", "hits", "misses", "hit%", "hit p99",
              "deser p99", "bytes/ent", "score");
  if (const util::json::Value* rows = profiles.find("rows")) {
    for (const util::json::Value& row : rows->array) {
      const std::string operation = row.string_or("operation");
      const std::string rep = row.string_or("representation");
      const std::string op = row.string_or("service") + "." + operation;
      const util::json::Value* hit = row.find("hit");
      const util::json::Value* deser = row.find("deserialize");
      const bool serving = adaptive_current(adaptive, operation) == rep;
      const util::json::Value* cand =
          adaptive_candidate(adaptive, operation, rep);
      const double score = cand ? cand->number_or("score", -1) : -1;
      char score_buf[24] = "";
      if (score >= 0) std::snprintf(score_buf, sizeof score_buf, "%.3g", score);
      std::printf(
          "%-28s %-14s%s %8.0f %8.0f %6.1f%% %9.1fus %9.1fus %10.0f %10s\n",
          op.c_str(), rep.c_str(), serving ? " *" : "  ",
          row.number_or("hits"), row.number_or("misses"),
          100.0 * row.number_or("hit_ratio"),
          (hit ? hit->number_or("p99_ns") : 0) / 1e3,
          (deser ? deser->number_or("p99_ns") : 0) / 1e3,
          row.number_or("bytes_per_entry"), score_buf);
    }
  }

  if (const util::json::Value* hot = profiles.find("hot_keys")) {
    std::printf("\nhot keys (count±error):\n");
    std::size_t shown = 0;
    for (const util::json::Value& key : hot->array) {
      if (shown++ >= args.keys) break;
      std::string material = key.string_or("key");
      if (material.size() > 60) material = material.substr(0, 57) + "...";
      std::printf("  %8.0f ±%-6.0f %s\n", key.number_or("count"),
                  key.number_or("error"), material.c_str());
    }
    if (shown == 0) std::printf("  (tracking off or no traffic yet)\n");
  }

  if (const util::json::Value* list = events.find("events")) {
    std::printf("\nrecent events (%.0f dropped):\n",
                events.number_or("dropped"));
    // Newest last in the snapshot; show the tail.
    std::size_t begin =
        list->array.size() > 8 ? list->array.size() - 8 : 0;
    for (std::size_t i = begin; i < list->array.size(); ++i) {
      const util::json::Value& e = list->array[i];
      std::printf("  %6.1fs ago  %-14s %-18s %s\n",
                  e.number_or("age_ms") / 1e3, e.string_or("kind").c_str(),
                  e.string_or("scope").c_str(), e.string_or("detail").c_str());
    }
    if (list->array.empty()) std::printf("  (none)\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  http::SocketOptions socket_options;
  socket_options.connect_timeout = std::chrono::seconds(5);
  socket_options.read_timeout = std::chrono::seconds(5);
  socket_options.write_timeout = std::chrono::seconds(5);
  http::HttpConnection conn(args.host, args.port, socket_options);

  for (;;) {
    std::string prom;
    util::json::Value profiles, adaptive, events;
    try {
      prom = fetch(conn, "/metrics");
      profiles = util::json::parse(fetch(conn, "/profiles"));
      events = util::json::parse(fetch(conn, "/events"));
      // Optional endpoint: a portal predating the adaptive policy still
      // renders everything else.
      try {
        adaptive = util::json::parse(fetch(conn, "/adaptive"));
      } catch (const std::exception&) {
        adaptive = util::json::Value{};
      }
    } catch (const std::exception& error) {
      std::fprintf(stderr, "cachetop: %s\n", error.what());
      if (args.once) return 1;
      std::this_thread::sleep_for(
          std::chrono::duration<double>(args.interval_s));
      continue;
    }
    if (!args.once) std::printf("\x1b[2J\x1b[H");  // clear + home
    draw_frame(args, prom, profiles, adaptive, events);
    std::fflush(stdout);
    if (args.once) return 0;
    std::this_thread::sleep_for(std::chrono::duration<double>(args.interval_s));
  }
}
