// perfbench_driver: the benchmark's in-process half. It links the Gamma
// libraries and calls only their public functions, timing each call from
// here (nothing under src/ is instrumented for the benchmark).
//
//   perfbench_driver render STORE SPECS.json OUTDIR REPEAT_MS
//       Render every query spec in-process (store::Query / store::reports),
//       write OUTDIR/spec-<i>.json with the exact bytes `gamma store query`
//       prints, then re-run the specs round-robin for REPEAT_MS and report
//       per-run open/scan/render times.
//   perfbench_driver replay CONFIG.json
//       Replay the per-country chain of run_study (GammaSession::step,
//       scrub, Atlas repair, CountryAnalyzer::analyze) and the outputs of
//       one CLI path: store::Writer and the --out dataset JSON (legacy), or
//       ShardWriter and merge_shards (shard). Per-call timers, optionally
//       with util::trace on; reports per-layer numbers.
//   perfbench_driver load CONFIG.json
//       Open-loop read generator on two connections plus back-to-back
//       submit_study on a third, against a running `gamma serve`; one
//       thread for the reads, one for the submits.
//   perfbench_driver capacity CONFIG.json
//       Closed-loop capacity of the same read mix on one connection.
//
// Every subcommand prints one JSON document on stdout.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/dataset.h"
#include "analysis/report_json.h"
#include "core/recorder.h"
#include "core/session.h"
#include "geoloc/pipeline.h"
#include "probe/traceroute.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "store/query.h"
#include "store/reader.h"
#include "store/reports.h"
#include "store/shard.h"
#include "store/writer.h"
#include "trackers/identify.h"
#include "util/io.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/trace.h"
#include "world/country.h"
#include "worldgen/world.h"

namespace {

using namespace gam;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0, Clock::time_point t1 = Clock::now()) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

util::Json load_json(const std::string& path) {
  auto doc = util::Json::parse(read_file(path));
  if (!doc) {
    std::fprintf(stderr, "perfbench_driver: cannot parse %s\n", path.c_str());
    std::exit(2);
  }
  return std::move(*doc);
}

util::Json numbers(const std::vector<double>& v) {
  util::Json a = util::Json::array();
  for (double x : v) a.push_back(x);
  return a;
}

// ---------------------------------------------------------------- render --

struct RenderTimes {
  double scan_ms = 0, render_ms = 0;
  size_t rows_scanned = 0, rows_returned = 0;
  bool table = false;
};

// One spec, exactly as `gamma store query` renders it: doc.dump(2) + "\n".
// Specs use the serve wire shape ({"report": R} or table/where/group_by/
// flows/limit), the same object the load generator sends.
std::optional<std::string> run_spec(const store::Reader& r, const util::Json& spec,
                                    RenderTimes* t) {
  auto t0 = Clock::now();
  util::Json doc;
  std::string report = spec.get_string("report");
  if (!report.empty()) {
    if (report == "summary") doc = store::summary_json(r);
    else if (report == "prevalence") doc = analysis::to_json(store::prevalence_report(r));
    else if (report == "policy") doc = analysis::to_json(store::policy_report(r));
    else if (report == "per-site") doc = analysis::to_json(store::per_site_report(r));
    else if (report == "flows") doc = analysis::to_json(store::flows_report(r));
    else if (report == "coverage") doc = store::coverage_json(r);
    else if (report == "funnel") doc = store::funnel_json(r);
    else return std::nullopt;
  } else {
    store::QuerySpec q;
    auto table = store::table_from_name(spec.get_string("table", "hits"));
    if (!table) return std::nullopt;
    q.table = *table;
    if (const util::Json* where = spec.find("where")) {
      for (const util::Json& p : where->items()) {
        q.where.emplace_back(p.at(0).as_string(), p.at(1).as_string());
      }
    }
    q.group_by = spec.get_string("group_by");
    q.flows = spec.get_bool("flows");
    q.limit = static_cast<size_t>(spec.get_number("limit"));
    store::Error error;
    auto result = store::Query(r).run(q, &error);
    if (!result) return std::nullopt;
    doc = std::move(*result);
    t->table = true;
    t->rows_scanned = q.table == store::TableId::Hits    ? r.num_hits()
                      : q.table == store::TableId::Sites ? r.num_sites()
                                                         : r.num_countries();
    if (const util::Json* res = doc.find("result")) t->rows_returned = res->size();
  }
  auto t1 = Clock::now();
  std::string bytes = doc.dump(2) + "\n";
  t->scan_ms = ms_since(t0, t1);
  t->render_ms = ms_since(t1);
  return bytes;
}

int cmd_render(const std::string& store_path, const std::string& specs_path,
               const std::string& out_dir, double repeat_ms) {
  util::Json specs = load_json(specs_path);
  store::Error error;
  auto reader = store::Reader::open(store_path, &error);
  if (!reader) {
    std::fprintf(stderr, "render: %s\n", error.to_string().c_str());
    return 1;
  }
  std::filesystem::create_directories(out_dir);
  util::Json doc = util::Json::object();
  util::Json rows = util::Json::array();
  for (size_t i = 0; i < specs.size(); ++i) {
    RenderTimes t;
    auto bytes = run_spec(*reader, specs.at(i), &t);
    if (!bytes) {
      std::fprintf(stderr, "render: spec %zu failed\n", i);
      return 1;
    }
    std::ofstream(out_dir + "/spec-" + std::to_string(i) + ".json", std::ios::binary)
        << *bytes;
    util::Json row = util::Json::object();
    row["table"] = t.table;
    row["rows_scanned"] = t.rows_scanned;
    row["rows_returned"] = t.rows_returned;
    rows.push_back(std::move(row));
  }
  doc["specs"] = std::move(rows);
  // Timed pass: scan + render per sample over the open reader, specs
  // round-robin; then Reader::open (map + validate) timed on its own.
  std::vector<double> spec_idx, open_ms, scan_ms, render_ms;
  auto start = Clock::now();
  for (size_t n = 0; ms_since(start) < repeat_ms; ++n) {
    size_t i = n % specs.size();
    RenderTimes t;
    if (!run_spec(*reader, specs.at(i), &t)) return 1;
    spec_idx.push_back(static_cast<double>(i));
    scan_ms.push_back(t.scan_ms);
    render_ms.push_back(t.render_ms);
  }
  for (int n = 0; repeat_ms > 0 && n < 20; ++n) {
    auto t0 = Clock::now();
    if (!store::Reader::open(store_path, &error)) return 1;
    open_ms.push_back(ms_since(t0));
  }
  doc["spec"] = numbers(spec_idx);
  doc["open_ms"] = numbers(open_ms);
  doc["scan_ms"] = numbers(scan_ms);
  doc["render_ms"] = numbers(render_ms);
  std::printf("%s\n", doc.dump().c_str());
  return 0;
}

// ---------------------------------------------------------------- replay --

// Self time per trace category from util::trace's own spans: a span's
// duration minus its direct children's (children nest on one thread).
std::map<std::string, double> self_ms_by_category(const std::vector<util::trace::Span>& spans) {
  std::map<uint64_t, uint64_t> child_us;
  for (const auto& s : spans) {
    if (s.parent != 0) child_us[s.parent] += s.wall_dur_us;
  }
  std::map<std::string, double> out;
  for (const auto& s : spans) {
    uint64_t kids = child_us.count(s.id) ? child_us[s.id] : 0;
    double self = kids >= s.wall_dur_us ? 0.0 : static_cast<double>(s.wall_dur_us - kids);
    out[s.category] += self / 1000.0;
  }
  return out;
}

struct CountryTimes {
  double busy_ms = 0, session_ms = 0, repair_ms = 0, analyze_ms = 0, shard_write_ms = 0;
  size_t repaired = 0;
  std::vector<double> site_ms;
};

// run_study's per-country chain up to the analysis: session, webdriver
// scrub, Atlas repair, CountryAnalyzer::analyze.
struct CountryChain {
  const worldgen::World& world;
  const core::GammaEnv& env;
  const core::GammaConfig& config;
  const analysis::CountryAnalyzer& analyzer;
  uint64_t seed;

  void run(const std::string& code, CountryTimes& ct, core::VolunteerDataset& dataset,
           analysis::CountryAnalysis& analysis) const {
    auto c0 = Clock::now();
    const core::VolunteerProfile& profile = world.volunteer(code);
    core::GammaSession session(env, profile, world.targets.at(code), config,
                               util::Rng::substream(seed, "session-" + code).next());
    for (;;) {
      auto s0 = Clock::now();
      if (!session.step()) break;
      ct.site_ms.push_back(ms_since(s0));
    }
    dataset = session.take_dataset();
    ct.session_ms = ms_since(c0);
    core::scrub_webdriver_noise(dataset);
    if (profile.traceroute_opt_out || profile.traceroute_blocked_prob > 0.5) {
      auto r0 = Clock::now();
      util::Rng repair_rng = util::Rng::substream(seed, "repair-" + code);
      probe::TracerouteOptions opts = config.traceroute;
      ct.repaired =
          core::augment_with_atlas_traceroutes(dataset, env, world.atlas, opts, repair_rng);
      ct.repair_ms = ms_since(r0);
    }
    auto a0 = Clock::now();
    util::Rng analyze_rng = util::Rng::substream(seed, "analyze-" + code);
    analysis = analyzer.analyze(dataset, analyze_rng);
    ct.analyze_ms = ms_since(a0);
  }
};

// Writes each dataset as `gamma study --out` does; returns the bytes written.
size_t write_datasets(const std::string& out_dir,
                      const std::vector<core::VolunteerDataset>& datasets, bool* failed) {
  size_t bytes = 0;
  for (const auto& ds : datasets) {
    std::string json = core::dataset_to_json(ds).dump(2);
    bytes += json.size();
    if (!util::io::atomic_write_file(out_dir + "/dataset-" + ds.country + ".json", json).ok()) {
      *failed = true;
    }
  }
  return bytes;
}

// Replays the CLI path of one workload:
//   "legacy" (`gamma study --out DIR --store-out F`): the stage keeps every
//     dataset and analysis; then anonymize, store::Writer, and the --out
//     dataset JSON, serially, as run_study and the CLI do.
//   "shard" (`gamma study --shard-dir D --store-out F`): each country's
//     stage ends with its ShardWriter publish and keeps nothing; then
//     merge_shards.
// A country's busy time ends where run_study's per-country work ends.
// The one layer the path never runs is probed afterwards, outside the
// replay's counters and wall time: the legacy path merges the CLI's shards
// of the same study (`probe_shards`), and the shard path serializes its
// first country's dataset.
int cmd_replay(const std::string& config_path) {
  util::Json cfg = load_json(config_path);
  const uint64_t seed = static_cast<uint64_t>(cfg.get_number("seed", 7));
  const size_t jobs = static_cast<size_t>(cfg.get_number("jobs", 4));
  const bool traced = cfg.get_bool("trace");
  const bool shard = cfg.get_string("path") == "shard";
  const std::string out_dir = cfg.get_string("out_dir");
  const std::string shard_dir = cfg.get_string("shard_dir");
  std::filesystem::create_directories(out_dir);
  if (shard) std::filesystem::create_directories(shard_dir);

  util::trace::Tracer::instance().reset();
  util::trace::set_enabled(traced);
  util::MetricsSnapshot before = util::MetricsRegistry::instance().snapshot();
  auto replay_start = Clock::now();

  worldgen::WorldConfig wcfg;
  wcfg.scale_countries = static_cast<size_t>(cfg.get_number("countries"));
  wcfg.scale_sites = static_cast<size_t>(cfg.get_number("sites"));
  auto t0 = Clock::now();
  auto world = worldgen::generate_world(wcfg);
  double generate_ms = ms_since(t0);

  // The same shared substrate run_study builds.
  std::vector<std::string> countries =
      world->vantage_countries.empty() ? world::source_countries() : world->vantage_countries;
  core::GammaEnv env = world->env();
  core::GammaConfig config = core::GammaConfig::study_defaults();
  probe::TracerouteEngine engine(world->topology, *world->resolver);
  geoloc::MultiConstraintGeolocator geolocator(world->geodb, world->reference, world->atlas,
                                               engine);
  trackers::TrackerIdentifier identifier;
  analysis::CountryAnalyzer analyzer(geolocator, identifier, world->universe);
  const CountryChain chain{*world, env, config, analyzer, seed};
  store::ShardWriter shard_writer(shard_dir,
                                  {seed, countries.size(), world->targets_before_optout});

  const size_t n = countries.size();
  std::vector<core::VolunteerDataset> datasets(shard ? 0 : n);
  std::vector<analysis::CountryAnalysis> analyses(shard ? 0 : n);
  std::vector<std::string> shard_paths(n);
  std::vector<CountryTimes> times(n);
  core::VolunteerDataset probe_dataset;  // shard path: country 0, for the JSON probe
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  auto worker = [&] {
    for (size_t i; (i = next.fetch_add(1)) < n;) {
      CountryTimes& ct = times[i];
      auto c0 = Clock::now();
      if (!shard) {
        chain.run(countries[i], ct, datasets[i], analyses[i]);
        ct.busy_ms = ms_since(c0);
        continue;
      }
      core::VolunteerDataset dataset;
      analysis::CountryAnalysis analysis;
      chain.run(countries[i], ct, dataset, analysis);
      auto w0 = Clock::now();
      store::ShardWriteResult sw = shard_writer.write(i, analysis, ct.repaired, false);
      ct.shard_write_ms = ms_since(w0);
      ct.busy_ms = ms_since(c0);
      if (!sw.ok()) failed = true;
      shard_paths[i] = sw.path;
      if (i == 0) probe_dataset = std::move(dataset);
    }
  };
  auto stage0 = Clock::now();
  std::vector<std::thread> pool;
  for (size_t j = 0; j < jobs; ++j) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  double stage_ms = ms_since(stage0);

  size_t repaired = 0;
  for (const auto& ct : times) repaired += ct.repaired;
  double write_ms = 0, merge_ms = 0, json_ms = 0;
  size_t json_bytes = 0;
  if (shard) {
    for (const auto& ct : times) write_ms += ct.shard_write_ms;
    auto m0 = Clock::now();
    if (!store::merge_shards(cfg.get_string("store"), shard_paths).ok()) failed = true;
    merge_ms = ms_since(m0);
  } else {
    for (auto& ds : datasets) core::anonymize(ds);
    store::StudyMeta meta;
    meta.seed = seed;
    meta.targets_before_optout = world->targets_before_optout;
    meta.atlas_repaired_traces = repaired;
    auto w0 = Clock::now();
    if (!store::Writer(meta).write(cfg.get_string("store"), analyses).ok()) failed = true;
    write_ms = ms_since(w0);
    bool json_failed = false;
    auto j0 = Clock::now();
    json_bytes = write_datasets(out_dir, datasets, &json_failed);
    json_ms = ms_since(j0);
    if (json_failed) failed = true;
  }
  double replay_ms = ms_since(replay_start);

  util::trace::set_enabled(false);
  util::MetricsSnapshot after = util::MetricsRegistry::instance().snapshot();

  // The probes of the layer this path does not run.
  if (shard) {
    bool json_failed = false;
    core::anonymize(probe_dataset);
    auto j0 = Clock::now();
    json_bytes = write_datasets(out_dir, {probe_dataset}, &json_failed);
    json_ms = ms_since(j0);
    if (json_failed) failed = true;
  } else {
    std::vector<std::string> shards;
    for (const util::Json& p : cfg.find("probe_shards")->items()) shards.push_back(p.as_string());
    auto m0 = Clock::now();
    if (!store::merge_shards(cfg.get_string("probe_merged"), shards).ok()) failed = true;
    merge_ms = ms_since(m0);
  }

  auto count = [&](const std::string& name) -> double {
    auto a = after.counters.find(name);
    auto b = before.counters.find(name);
    return static_cast<double>((a == after.counters.end() ? 0 : a->second) -
                               (b == before.counters.end() ? 0 : b->second));
  };
  auto hist_sum = [&](const std::string& name) -> double {
    auto a = after.histograms.find(name);
    auto b = before.histograms.find(name);
    return (a == after.histograms.end() ? 0.0 : a->second.sum) -
           (b == before.histograms.end() ? 0.0 : b->second.sum);
  };

  std::vector<double> site_ms;
  double busy = 0, country_max = 0, session_ms = 0, repair_ms = 0, analyze_ms = 0;
  for (const auto& ct : times) {
    site_ms.insert(site_ms.end(), ct.site_ms.begin(), ct.site_ms.end());
    busy += ct.busy_ms;
    country_max = std::max(country_max, ct.busy_ms);
    session_ms += ct.session_ms;
    repair_ms += ct.repair_ms;
    analyze_ms += ct.analyze_ms;
  }

  util::Json doc = util::Json::object();
  doc["replay_ms"] = replay_ms;
  doc["worldgen.generate_ms"] = generate_ms;
  doc["core.site_ms"] = numbers(site_ms);
  doc["core.sites"] = site_ms.size();
  doc["core.session_ms"] = session_ms;
  doc["core.atlas_repair_ms"] = repair_ms;
  doc["core.atlas_repaired"] = repaired;
  doc["core.country_ms_max"] = country_max;
  doc["core.parallel_efficiency"] = busy / (static_cast<double>(jobs) * stage_ms);
  doc["analysis.analyze_ms"] = analyze_ms;
  doc["store.write_ms"] = write_ms;
  doc["store.merge_ms"] = merge_ms;
  doc["store.bytes_written"] = count("store.bytes_written");
  doc["io.fsync_ms"] = hist_sum("io.fsync_ms");
  doc["out.json_ms"] = json_ms;
  doc["out.json_bytes"] = json_bytes;
  util::Json counters = util::Json::object();
  for (const char* name :
       {"web.page_loads", "web.page_load_failures", "web.requests", "dns.lookups",
        "dns.reverse_lookups", "net.route_cache.hits", "net.route_cache.misses",
        "probe.traceroutes", "probe.traceroutes_reached", "geoloc.classified",
        "geoloc.dest_traceroutes", "trackers.match_calls", "trackers.pattern_backtracks"}) {
    counters[name] = count(name);
  }
  doc["counters"] = std::move(counters);
  if (traced) {
    util::Json self = util::Json::object();
    for (const auto& [category, ms] :
         self_ms_by_category(util::trace::Tracer::instance().collect())) {
      self[category] = ms;
    }
    doc["self_ms"] = std::move(self);
    doc["dropped_spans"] =
        static_cast<size_t>(util::trace::Tracer::instance().dropped_spans());
  }
  std::printf("%s\n", doc.dump().c_str());
  return failed ? 1 : 0;
}

// ------------------------------------------------------------------ load --

// Non-blocking reply reader for an open-loop connection: pump() does one
// recv(2) into the decoder, buffered() returns a reply already received in
// full (chunked replies reassembled). `broken` is set on a framing error, a
// transport error or EOF.
struct ReplyReader {
  int fd = -1;
  serve::FrameDecoder decoder;
  std::map<double, std::string> partial;
  bool broken = false;

  std::optional<util::Json> buffered() {
    util::Json frame;
    for (;;) {
      serve::FrameDecoder::Result r = decoder.next(&frame);
      if (r == serve::FrameDecoder::Result::NeedMore) return std::nullopt;
      if (r != serve::FrameDecoder::Result::Frame) break;
      if (!frame.has("chunk")) return frame;
      double id = frame.get_number("id");
      partial[id] += frame.get_string("data");
      if (!frame.get_bool("last")) continue;
      auto result = util::Json::parse(partial[id]);
      partial.erase(id);
      if (!result) break;
      util::Json whole = util::Json::object();
      whole["id"] = id;
      whole["ok"] = true;
      whole["result"] = std::move(*result);
      return whole;
    }
    broken = true;
    return std::nullopt;
  }

  void pump() {
    char buf[65536];
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      broken = true;
      return;
    }
    decoder.feed(buf, static_cast<size_t>(n));
  }
};

std::unique_ptr<serve::Client> connect(int port) {
  auto client = serve::Client::connect_tcp("127.0.0.1", static_cast<uint16_t>(port));
  if (!client.ok()) return nullptr;
  // Several reads can be in flight on one connection; do not let Nagle
  // hold one back behind another's ACK.
  int one = 1;
  ::setsockopt((*client)->fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::move(*client);
}

// The read mix: each request, and the bytes its reply's result must dump
// to (empty for a ping, whose reply carries the session id).
struct ReadMix {
  std::vector<util::Json> requests;
  std::vector<std::string> expected;
  std::vector<double> weights;

  explicit ReadMix(const util::Json& cfg) {
    for (const util::Json& r : cfg.find("reads")->items()) requests.push_back(r);
    for (const util::Json& p : cfg.find("expected")->items()) {
      expected.push_back(read_file(p.as_string()));
    }
    for (const util::Json& w : cfg.find("weights")->items()) weights.push_back(w.as_number());
  }

  bool correct(size_t kind, const util::Json& reply) const {
    const util::Json* result = reply.find("result");
    if (!result) return false;
    return expected[kind].empty() ? result->get_bool("pong")
                                  : result->dump(2) + "\n" == expected[kind];
  }
};

std::string error_code(const util::Json& reply) {
  const util::Json* err = reply.find("error");
  return err ? err->get_string("code") : "error";
}

struct ReadStats {
  size_t attempted = 0, failed = 0;
  std::vector<double> latency_ms, late_ms, rtt_ms;
  std::map<std::string, size_t> errors;
};

struct ReadConn {
  std::unique_ptr<serve::Client> client;
  ReplyReader reader;
  std::vector<double> due_ms;
  std::vector<size_t> kinds;
  std::vector<Clock::time_point> sent;
  size_t sent_count = 0, answered = 0;
};

Clock::time_point due_at(Clock::time_point start, double due_ms) {
  return start + std::chrono::microseconds(static_cast<long long>(due_ms * 1000));
}

// The open-loop read generator, on one thread: it sends each read when it
// is due whatever the replies do, and between sends it drains and checks
// replies, timing each from when its request was due. Reads not answered
// within 10 s of the last send count as transport failures.
void run_reads(ReadConn (&conns)[2], const std::vector<std::pair<double, int>>& schedule,
               const ReadMix& mix, Clock::time_point start, ReadStats& stats) {
  auto on_reply = [&](ReadConn& conn, const util::Json& reply, Clock::time_point now) {
    size_t i = static_cast<size_t>(reply.get_number("id", -1));
    if (i >= conn.sent_count) {
      conn.reader.broken = true;
      return;
    }
    ++conn.answered;
    ++stats.attempted;
    if (!reply.get_bool("ok")) {
      ++stats.failed;
      stats.errors[error_code(reply)]++;
      return;
    }
    if (!mix.correct(conn.kinds[i], reply)) {
      ++stats.failed;
      stats.errors["mismatch"]++;
      return;
    }
    stats.latency_ms.push_back(ms_since(due_at(start, conn.due_ms[i]), now));
    stats.rtt_ms.push_back(ms_since(conn.sent[i], now));
  };
  auto open = [](const ReadConn& c) {
    return !c.reader.broken && c.answered < c.due_ms.size();
  };

  size_t k = 0;
  Clock::time_point give_up = Clock::time_point::max();
  while (open(conns[0]) || open(conns[1])) {
    for (; k < schedule.size() && due_at(start, schedule[k].first) <= Clock::now(); ++k) {
      ReadConn& conn = conns[schedule[k].second];
      if (conn.reader.broken) continue;
      size_t i = conn.sent_count++;
      util::Json req = mix.requests[conn.kinds[i]];
      req["id"] = i;
      conn.sent[i] = Clock::now();
      stats.late_ms.push_back(ms_since(due_at(start, schedule[k].first), conn.sent[i]));
      if (!conn.client->send_request(std::move(req)).ok()) conn.reader.broken = true;
    }
    if (k == schedule.size() && give_up == Clock::time_point::max()) {
      give_up = Clock::now() + std::chrono::seconds(10);
    }
    auto now = Clock::now();
    if (now >= give_up) break;
    auto wake = k < schedule.size() ? due_at(start, schedule[k].first) : give_up;
    auto wait_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::max(wake - now, Clock::duration::zero()))
                       .count();
    timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                static_cast<long>(wait_ns % 1000000000)};
    pollfd fds[2];
    for (int c = 0; c < 2; ++c) fds[c] = {open(conns[c]) ? conns[c].reader.fd : -1, POLLIN, 0};
    if (::ppoll(fds, 2, &ts, nullptr) <= 0) continue;
    for (int c = 0; c < 2; ++c) {
      if (fds[c].fd < 0 || fds[c].revents == 0) continue;
      ReadConn& conn = conns[c];
      conn.reader.pump();
      now = Clock::now();
      while (auto reply = conn.reader.buffered()) on_reply(conn, *reply, now);
    }
  }
  for (ReadConn& conn : conns) {
    size_t lost = conn.due_ms.size() - conn.answered;
    stats.attempted += lost;
    stats.failed += lost;
    if (lost) stats.errors[conn.client ? "transport" : "connect"] += lost;
  }
}

util::Json error_counts(const std::map<std::string, size_t>& errors) {
  util::Json doc = util::Json::object();
  for (const auto& [code, n] : errors) doc[code] = n;
  return doc;
}

int cmd_load(const std::string& config_path) {
  util::Json cfg = load_json(config_path);
  const int port = static_cast<int>(cfg.get_number("port"));
  const double seconds = cfg.get_number("seconds", 10);
  const double rate = cfg.get_number("rate");  // reads/s over both connections
  const ReadMix mix(cfg);

  // The schedule is a pure function of the seed: Poisson arrivals per
  // connection at rate/2, each request's kind drawn by weight.
  std::mt19937_64 rng(static_cast<uint64_t>(cfg.get_number("seed")));
  std::exponential_distribution<double> gap(rate / 2.0 / 1000.0);
  std::discrete_distribution<size_t> pick(mix.weights.begin(), mix.weights.end());
  ReadConn conns[2];
  std::vector<std::pair<double, int>> schedule;  // (due ms, connection), merged
  for (int c = 0; c < 2; ++c) {
    for (double t = gap(rng); t < seconds * 1000.0; t += gap(rng)) {
      conns[c].due_ms.push_back(t);
      conns[c].kinds.push_back(pick(rng));
      schedule.emplace_back(t, c);
    }
    conns[c].sent.resize(conns[c].due_ms.size());
    conns[c].client = connect(port);
    conns[c].reader.fd = conns[c].client ? conns[c].client->fd() : -1;
    conns[c].reader.broken = !conns[c].client;
  }
  std::sort(schedule.begin(), schedule.end());

  ReadStats reads;
  size_t submits_attempted = 0, submits_failed = 0;
  std::vector<double> submit_s;
  std::map<std::string, size_t> submit_errors;
  const std::string submit_ref = read_file(cfg.get_string("submit_ref"));
  const std::string submit_dir = cfg.get_string("submit_dir");

  auto start = Clock::now() + std::chrono::milliseconds(20);
  // Reads run on their own thread; this one sends the submits back to back.
  std::thread reader(run_reads, std::ref(conns), std::cref(schedule), std::cref(mix), start,
                     std::ref(reads));
  if (auto submitter = connect(port)) {
    submitter->set_recv_timeout_ms(60000);
    std::this_thread::sleep_until(start);
    for (size_t n = 0; ms_since(start) < seconds * 1000.0; ++n) {
      std::string out = submit_dir + "/submit-" + std::to_string(n % 2) + ".gmst";
      util::Json req = *cfg.find("submit");
      req["store_out"] = out;
      ++submits_attempted;
      auto t0 = Clock::now();
      auto reply = submitter->call_raw(std::move(req));
      double rtt = ms_since(t0) / 1000.0;
      if (!reply.ok()) {
        ++submits_failed;
        submit_errors["transport"]++;
        break;
      }
      if (!reply->get_bool("ok")) {
        ++submits_failed;
        submit_errors[error_code(*reply)]++;
      } else if (read_file(out) != submit_ref) {
        ++submits_failed;
        submit_errors["mismatch"]++;
      } else {
        submit_s.push_back(rtt);
      }
    }
  } else {
    ++submits_attempted;
    ++submits_failed;
    submit_errors["connect"]++;
  }
  reader.join();

  util::Json doc = util::Json::object();
  util::Json r = util::Json::object();
  r["attempted"] = reads.attempted;
  r["failed"] = reads.failed;
  r["latency_ms"] = numbers(reads.latency_ms);
  r["late_ms"] = numbers(reads.late_ms);
  r["rtt_ms"] = numbers(reads.rtt_ms);
  r["errors"] = error_counts(reads.errors);
  doc["reads"] = std::move(r);
  util::Json s = util::Json::object();
  s["attempted"] = submits_attempted;
  s["failed"] = submits_failed;
  s["seconds"] = numbers(submit_s);
  s["errors"] = error_counts(submit_errors);
  doc["submits"] = std::move(s);
  std::printf("%s\n", doc.dump().c_str());
  return 0;
}

// Closed-loop capacity of the read mix: one connection, one read in
// flight, kinds drawn by weight, for `seconds`. Reports reads per second;
// any failed or wrong read makes the run fail.
int cmd_capacity(const std::string& config_path) {
  util::Json cfg = load_json(config_path);
  const ReadMix mix(cfg);
  const double seconds = cfg.get_number("seconds", 5);
  std::mt19937_64 rng(static_cast<uint64_t>(cfg.get_number("seed")));
  std::discrete_distribution<size_t> pick(mix.weights.begin(), mix.weights.end());
  auto client = connect(static_cast<int>(cfg.get_number("port")));
  if (!client) return 1;
  client->set_recv_timeout_ms(10000);
  size_t done = 0;
  auto start = Clock::now();
  while (ms_since(start) < seconds * 1000.0) {
    size_t kind = pick(rng);
    auto reply = client->call_raw(mix.requests[kind]);
    if (!reply.ok() || !reply->get_bool("ok") || !mix.correct(kind, *reply)) return 1;
    ++done;
  }
  util::Json doc = util::Json::object();
  doc["reads"] = done;
  doc["reads_per_s"] = static_cast<double>(done) / (ms_since(start) / 1000.0);
  std::printf("%s\n", doc.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "render" && argc == 6) {
    return cmd_render(argv[2], argv[3], argv[4], std::atof(argv[5]));
  }
  if (cmd == "replay" && argc == 3) return cmd_replay(argv[2]);
  if (cmd == "load" && argc == 3) return cmd_load(argv[2]);
  if (cmd == "capacity" && argc == 3) return cmd_capacity(argv[2]);
  std::fprintf(stderr,
               "usage: perfbench_driver render STORE SPECS.json OUTDIR REPEAT_MS\n"
               "       perfbench_driver replay CONFIG.json\n"
               "       perfbench_driver load CONFIG.json\n"
               "       perfbench_driver capacity CONFIG.json\n");
  return 2;
}
