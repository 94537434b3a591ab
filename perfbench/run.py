#!/usr/bin/env python3
"""Gamma benchmark: builds the program from source, drives the shipped
`gamma` binary and the library's public calls from outside, checks every
output, and prints one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. Workloads and metrics are
declared in BENCHMARK.json; perfbench/README.md explains them.
"""
import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
GAMMA_BUILD = os.path.join(BUILD, "gamma")
DRIVER_BUILD = os.path.join(BUILD, "driver")
GAMMA = os.path.join(GAMMA_BUILD, "tools", "gamma")
DRIVER = os.path.join(DRIVER_BUILD, "perfbench_driver")

# serve-mix runs and is self-tested, but BENCHMARK.json leaves it out: its
# read latency depends on the host state earlier work leaves (README.md).
WORKLOADS = ("paper-study", "scale-study", "store-query", "serve-mix")
# Scale world of scale-study and store-query; --small shrinks it for the
# self-test only.
SCALE = {"countries": 64, "sites": 16000}
SMALL_SCALE = {"countries": 8, "sites": 1600}
STUDY_JOBS = 4
# serve-mix reads per second over both read connections: a tenth of the
# read mix's closed-loop capacity on one connection (`perfbench_driver
# capacity`: 10.5k-13k/s on 4 vCPU), so reads seldom queue behind each
# other and the latency is dispatch, handling, flushing and the concurrent
# submit_study. The three read kinds the workload names weigh the same.
READ_RATE = 1000.0
READ_WEIGHTS = [1, 1, 1]   # prevalence report, where+limit, ping
QUERY_PASS_MS = 6000.0   # in-process query pass on the study workloads
QUERY_SLICES = 5         # store-query: p99 is the median over this many slices
REPORTS = ["summary", "prevalence", "policy", "per-site", "flows", "coverage", "funnel"]
# `gamma store query --report policy` aborts on a synthetic-country store
# ("world: unknown country code: V00", exit 134), so the scale-world mixes
# leave it out until that is fixed; the paper-world mixes keep it.
SCALE_REPORTS = [r for r in REPORTS if r != "policy"]


class BenchError(Exception):
    """The benchmark itself cannot run (build, environment)."""


# ------------------------------------------------------------------ build --

def run_quiet(cmd, log):
    with open(log, "ab") as out:
        rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT)
    if rc != 0:
        with open(log, "rb") as f:
            tail = f.read()[-4000:].decode("utf-8", "replace")
        raise BenchError("command failed (%d): %s\n%s" % (rc, " ".join(cmd), tail))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no Gamma source tree in %s" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    jobs = str(len(os.sched_getaffinity(0)))
    run_quiet(["cmake", "-S", ROOT, "-B", GAMMA_BUILD, "-DCMAKE_BUILD_TYPE=Release",
               "-DGAMMA_SANITIZE=", "-DGAMMA_BUILD_TESTS=OFF", "-DGAMMA_BUILD_BENCH=OFF",
               "-DGAMMA_BUILD_EXAMPLES=OFF"], log)
    run_quiet(["cmake", "--build", GAMMA_BUILD, "-j", jobs, "--target", "gamma"], log)
    run_quiet(["cmake", "-S", BENCH, "-B", DRIVER_BUILD, "-DCMAKE_BUILD_TYPE=Release",
               "-DGAMMA_SOURCE_DIR=" + ROOT, "-DGAMMA_BUILD_DIR=" + GAMMA_BUILD], log)
    run_quiet(["cmake", "--build", DRIVER_BUILD, "-j", jobs], log)
    return provenance(os.path.join(GAMMA_BUILD, "CMakeCache.txt"))


def cmake_cache(path):
    entries = {}
    with open(path) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, _, value = line.rstrip("\n").partition("=")
                entries[key.split(":")[0]] = value
    return entries


def provenance(cache_path):
    """Build facts recorded with every result. A sanitizer build measures
    the sanitizer, so it is refused."""
    cache = cmake_cache(cache_path)
    if cache.get("GAMMA_SANITIZE", ""):
        raise BenchError("refusing to report from a GAMMA_SANITIZE=%s build"
                         % cache["GAMMA_SANITIZE"])
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type != "Release":
        raise BenchError("expected a Release build, found '%s'" % build_type)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    flags = " ".join(x for x in (cache.get("CMAKE_CXX_FLAGS", ""),
                                 cache.get("CMAKE_CXX_FLAGS_RELEASE", "")) if x)
    rev = "none"
    if os.path.exists(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True).stdout.strip() or "none"
    return {"git_revision": rev, "source_sha256": source_digest(),
            "nproc": len(os.sched_getaffinity(0)), "compiler": version,
            "build_type": build_type, "cxx_flags": flags, "sanitize": ""}


def source_digest():
    """Content hash of the built sources, for checkouts without git."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(dirpath, f) for f in files]
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


# ---------------------------------------------------------------- helpers --

def median(xs):
    return statistics.median(xs)


def pct(xs, q):
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def timed(cmd, stdout_path=os.devnull):
    """Run one process with stdout to a file; return (rc, wall seconds,
    peak RSS MiB). posix_spawn keeps the launcher's own cost and jitter
    out of the short query processes' times."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                0o644),
               (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


def latency(lat_ms):
    """query_p50_ms / query_p99_ms from per-operation latencies."""
    lat_ms = lat_ms or [0.0]
    return {"query_p50_ms": median(lat_ms), "query_p99_ms": pct(lat_ms, 0.99)}


def same_bytes(a, b):
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


def dir_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def flip_byte(path):
    with open(path, "r+b") as f:
        data = bytearray(f.read())
        data[len(data) // 2] ^= 0x01
        f.seek(0)
        f.write(data)


def driver(*args):
    out = subprocess.run([DRIVER] + [str(a) for a in args], capture_output=True, text=True)
    if out.returncode != 0 and not out.stdout.strip():
        raise BenchError("perfbench_driver %s failed: %s" % (args[0], out.stderr[-2000:]))
    return out.returncode, json.loads(out.stdout.strip().splitlines()[-1])


class Tally:
    """Operations attempted and failed; a wrong output is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def op(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


# ------------------------------------------------------------------ specs --

def query_specs(countries, rng):
    """The store-query mix: the paper reports, group-by org, flows, a where
    select with limit, and a where on a value that occurs nowhere. The
    select's country comes from the seed."""
    reports = SCALE_REPORTS if countries[0].startswith("V") else REPORTS
    specs = [{"report": r} for r in reports]
    specs.append({"table": "hits", "group_by": "org"})
    specs.append({"table": "hits", "flows": True})
    specs.append({"table": "hits", "where": [["source_country", rng.choice(countries)]],
                  "limit": 25})
    specs.append({"table": "hits", "where": [["org", "no-such-org-%d" % rng.randrange(10**6)]]})
    return specs


def spec_name(spec):
    if "report" in spec:
        return spec["report"]
    if spec.get("group_by"):
        return "group_by_" + spec["group_by"]
    if spec.get("flows"):
        return "flows_matrix"
    return "where_limit" if spec.get("limit") else "where_nomatch"


def spec_flags(spec):
    if "report" in spec:
        return ["--report", spec["report"]]
    flags = ["--table", spec.get("table", "hits")]
    for col, val in spec.get("where", []):
        flags += ["--where", "%s=%s" % (col, val)]
    if spec.get("group_by"):
        flags += ["--group-by", spec["group_by"]]
    if spec.get("flows"):
        flags.append("--flows")
    if spec.get("limit"):
        flags += ["--limit", str(spec["limit"])]
    return flags


def scale_countries(scale):
    digits = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    return ["V" + digits[i // 36] + digits[i % 36] for i in range(scale["countries"])]


# The paper's 23 measurement countries (the paper world's vantage set).
PAPER_COUNTRIES = ["AE", "AR", "AU", "AZ", "CA", "DZ", "EG", "GB", "IN", "JO", "JP", "LB",
                   "LK", "NZ", "PK", "QA", "RU", "RW", "SA", "TH", "TW", "UG", "US"]


# ----------------------------------------------------------------- studies --

def study_cmd(seed, jobs, store_out, out_dir=None, scale=None, shard_dir=None):
    cmd = [GAMMA, "study", "--seed", str(seed), "--jobs", str(jobs), "--store-out", store_out]
    if scale:
        cmd += ["--countries", str(scale["countries"]), "--sites", str(scale["sites"])]
    if shard_dir:
        cmd += ["--shard-dir", shard_dir]
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--out", out_dir]
    return cmd


def study_workload(ctx, scale):
    """paper-study (scale None) and scale-study: repeated `gamma study`
    processes, every store checked against a --jobs 1 reference."""
    work, seed, tally = ctx["work"], ctx["seed"], ctx["tally"]
    refs, setup = [], []
    for k in range(2):
        ref = os.path.join(work, "ref-%d.gmst" % k)
        shard_dir = os.path.join(work, "ref-shards-%d" % k) if scale else None
        rc, wall, _ = timed(study_cmd(seed, 1, ref, scale=scale, shard_dir=shard_dir))
        tally.op(rc == 0, "reference study rc=%d" % rc)
        refs.append(ref)
        setup.append(wall)
    ref = refs[0]
    for other in refs[1:]:
        tally.op(same_bytes(ref, other), "reference stores differ across runs")

    walls, rss = [], []
    out_digest = None
    t_end = time.perf_counter() + ctx["seconds"]
    i = 0
    while time.perf_counter() < t_end or (not walls and i < 3):
        store = os.path.join(work, "study.gmst")
        if scale:
            shard_dir = os.path.join(work, "shards")
            shutil.rmtree(shard_dir, ignore_errors=True)
            cmd = study_cmd(seed, STUDY_JOBS, store, scale=scale, shard_dir=shard_dir)
        else:
            cmd = study_cmd(seed, STUDY_JOBS, store, out_dir=os.path.join(work, "out"))
        rc, wall, peak = timed(cmd)
        ok = rc == 0 and same_bytes(store, ref)
        if ok and not scale:
            digest = dir_digest(os.path.join(work, "out"))
            out_digest = out_digest or digest
            ok = digest == out_digest
        if tally.op(ok, "study %d: rc=%d or bytes differ from the --jobs 1 store" % (i, rc)):
            walls.append(wall)
            rss.append(peak)
        i += 1
    lat = query_pass(ctx, ref)
    return dict(latency(lat), setup_s=median(setup), study_s=median(walls or [0.0]),
                peak_rss_mib=max(rss or [0.0]))


def query_pass(ctx, store):
    """In-process query latency over the study's store, for the study
    workloads. One sample is one pass of the whole query mix (scan +
    render of every spec): single specs range from 0.03 to 10 ms, so a
    per-spec median would jump between those clusters from run to run, and
    a short `gamma store query` process is dominated by start-up jitter."""
    work = ctx["work"]
    countries = scale_countries(ctx["scale"]) if ctx["workload"] == "scale-study" \
        else PAPER_COUNTRIES
    specs = query_specs(countries, random.Random(ctx["seed"]))
    specs_path = os.path.join(work, "pass-specs.json")
    with open(specs_path, "w") as f:
        json.dump(specs, f)
    rc, doc = driver("render", store, specs_path, os.path.join(work, "pass"), QUERY_PASS_MS)
    ctx["tally"].op(rc == 0, "in-process query pass failed")
    per_spec = [s + r for s, r in zip(doc["scan_ms"], doc["render_ms"])]
    n = len(specs)
    return [sum(per_spec[i:i + n]) for i in range(0, len(per_spec) - n + 1, n)]


# ------------------------------------------------------------- store-query --

def store_query_workload(ctx):
    work, seed, tally, scale = ctx["work"], ctx["seed"], ctx["tally"], ctx["scale"]
    fixtures, builds = [], []
    for k in range(2):
        fixture = os.path.join(work, "fixture-%d.gmst" % k)
        rc, wall, _ = timed(study_cmd(seed, STUDY_JOBS, fixture, scale=scale,
                                      shard_dir=os.path.join(work, "fixture-shards-%d" % k)))
        tally.op(rc == 0, "fixture build rc=%d" % rc)
        fixtures.append(fixture)
        builds.append(wall)
    fixture = fixtures[0]
    tally.op(same_bytes(fixture, fixtures[1]), "fixture builds differ")

    rng = random.Random(seed)
    lat, rss = cli_queries(ctx, fixture, query_specs(scale_countries(scale), rng),
                           ctx["seconds"], rng)
    # The p99 is taken per slice of consecutive queries and the median slice
    # reported: a burst of host contention in one slice then cannot set it,
    # while a slower query shows in every slice.
    lat = lat or [0.0]
    k = max(1, len(lat) // QUERY_SLICES)
    slices = [lat[i:i + k] for i in range(0, len(lat) - k + 1, k)]
    return dict(query_p50_ms=median(lat), query_p99_ms=median([pct(s, 0.99) for s in slices]),
                setup_s=median(builds), study_s=median(builds), peak_rss_mib=max(rss or [0.0]))


def cli_queries(ctx, store, specs, seconds, rng):
    """One `gamma store query` process at a time over `store` for `seconds`,
    each spec once per round in seed-shuffled order. Every reply must equal
    the in-process store::Query / store::reports rendering of its spec.
    Returns the latencies (ms) and peak RSS (MiB) of the correct ones."""
    work, tally = ctx["work"], ctx["tally"]
    specs_path = os.path.join(work, "specs.json")
    with open(specs_path, "w") as f:
        json.dump(specs, f)
    expected_dir = os.path.join(work, "expected")
    rc, _ = driver("render", store, specs_path, expected_dir, 0)
    tally.op(rc == 0, "in-process rendering failed")
    expected = []
    for i in range(len(specs)):
        with open(os.path.join(expected_dir, "spec-%d.json" % i), "rb") as f:
            expected.append(f.read())
    if ctx["inject"] == "flip-store":
        flip_byte(store)

    lat, rss, order = [], [], []
    out_path = os.path.join(work, "query.out")
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or (not lat and tally.failed < 20):
        if not order:
            order = list(range(len(specs)))
            rng.shuffle(order)
        i = order.pop()
        rc, wall, peak = timed([GAMMA, "store", "query", store] + spec_flags(specs[i]),
                               out_path)
        with open(out_path, "rb") as f:
            ok = rc == 0 and f.read() == expected[i]
        if tally.op(ok, "query %s: rc=%d or bytes differ" % (spec_name(specs[i]), rc)):
            lat.append(wall * 1000.0)
            rss.append(peak)
    return lat, rss


# --------------------------------------------------------------- serve-mix --

class Daemon:
    """`gamma serve` as a child process on an ephemeral port."""

    def __init__(self, work, store, name):
        self.port_file = os.path.join(work, name + ".port")
        self.log = open(os.path.join(work, name + ".log"), "wb")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [GAMMA, "serve", "--store", store, "--port", "0", "--port-file", self.port_file],
            stdout=self.log, stderr=subprocess.STDOUT)
        self.port = None
        self.rss_mib = 0.0

    def wait_ready(self, timeout=30.0):
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            try:
                with open(self.port_file) as f:
                    self.port = int(f.read().strip())
                return call(self.port, {"kind": "ping"}).get("ok", False)
            except (OSError, ValueError):
                time.sleep(0.005)
        return False

    def stop(self):
        """SIGTERM (graceful drain), then reap and keep the peak RSS."""
        if self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.perf_counter() + 30.0
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.proc.kill()
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mib = usage.ru_maxrss / 1024.0
        self.log.close()

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


def call(port, request, timeout=120.0):
    """One request/reply over the wire protocol (u32 LE length + JSON)."""
    request = dict(request, id=1)
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        payload = json.dumps(request).encode()
        s.sendall(struct.pack("<I", len(payload)) + payload)
        buf = b""
        while True:
            while len(buf) < 4 or len(buf) < 4 + struct.unpack("<I", buf[:4])[0]:
                chunk = s.recv(65536)
                if not chunk:
                    raise OSError("connection closed")
                buf += chunk
            n = struct.unpack("<I", buf[:4])[0]
            frame, buf = json.loads(buf[4:4 + n]), buf[4 + n:]
            if "chunk" not in frame:
                return frame
            raise OSError("unexpected chunked reply")


def serve_reads(store, countries, seed, work, tally):
    """The served read mix and the CLI bytes each reply must equal."""
    rng = random.Random(seed)
    reads = [{"kind": "query", "report": "prevalence"},
             {"kind": "query", "table": "hits",
              "where": [["source_country", rng.choice(countries)]], "limit": 25},
             {"kind": "ping"}]
    expected = []
    for i, req in enumerate(reads[:2]):
        path = os.path.join(work, "served-ref-%d.json" % i)
        spec = {k: v for k, v in req.items() if k != "kind"}
        rc, _, _ = timed([GAMMA, "store", "query", store] + spec_flags(spec), path)
        tally.op(rc == 0, "reference query rc=%d" % rc)
        expected.append(path)
    expected.append(os.path.join(work, "ping.ref"))
    open(expected[-1], "wb").close()   # ping replies carry the session id
    return reads, expected


def run_load(port, seconds, seed, reads, expected, ref_store, work):
    cfg = {"port": port, "seconds": seconds, "seed": seed, "rate": READ_RATE,
           "reads": reads, "weights": READ_WEIGHTS, "expected": expected,
           "submit": {"kind": "submit_study", "seed": seed, "jobs": 1},
           "submit_ref": ref_store, "submit_dir": work}
    path = os.path.join(work, "load.json")
    with open(path, "w") as f:
        json.dump(cfg, f)
    _, doc = driver("load", path)
    return doc


def serve_setup(work, store, seed, tally, name):
    """Daemon start to first reply, plus the warm-up submit_study that
    lazily builds the daemon's world. Returns (daemon, seconds)."""
    d = Daemon(work, store, name)
    ok = tally.op(d.wait_ready(), "daemon did not answer ping")
    if ok:
        out = os.path.join(work, name + "-warmup.gmst")
        reply = call(d.port, {"kind": "submit_study", "seed": seed, "jobs": 1,
                              "store_out": out})
        tally.op(reply.get("ok", False) and same_bytes(out, store),
                 "warm-up submit_study differs from the CLI store")
    return d, time.perf_counter() - d.t0


def serve_mix_workload(ctx):
    work, seed, tally = ctx["work"], ctx["seed"], ctx["tally"]
    store = os.path.join(work, "paper.gmst")
    rc, _, _ = timed(study_cmd(seed, 1, store))
    tally.op(rc == 0, "CLI reference study rc=%d" % rc)
    reads, expected = serve_reads(store, PAPER_COUNTRIES, seed, work, tally)
    if ctx["inject"] == "wrong-served":
        flip_byte(expected[0])
    setup, daemon = [], None
    try:
        for k in range(2):
            if daemon:
                daemon.stop()
            daemon, secs = serve_setup(work, store, seed, tally, "daemon-%d" % k)
            ctx["daemons"].append(daemon)
            setup.append(secs)
        doc = run_load(daemon.port, ctx["seconds"], seed, reads, expected, store, work)
    finally:
        if daemon:
            daemon.stop()
    r, s = doc["reads"], doc["submits"]
    tally.attempted += r["attempted"] + s["attempted"]
    tally.failed += r["failed"] + s["failed"]
    if r["failed"] or s["failed"]:
        tally.notes.append("serve errors: reads %s submits %s" % (r["errors"], s["errors"]))
    return dict(latency(r["latency_ms"]), setup_s=median(setup),
                study_s=median(s["seconds"] or [0.0]), peak_rss_mib=daemon.rss_mib)


def stats(port):
    reply = call(port, {"kind": "stats"})
    return reply.get("result", {}).get("json", {})


# ------------------------------------------------------------------ traced --

def traced_run(ctx):
    """Per-layer numbers for one workload: the study replay on the
    workload's CLI path (a warm-up, then with util::trace on and off), the
    query pass, and a served round-trip phase."""
    work, seed, tally = ctx["work"], ctx["seed"], ctx["tally"]
    scale = ctx["scale"] if ctx["workload"] in ("scale-study", "store-query") else None
    m = {}

    # The CLI study the replay must reproduce byte for byte, on the
    # workload's own path: legacy (--out, paper world) or shard (scale).
    cli_store = os.path.join(work, "cli.gmst")
    cli_out = os.path.join(work, "cli-out")
    cli_shards = os.path.join(work, "cli-shards")
    if scale:
        cmd = study_cmd(seed, STUDY_JOBS, cli_store, scale=scale, shard_dir=cli_shards)
    else:
        cmd = study_cmd(seed, STUDY_JOBS, cli_store, out_dir=cli_out)
    rc, _, _ = timed(cmd)
    tally.op(rc == 0, "CLI study rc=%d" % rc)
    probe = {}
    if not scale:
        # The legacy path never merges; store.merge_ms is measured on the
        # shards the shard path writes for the same study.
        rc, _, _ = timed(study_cmd(seed, STUDY_JOBS, os.path.join(work, "cli-sharded.gmst"),
                                   shard_dir=cli_shards))
        tally.op(rc == 0, "CLI sharded study rc=%d" % rc)
        probe = {"probe_shards": sorted(os.path.join(cli_shards, n)
                                        for n in os.listdir(cli_shards)),
                 "probe_merged": os.path.join(work, "probe-merged.gmst")}

    # The first replay warms the host (page cache, allocator) and is not
    # timed; trace.overhead_ratio compares the two after it.
    replays = {}
    for tag, traced in (("warmup", False), ("traced", True), ("plain", False)):
        cfg = dict(probe, seed=seed, jobs=STUDY_JOBS, trace=traced,
                   path="shard" if scale else "legacy",
                   out_dir=os.path.join(work, tag + "-out"),
                   shard_dir=os.path.join(work, tag + "-shards"),
                   store=os.path.join(work, tag + ".gmst"))
        if scale:
            cfg.update(scale)
        path = os.path.join(work, tag + ".json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        rc, doc = driver("replay", path)
        ok = rc == 0 and same_bytes(cfg["store"], cli_store)
        if scale:
            ok = ok and sorted(os.listdir(cfg["shard_dir"])) == sorted(os.listdir(cli_shards)) \
                and all(same_bytes(os.path.join(cfg["shard_dir"], n), os.path.join(cli_shards, n))
                        for n in os.listdir(cli_shards))
        else:
            ok = ok and same_bytes(probe["probe_merged"], cli_store) and \
                all(same_bytes(os.path.join(cfg["out_dir"], n), os.path.join(cli_out, n))
                    for n in os.listdir(cli_out) if n.startswith("dataset-")) and \
                len(os.listdir(cfg["out_dir"])) == len(PAPER_COUNTRIES)
        tally.op(ok, "%s replay differs from the CLI study" % tag)
        replays[tag] = doc
    # Self times are only whole if util::trace kept every span.
    tally.op(replays["traced"]["dropped_spans"] == 0, "util::trace dropped spans")
    t = replays["traced"]
    sites = t["core.site_ms"] or [0.0]
    c = t["counters"]
    m.update({
        "worldgen.generate_ms": t["worldgen.generate_ms"],
        "core.site_ms_p50": median(sites), "core.site_ms_p99": pct(sites, 0.99),
        "core.sites": t["core.sites"], "core.session_ms": t["core.session_ms"],
        "core.atlas_repair_ms": t["core.atlas_repair_ms"],
        "core.atlas_repaired": t["core.atlas_repaired"],
        "core.country_ms_max": t["core.country_ms_max"],
        "core.parallel_efficiency": t["core.parallel_efficiency"],
        "analysis.analyze_ms": t["analysis.analyze_ms"],
        "web.page_loads": c["web.page_loads"], "web.requests": c["web.requests"],
        "web.load_success_ratio":
            (c["web.page_loads"] - c["web.page_load_failures"]) / max(1, c["web.page_loads"]),
        "dns.lookups": c["dns.lookups"], "dns.reverse_lookups": c["dns.reverse_lookups"],
        "net.route_cache_hit_ratio": c["net.route_cache.hits"] /
            max(1, c["net.route_cache.hits"] + c["net.route_cache.misses"]),
        "probe.traceroutes": c["probe.traceroutes"],
        "probe.reached_ratio": c["probe.traceroutes_reached"] / max(1, c["probe.traceroutes"]),
        "geoloc.classified": c["geoloc.classified"],
        "geoloc.dest_traceroutes": c["geoloc.dest_traceroutes"],
        "trackers.match_calls": c["trackers.match_calls"],
        "trackers.pattern_backtracks": c["trackers.pattern_backtracks"],
        "store.write_ms": t["store.write_ms"], "store.merge_ms": t["store.merge_ms"],
        "store.bytes_written": t["store.bytes_written"], "io.fsync_ms": t["io.fsync_ms"],
        "out.json_ms": t["out.json_ms"], "out.json_bytes": t["out.json_bytes"],
        "trace.overhead_ratio": t["replay_ms"] / replays["plain"]["replay_ms"],
    })
    for layer in ("web", "dns", "probe", "geoloc", "trackers"):
        m[layer + ".self_ms"] = t["self_ms"].get(layer, 0.0)

    # Store layer and CLI layer: the query mix over the CLI's store.
    countries = scale_countries(scale) if scale else PAPER_COUNTRIES
    specs = query_specs(countries, random.Random(seed))
    specs_path = os.path.join(work, "specs.json")
    with open(specs_path, "w") as f:
        json.dump(specs, f)
    rc, q = driver("render", cli_store, specs_path, os.path.join(work, "expected"), 1000.0)
    tally.op(rc == 0, "in-process query pass failed")
    m["store.open_ms"] = median(q["open_ms"])
    m["store.render_ms"] = median(q["render_ms"])
    scanned = sum(s["rows_scanned"] for s in q["specs"] if s["table"])
    returned = sum(s["rows_returned"] for s in q["specs"] if s["table"])
    m["store.rows_per_result"] = scanned / max(1, returned)
    overhead = []
    for i, spec in enumerate(specs):
        inproc = median(q["open_ms"]) + median(
            [s + r for k, s, r in zip(q["spec"], q["scan_ms"], q["render_ms"]) if k == i])
        m["store.scan_ms." + spec_name(spec)] = median(
            [s for k, s in zip(q["spec"], q["scan_ms"]) if k == i])
        out = os.path.join(work, "cli-query.out")
        walls = []
        for _ in range(3):
            rc, wall, _ = timed([GAMMA, "store", "query", cli_store] + spec_flags(spec), out)
            tally.op(rc == 0 and same_bytes(out, os.path.join(work, "expected",
                                                              "spec-%d.json" % i)),
                     "CLI query %s differs from in-process rendering" % spec_name(spec))
            walls.append(wall * 1000.0)
        overhead.append(median(walls) - inproc)
    m["cli.query_overhead_ms"] = median(overhead)

    # Serve layer: a short served phase over the paper-world store.
    paper = cli_store
    if scale:
        paper = os.path.join(work, "paper.gmst")
        rc, _, _ = timed(study_cmd(seed, 1, paper))
        tally.op(rc == 0, "CLI paper study rc=%d" % rc)
    reads, expected = serve_reads(paper, PAPER_COUNTRIES, seed, work, tally)
    daemon = Daemon(work, paper, "daemon")
    ctx["daemons"].append(daemon)
    try:
        tally.op(daemon.wait_ready(), "daemon did not answer ping")
        doc = run_load(daemon.port, min(ctx["seconds"], 4.0), seed, reads, expected, paper,
                       work)
        st = stats(daemon.port)
    finally:
        daemon.stop()
    r, s = doc["reads"], doc["submits"]
    tally.attempted += r["attempted"] + s["attempted"]
    tally.failed += r["failed"] + s["failed"]
    hist = st.get("histograms", {})
    for kind in ("query", "submit_study"):
        for part in ("queue_wait_ms", "handle_ms", "flush_ms"):
            h = hist.get("serve.rpc.%s.%s" % (kind, part), {})
            m["serve.rpc.%s.%s" % (kind, part)] = h.get("sum", 0.0) / max(1, h.get("count", 0))
    counters = st.get("counters", {})
    m["serve.rejected"] = counters.get("serve.rejected", 0)
    m["serve.rate_limited"] = counters.get("serve.rate_limited", 0)
    m["client.rtt_ms"] = median(r["rtt_ms"] or [0.0])
    m["load.late_ms"] = pct(r["late_ms"] or [0.0], 0.99)
    return m


# -------------------------------------------------------------------- main --

def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="self-test size")
    ap.add_argument("--inject", choices=("flip-store", "wrong-served"),
                    help="self-test: corrupt one input so the checks must fail")
    args = ap.parse_args(argv)

    try:
        spec = declared()
        prov = build()
    except (BenchError, OSError, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    work = os.path.join(BUILD, "work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "scale": SMALL_SCALE if args.small else SCALE, "work": work, "tally": Tally(),
           "inject": args.inject, "daemons": []}
    try:
        if args.trace:
            values = traced_run(ctx)
            wanted = spec["per_layer"]
        else:
            if args.workload == "paper-study":
                values = study_workload(ctx, None)
            elif args.workload == "scale-study":
                values = study_workload(ctx, ctx["scale"])
            elif args.workload == "store-query":
                values = store_query_workload(ctx)
            else:
                values = serve_mix_workload(ctx)
            wanted = spec["end_to_end"]
    except (BenchError, OSError, KeyError, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    finally:
        for d in ctx["daemons"]:
            d.kill()
    tally = ctx["tally"]
    for note in tally.notes:
        print("perfbench: failed: %s" % note, file=sys.stderr)
    metrics = {}
    for mdef in wanted:
        if mdef["name"] not in values:
            print("perfbench: metric %s was not measured" % mdef["name"], file=sys.stderr)
            return 1
        metrics[mdef["name"]] = {"value": values[mdef["name"]], "unit": mdef["unit"]}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": prov, "result": result}
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results", "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
