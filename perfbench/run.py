#!/usr/bin/env python3
"""The repository's benchmark: builds librrs, rrsd and the benchmark driver
(perfbench/pbtool) from source, runs one workload, checks its outputs and
prints one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the root of a checkout.  Workloads (see README.md):
paper_scenes, cold_tiles, cold_windows, warm_tiles.  With --trace 0 the
result carries the end-to-end metrics; with --trace 1 the per-layer ones.
"""

import argparse
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
RUNS = os.path.join(ROOT, ".bench_run")
POND = os.path.join(ROOT, "scenes", "fig3_pond.rrs")

# Thread budget on a 4-vCPU host: the program never gets all four, so the
# load generator and the kernel keep a core and runs do not queue on CPUs.
#   paper_scenes  one rendering process, RRS_THREADS=3
#   cold_tiles    rrsd --workers 2, one generation thread per request
#   cold_windows  rrsd --workers 1 --gen-threads 3
#   warm_tiles    rrsd --workers 2, no generation at all
# The cold workloads cap the RAM cache and the store at 64 MiB each, so both
# fill within the first seconds and the peak RSS does not grow with the
# number of tiles a run manages to generate.  warm_tiles gives the RAM cache
# three quarters of its 64 MiB working set (see README).
SERVER_FLAGS = {
    "cold_tiles": ["--workers", "2", "--gen-threads", "1", "--cache-mb", "64", "--store-mb", "64"],
    "cold_windows": ["--workers", "1", "--gen-threads", "3", "--cache-mb", "64",
                     "--store-mb", "64"],
    "warm_tiles": ["--workers", "2", "--gen-threads", "1", "--cache-mb", "48"],
}
CONNS = {"cold_tiles": 2, "cold_windows": 1, "warm_tiles": 2}
GEN_THREADS = {"cold_tiles": 1, "cold_windows": 3, "warm_tiles": 1}
WORKLOADS = ["paper_scenes", "cold_tiles", "cold_windows", "warm_tiles"]
# A server workload's timed phase is split evenly over this many rrsd
# processes, each started afresh with the workload's flags (the cold
# workloads on a fresh store each) and serving its own seeded request order.
# A run then pools several processes and orders: a process's speed sits at
# one level for seconds at a time, and warm_tiles' peak RSS follows its
# request order.
SEGMENTS = 3
# A server's setup_s is the median over this many starts of rrsd with the
# same flags, each a new process: the serving ones and untimed probes.
SETUP_STARTS = 5

E2E = [("setup_s", "s"), ("mpoints_per_s", "Mpts/s"), ("latency_p50_ms", "ms"),
       ("cpu_ms_per_mpoint", "ms"), ("peak_rss_mb", "MiB")]

PER_LAYER = [
    ("rng.fill_ms_per_mpoint", "ms/Mpts"), ("rng.ns_per_noise_point", "ns"),
    ("rng.noise_points_per_point", "ratio"),
    ("core.separable_ms_per_mpoint", "ms/Mpts"), ("core.fft_conv_ms_per_mpoint", "ms/Mpts"),
    ("core.weights_ms_per_mpoint", "ms/Mpts"), ("core.blend_ms_per_mpoint", "ms/Mpts"),
    ("core.weights_evals_per_point", "ratio"), ("core.kernel_build_ms", "ms"),
    ("io.scene_build_ms", "ms"), ("core.fft_engine_calls", "1/Mpts"),
    ("core.separable_engine_calls", "1/Mpts"),
    ("fft.forward_ms_per_mpoint", "ms/Mpts"), ("fft.inverse_ms_per_mpoint", "ms/Mpts"),
    ("fft.kernel_spectrum_ms", "ms"),
    ("parallel.fanout_efficiency", "ratio"),
    ("service.hit_ratio", "ratio"), ("service.generations_per_request", "ratio"),
    ("service.get_hit_us", "us"), ("service.window_stitch_ms", "ms"),
    ("store.insert_ms_per_tile", "ms"), ("store.find_us_per_tile", "us"),
    ("store.open_ms", "ms"), ("store.promotion_ratio", "ratio"),
    ("net.parse_us", "us"), ("net.handle_us", "us"), ("net.write_us", "us"),
    ("net.encode_f32_us", "us"), ("net.encode_i16_us", "us"),
    ("net.bytes_per_request", "B"), ("net.not_modified_ratio", "ratio"),
    ("net.healthz_rtt_us", "us"),
    ("obs.trace_overhead_pct", "%"),
]


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------- build

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isfile(POND)):
        raise BenchError("the repository sources are not next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    logf = os.path.join(BUILD, "perfbench-build.log")
    with open(logf, "a") as out:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=subprocess.STDOUT, check=False)
        r = subprocess.run(["cmake", "--build", BUILD, "--target", "pbtool", "rrsd", "-j", "4"],
                           stdout=out, stderr=subprocess.STDOUT, check=False)
    if r.returncode != 0:
        with open(logf) as f:
            sys.stderr.write("".join(f.readlines()[-30:]))
        raise BenchError("build failed (log: %s)" % logf)
    return os.path.join(BUILD, "pbtool"), os.path.join(BUILD, "rrs", "tools", "rrsd")


def env_threads(n):
    env = dict(os.environ)
    env["RRS_THREADS"] = str(n)
    env["OMP_NUM_THREADS"] = str(n)
    return env


# ----------------------------------------------------------------- servers

class Server:
    """One rrsd process; set-up time is exec until /readyz answers 200."""

    def __init__(self, rrsd, run_dir, tag, flags):
        self.port_file = os.path.join(run_dir, tag + ".port")
        self.err = open(os.path.join(run_dir, tag + ".log"), "w")
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [rrsd] + flags + ["--port", "0", "--port-file", self.port_file, "--quiet"],
            stdout=subprocess.DEVNULL, stderr=self.err, env=env_threads(1))
        self.port = None
        try:
            while True:
                if self.proc.poll() is not None:
                    raise BenchError("rrsd exited with %d during start-up" % self.proc.returncode)
                if time.monotonic() - t0 > 60:
                    raise BenchError("rrsd not ready after 60 s")
                if self.port is None:
                    try:
                        with open(self.port_file) as f:
                            self.port = int(f.read().strip())
                    except (OSError, ValueError):
                        self.port = None
                if self.port is not None and self.get("/readyz")[0] == 200:
                    break
                time.sleep(0.001)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.err.close()
            raise
        self.setup_s = time.monotonic() - t0

    def get(self, path):
        try:
            c = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
            c.request("GET", path)
            r = c.getresponse()
            body = r.read()
            c.close()
            return r.status, body
        except OSError:
            return 0, b""

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.err.close()


def pbtool_json(cmd, env):
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                       text=True, timeout=170, check=False)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr[-4000:])
        raise BenchError("%s %s exited with %d" % (os.path.basename(cmd[0]), cmd[1], r.returncode))
    return json.loads(lines[-1])


# --------------------------------------------------------------- workloads

def run_paper_scenes(tools, seed, seconds, trace, run_dir):
    pbtool, _ = tools
    cmd = [pbtool, "scenes", "--scenes", os.path.join(ROOT, "scenes"),
           "--seed", str(seed), "--seconds", str(seconds)]
    trace_file = os.path.join(run_dir, "scenes.trace.json")
    if trace:
        cmd += ["--trace-out", trace_file]
    t0 = time.monotonic()
    res = pbtool_json(cmd, env_threads(3))
    res["setup_s"] = res["setup_done_mono"] - t0
    if trace:
        with open(trace_file) as f:
            res["trace"] = json.load(f)
    return res


def run_server_workload(tools, workload, seed, seconds, trace, run_dir):
    pbtool, rrsd = tools
    flags = SERVER_FLAGS[workload] + (["--trace"] if trace else [])
    fill_check = None
    if workload == "warm_tiles":
        # Fill the store through a first daemon; neither its start-up nor
        # the fill is timed.  The scene keeps its own seed, so the set of
        # tiles, and with it the RAM-cache hit pattern, is the same in every
        # run; the seed drives the request order.
        store = os.path.join(run_dir, "store")
        fill = Server(rrsd, run_dir, "fill", [POND, "--workers", "1", "--gen-threads", "3",
                                               "--store", store])
        try:
            fill_check = pbtool_json([pbtool, "fill", "--port", str(fill.port), "--scene", POND,
                                      "--out", os.path.join(run_dir, "fill.bin")],
                                     env_threads(3))
        finally:
            fill.stop()
        cmd_args = ["warm", "--fill", os.path.join(run_dir, "fill.bin")]
        server_args = lambda k: [POND] + flags + ["--store", store]
    else:
        cmd_args = ["cold", "--workload", workload]
        server_args = lambda k: [POND, "--seed", str(seed)] + flags + [
            "--store", os.path.join(run_dir, "store%d" % k)]
    setups = []
    for k in range(SETUP_STARTS - SEGMENTS):
        probe = Server(rrsd, run_dir, "probe%d" % k, server_args(SEGMENTS + k))
        setups.append(probe.setup_s)
        probe.stop()
    segments, traces = [], []
    for k in range(SEGMENTS):
        srv = Server(rrsd, run_dir, "rrsd%d" % k, server_args(k))
        setups.append(srv.setup_s)
        try:
            # Each segment draws its own request order from the seed.  The
            # in-process replays and the /healthz probe run once, after the
            # last segment.
            last = k == SEGMENTS - 1
            cmd = [pbtool] + cmd_args + [
                "--port", str(srv.port), "--pid", str(srv.proc.pid), "--scene", POND,
                "--seed", str(seed), "--order", str(seed * SEGMENTS + k),
                "--seconds", repr(seconds / SEGMENTS),
                "--conns", str(CONNS[workload]),
                "--trace", "1" if trace and last else "0", "--dir", run_dir]
            segments.append(pbtool_json(cmd, env_threads(3)))
            if trace:
                status, body = srv.get("/tracez")
                if status != 200:
                    raise BenchError("/tracez answered %d" % status)
                traces.append(json.loads(body))
        finally:
            srv.stop()
    res = merge_segments(segments, traces)
    res["setup_s"] = statistics.median(setups)
    if fill_check is not None and fill_check.get("correct") is not True:
        res["correct"] = False
        res.setdefault("check_notes", []).extend(fill_check.get("check_notes", []))
    return res


def merge_segments(segments, traces):
    """One result from the segments of a server workload: counts, times and
    counter deltas add up, latencies pool, the peak RSS is the median of the
    serving processes' peaks, and the replays come from the last segment.
    Thread ids of each segment's trace are kept apart."""
    res = dict(segments[-1])
    for k in ("attempted", "failed", "points", "seconds", "cpu_s", "client_cpu_s",
              "checks_passed", "checks_failed"):
        res[k] = sum(s[k] for s in segments)
    res["correct"] = all(s.get("correct") is True for s in segments)
    res["check_notes"] = [n for s in segments for n in s.get("check_notes", [])]
    res["latency_ms"] = [v for s in segments for v in s["latency_ms"]]
    res["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in segments)
    res["steal_share"] = (sum(s["steal_share"] * s["seconds"] for s in segments) /
                          res["seconds"])
    counters = {}
    for s in segments:
        for name, v in s["counters"].items():
            counters[name] = counters.get(name, 0) + v
    res["counters"] = counters
    if traces:
        events = []
        for k, t in enumerate(traces):
            for e in t.get("traceEvents", []):
                events.append(dict(e, tid=(k, e.get("tid"))))
        res["trace"] = {"traceEvents": events}
    return res


def run_workload(tools, workload, seed, seconds, trace):
    os.makedirs(RUNS, exist_ok=True)
    run_dir = os.path.join(RUNS, "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        if workload == "paper_scenes":
            return run_paper_scenes(tools, seed, seconds, trace, run_dir)
        return run_server_workload(tools, workload, seed, seconds, trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


# ----------------------------------------------------------------- metrics

def end_to_end(res):
    mpts = res["points"] / 1e6
    return {
        "setup_s": res["setup_s"],
        "mpoints_per_s": mpts / res["seconds"],
        "latency_p50_ms": statistics.median(res["latency_ms"]),
        "cpu_ms_per_mpoint": res["cpu_s"] * 1e3 / mpts,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def span_table(trace):
    """Per span name: total time, self time (total minus the part its child
    spans on the same thread cover) and count, all in microseconds."""
    by_tid = {}
    for e in trace.get("traceEvents", []):
        if e.get("ph") == "X":
            by_tid.setdefault(e.get("tid"), []).append(e)
    total, self_t, count = {}, {}, {}
    for events in by_tid.values():
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end, child_time, event]
        done = []
        for e in events:
            start, end = e["ts"], e["ts"] + e["dur"]
            while stack and stack[-1][0] <= start:
                done.append(stack.pop())
            if stack:
                stack[-1][1] += e["dur"]
            stack.append([end, 0.0, e])
        done.extend(stack)
        for end, child, e in done:
            n = e["name"]
            total[n] = total.get(n, 0.0) + e["dur"]
            self_t[n] = self_t.get(n, 0.0) + max(0.0, e["dur"] - child)
            count[n] = count.get(n, 0) + 1
    return total, self_t, count


def per_layer(workload, res, untraced):
    total, self_t, count = span_table(res.get("trace", {}))
    c = res["counters"]
    mpts = res["points"] / 1e6
    replay = res.get("replay", {})
    ms_per_mpt = lambda us: us / 1e3 / mpts
    per = lambda key, base: c.get(key, 0) / base if base else 0.0
    mean_us = lambda n, table=total: table.get(n, 0.0) / count[n] if count.get(n) else 0.0
    requests = c.get("service.tile.requests", 0)
    net_requests = c.get("net.requests", 0)
    m = {
        "rng.fill_ms_per_mpoint": ms_per_mpt(self_t.get("noise.fill", 0.0)),
        "rng.ns_per_noise_point": (total.get("noise.fill", 0.0) * 1e3 / c["noise.points"]
                                   if c.get("noise.points") else 0.0),
        "rng.noise_points_per_point": per("noise.points", res["points"]),
        "core.separable_ms_per_mpoint": ms_per_mpt(self_t.get("conv.separable", 0.0)),
        "core.fft_conv_ms_per_mpoint": ms_per_mpt(self_t.get("conv.fft", 0.0)),
        "core.weights_ms_per_mpoint": ms_per_mpt(self_t.get("inhom.weights", 0.0)),
        "core.blend_ms_per_mpoint": ms_per_mpt(self_t.get("inhom.blend", 0.0)),
        "core.weights_evals_per_point": replay.get("core.weights_evals_per_point", 0.0),
        "core.fft_engine_calls": per("conv.engine.fft", mpts),
        "core.separable_engine_calls": per("conv.engine.separable", mpts),
        "fft.forward_ms_per_mpoint": ms_per_mpt(total.get("fft.forward", 0.0)),
        "fft.inverse_ms_per_mpoint": ms_per_mpt(total.get("fft.inverse", 0.0)),
        # Once per process: a server run's segments each build their own.
        "fft.kernel_spectrum_ms": total.get("conv.kernel_fft", 0.0) / 1e3 / (
            1 if workload == "paper_scenes" else SEGMENTS),
        "parallel.fanout_efficiency": (
            total.get("tile.generate", 0.0) / (GEN_THREADS[workload] * total["tile.window"])
            if total.get("tile.window") else 0.0),
        "service.hit_ratio": per("service.tile.hits", requests),
        "service.generations_per_request": per("service.tile.generations", requests),
        "store.promotion_ratio": per("store.l2.promotions", requests),
        "net.parse_us": mean_us("net.parse"),
        "net.handle_us": mean_us("net.handle", self_t),
        "net.write_us": mean_us("net.write"),
        "net.bytes_per_request": per("net.bytes_out", net_requests),
        "net.not_modified_ratio": per("net.not_modified", net_requests),
        "net.healthz_rtt_us": res.get("net.healthz_rtt_us", 0.0),
        "obs.trace_overhead_pct": 100.0 * (1.0 - (mpts / res["seconds"]) /
                                           (untraced["points"] / 1e6 / untraced["seconds"])),
    }
    if workload == "paper_scenes":
        # The offline job builds its scenes in the traced process itself.
        m["core.kernel_build_ms"] = (total.get("kernel.build", 0.0) +
                                     total.get("kernel.truncate", 0.0)) / 1e3
        m["io.scene_build_ms"] = total.get("scene.build", 0.0) / 1e3
    for name, _ in PER_LAYER:
        m.setdefault(name, replay.get(name, 0.0))
    return m


def reference_line(workload, res):
    lat = sorted(res["latency_ms"])
    p90 = statistics.quantiles(lat, n=10)[-1] if len(lat) >= 10 else float("nan")
    return ("reference %s: attempted=%d failed=%d p90_ms=%.3f samples=%d steal=%.4f "
            "timed_s=%.3f load_cpu_s=%.2f checks=%d/%d" % (
                workload, res["attempted"], res["failed"], p90, len(lat),
                res.get("steal_share", 0.0), res["seconds"], res.get("client_cpu_s", 0.0),
                res.get("checks_passed", 0),
                res.get("checks_passed", 0) + res.get("checks_failed", 0)))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="feed each output check a corrupted output")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        tools = build()
        if args.selftest:
            r = subprocess.run([tools[0], "selftest", "--scene", POND], env=env_threads(3),
                               check=False)
            return r.returncode
        if args.workload is None:
            ap.error("--workload is required")
        res = run_workload(tools, args.workload, args.seed, args.seconds, 0)
        legs = [res]
        if args.trace:
            # The untraced leg is the base of obs.trace_overhead_pct.
            traced = run_workload(tools, args.workload, args.seed, args.seconds, 1)
            legs.append(traced)
            values = per_layer(args.workload, traced, res)
            units = dict(PER_LAYER)
        else:
            values = end_to_end(res)
            units = dict(E2E)
        print(reference_line(args.workload, legs[-1]))
        correct = all(leg.get("correct") is True for leg in legs)
        attempted = sum(leg["attempted"] for leg in legs)
        failed = sum(leg["failed"] for leg in legs)
        if not correct:
            log("output checks failed: %s" %
                "; ".join(n for leg in legs for n in leg.get("check_notes", [])))
    except BenchError as e:
        log(str(e))
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
