#!/usr/bin/env python3
"""The repo benchmark: paper campaigns and the replicated tuning service.

Usage (from the repo root):

    python3 perfbench/run.py --workload smbo_tell --seed 7 --seconds 24 --trace 0
    python3 perfbench/run.py --self-test

A run sets up a tunelb router in front of a tuned primary that ships its WAL
to a tuned --standby (state and store dirs on the checkout's filesystem),
then runs ROUNDS rounds of: one cold fig2_percent_of_optimum campaign (fresh
--out, no --resume), then a chunk of closed-loop service load from
perfbench_driver. The load gets SERVICE_SHARE of --seconds in total.

--trace 0 prints every end-to-end metric; --trace 1 prints every per-layer
metric (the same rounds, then in-process layer probes under spans). The last
stdout line is one JSON object with keys correct, attempted, failed, metrics.
A failed correctness gate prints correct=false and exits 1. See README.md in
this directory for the workload rationale and the metric -> layer map.
"""

import argparse
import json
import os
import re
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

# Campaigns run at fig2's default scale and sizes (StudyConfig's defaults,
# which the driver's oracle uses too); the load shape is fixed in driver.cpp.
COMMITTED_SEED = 1592653589
PAPER_ALGOS = ["rs", "rf", "ga", "bogp", "botpe"]
ROUNDS = 3  # each round: one cold campaign, then a chunk of service load
SERVICE_SHARE = 0.5  # of --seconds, split evenly over the rounds

WORKLOADS = {
    "smbo_tell": {
        "bench": ["mandelbrot"],
        "arch": ["rtxtitan"],
        "algo": PAPER_ALGOS,
        "service": "tell",
    },
    "sweep_warm": {
        "bench": ["add", "harris", "mandelbrot"],
        "arch": ["gtx980", "titanv", "rtxtitan"],
        "algo": ["rs"],
        "service": "warm",
    },
}

TARGETS = ["fig2_percent_of_optimum", "tuned", "tunelb", "perfbench_driver"]


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Processes: every child is registered and reaped, whatever happens.
# ---------------------------------------------------------------------------

_children = []


def spawn(cmd, **kwargs):
    """Start a child in its own process group, so stop() also reaches what it
    starts (cmake's make and compiler processes)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    _children.append(proc)
    return proc


def _signal_group(proc, sig):
    try:
        os.killpg(proc.pid, sig)
    except ProcessLookupError:
        pass


def stop(proc, sig=signal.SIGTERM, timeout=15.0):
    """Signal a child's process group and reap the child, escalating to
    SIGKILL after `timeout`; then kill whatever it left in its group."""
    if proc.poll() is None:
        _signal_group(proc, sig)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            _signal_group(proc, signal.SIGKILL)
            proc.wait()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break  # the group is empty
        time.sleep(0.05)
    if proc in _children:
        _children.remove(proc)


def stop_all():
    for proc in list(_children):
        stop(proc, timeout=5.0)


def run_driver(ctx, args, timeout=150):
    """Run perfbench_driver and return its last stdout line as JSON."""
    cmd = [ctx["bin"]["perfbench_driver"]] + [str(a) for a in args]
    proc = spawn(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        stop(proc)
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"driver {args[0]} exited {proc.returncode}: {err.strip()[-400:]}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build(root):
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "build.log")
    jobs = str(os.cpu_count() or 1)
    with open(build_log, "w") as logf:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target"] + TARGETS)
        for step in steps:
            proc = spawn(step, stdout=logf, stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=1500)
            finally:
                stop(proc)
            if proc.returncode != 0:
                with open(build_log) as f:
                    tail = f.read()[-2000:]
                raise RuntimeError(f"build step {' '.join(step[:3])} failed:\n{tail}")
    # Flush the build's (and any earlier run's) dirty pages now, so their
    # writeback does not land in the measured fsyncs.
    os.sync()
    return {
        "dir": build_dir,
        "bin": {
            "fig2_percent_of_optimum": os.path.join(build_dir, "fig2_percent_of_optimum"),
            "tuned": os.path.join(build_dir, "repro", "service", "tuned"),
            "tunelb": os.path.join(build_dir, "repro", "service", "tunelb"),
            "perfbench_driver": os.path.join(build_dir, "perfbench_driver"),
        },
    }


# ---------------------------------------------------------------------------
# Provenance and host shape
# ---------------------------------------------------------------------------

def fs_type(path):
    real = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/mounts") as f:
        for line in f:
            parts = line.split()
            if len(parts) < 3:
                continue
            mount = parts[1]
            if (real == mount or real.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
                best, kind = mount, parts[2]
    return kind


def fsync_us(directory, count=50):
    """Median latency of an 80-byte append + fsync on the state-dir filesystem."""
    path = os.path.join(directory, "fsync.probe")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    samples = []
    try:
        for _ in range(count):
            start = time.perf_counter()
            os.write(fd, b"x" * 79 + b"\n")
            os.fsync(fd)
            samples.append((time.perf_counter() - start) * 1e6)
    finally:
        os.close(fd)
        os.unlink(path)
    return statistics.median(samples)


def cpu_times():
    """Aggregate /proc/stat cpu line: (steal ticks, total ticks)."""
    with open("/proc/stat") as f:
        ticks = [int(v) for v in f.readline().split()[1:]]
    return ticks[7], sum(ticks)


def provenance(root, ctx, seed, state_root):
    cache = {}
    with open(os.path.join(ctx["dir"], "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^(CMAKE_BUILD_TYPE|CMAKE_CXX_COMPILER):[A-Z]+=(.*)$", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = compiler
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        git_rev = "unknown (git unavailable)"
    fstype = fs_type(state_root)
    mismatches = []
    if fstype == "tmpfs":
        mismatches.append("state dirs on tmpfs: fsync costs are hidden")
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        mismatches.append(f"build type {cache.get('CMAKE_BUILD_TYPE')} is not Release")
    return {
        "nproc": os.cpu_count(),
        "cmake_build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "compiler": version,
        "git_rev": git_rev,
        "seed": seed,
        "state_dir_fs": fstype,
        "state_dir_fsync_us": round(fsync_us(state_root), 1),
        "host_shape_mismatch": mismatches,
    }


# ---------------------------------------------------------------------------
# Campaign phase
# ---------------------------------------------------------------------------

ALGO_LABELS = {"rs": "RS", "rf": "RF", "ga": "GA", "bogp": "BO GP", "botpe": "BO TPE"}


def committed_rows(root, spec):
    wanted = {(b, a, ALGO_LABELS[algo])
              for b in spec["bench"] for a in spec["arch"] for algo in spec["algo"]}
    with open(os.path.join(root, "repro_results", "fig2.csv")) as f:
        lines = f.read().splitlines()
    return [line for line in lines[1:] if tuple(line.split(",")[1:4]) in wanted]


def run_campaign(ctx, spec, seed, out_dir):
    os.makedirs(out_dir)
    cmd = [ctx["bin"]["fig2_percent_of_optimum"],
           "--bench", ",".join(spec["bench"]), "--arch", ",".join(spec["arch"]),
           "--algo", ",".join(spec["algo"]), "--seed", str(seed),
           "--out", out_dir, "--save-raw", os.path.join(out_dir, "raw.csv")]
    setup = None
    with open(os.path.join(out_dir, "stderr.log"), "w") as err:
        start = time.perf_counter()
        proc = spawn(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            # Set-up ends when the first panel's BenchmarkContext is built
            # (its log line), before any search starts.
            for line in proc.stderr:
                if setup is None and " context " in line and "optimum" in line:
                    setup = time.perf_counter() - start
                err.write(line)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            stop(proc)
        wall = time.perf_counter() - start
    if proc.returncode != 0 or setup is None:
        raise RuntimeError(f"fig2 campaign exited {proc.returncode}")
    return {
        "setup_s": setup,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "dir": out_dir,
    }


def read_file(path):
    with open(path, "rb") as f:
        return f.read()


COMMITTED_ROWS_GATE = "fig2 rows differ from repro_results/fig2.csv at the committed seed"


def check_campaigns(ctx, root, spec, seed, runs, trace, corrupt, errors):
    """Correctness gates over the run's campaigns; returns the driver's report."""
    first = runs[0]["dir"]
    csv_path = os.path.join(first, "fig2.csv")
    # Gate: repeated campaigns are byte-identical to the first.
    for r in runs[1:]:
        for name in ("fig2.csv", "raw.csv"):
            if read_file(os.path.join(first, name)) != read_file(os.path.join(r["dir"], name)):
                errors.append(f"campaign repeat produced a different {name}")
    # Gate: at the committed seed the rows are the committed fig2.csv rows.
    if seed == COMMITTED_SEED:
        got = read_file(csv_path).decode().splitlines()[1:]
        if corrupt == "csv":  # gate self-test: one altered cell, seen by this gate only
            cells = got[0].split(",")
            cells[-1] = "%.4f" % (float(cells[-1]) + 0.0001)
            got[0] = ",".join(cells)
        if got != committed_rows(root, spec):
            errors.append(COMMITTED_ROWS_GATE)
    # Gates: E(S) outcomes per cell, CSV == aggregation of raw, sampled
    # experiments reproduce bit for bit (traced: every experiment).
    verify = run_driver(ctx, [
        "campaign-verify", "--raw", os.path.join(first, "raw.csv"), "--csv", csv_path,
        "--scratch", first, "--seed", seed, "--bench", ",".join(spec["bench"]),
        "--arch", ",".join(spec["arch"]), "--algo", ",".join(spec["algo"]),
        "--corrupt", 1 if corrupt == "outcome" else 0] +
        (["--spans-out", os.path.join(ctx["results"], "spans_campaign.jsonl")] if trace else []))
    errors.extend(verify["errors"])
    return verify


# ---------------------------------------------------------------------------
# Service phase
# ---------------------------------------------------------------------------

def rpc(port, frames, timeout=3.0):
    """Send JSON frames after a hello on one connection; return the replies."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        stream = sock.makefile("rwb")
        replies = []
        for frame in [{"op": "hello", "version": 1, "client": "perfbench-probe/1"}] + frames:
            stream.write((json.dumps(frame) + "\n").encode())
            stream.flush()
            line = stream.readline()
            if not line:
                raise ConnectionError("connection closed")
            replies.append(json.loads(line))
        return replies[1:]


class Daemon:
    def __init__(self, cmd, log_path):
        self.log = open(log_path, "w")
        self.proc = spawn(cmd, stdout=subprocess.PIPE, stderr=self.log, text=True)
        self.port = None
        deadline = time.monotonic() + 30
        while self.port is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError(f"{os.path.basename(cmd[0])} did not report ready")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                line = self.proc.stdout.readline()
                m = re.search(r"ready port=(\d+)", line)
                if m:
                    self.port = int(m.group(1))
        # Keep draining stdout so the child never blocks on a full pipe.
        self.drain = threading.Thread(target=lambda: self.proc.stdout.read(), daemon=True)
        self.drain.start()

    @property
    def pid(self):
        return self.proc.pid

    def stop(self):
        stop(self.proc)
        self.drain.join(timeout=5)
        self.proc.stdout.close()
        self.log.close()


class Topology:
    """tunelb -> tuned primary -> tuned --standby, state on real disk."""

    def __init__(self, ctx, base):
        self.base = base
        dirs = {k: os.path.join(base, k) for k in ("sb_state", "sb_store", "p_state", "p_store")}
        for d in dirs.values():
            os.makedirs(d)
        tuned, tunelb = ctx["bin"]["tuned"], ctx["bin"]["tunelb"]
        self.daemons = []
        self.standby = self._start([tuned, "--port", "0", "--standby", "--state-dir", dirs["sb_state"],
                                    "--store-dir", dirs["sb_store"]], "standby.log")
        self.primary = self._start([tuned, "--port", "0", "--state-dir", dirs["p_state"],
                                    "--store-dir", dirs["p_store"],
                                    "--ship-to", f"127.0.0.1:{self.standby.port}"], "primary.log")
        self.router = self._start([tunelb, "--port", "0", "--probe-interval-ms", "20",
                                   "--shards", f"{self.primary.port}/{self.standby.port}"],
                                  "router.log")

    def _start(self, cmd, log_name):
        daemon = Daemon(cmd, os.path.join(self.base, log_name))
        self.daemons.append(daemon)
        return daemon

    def wait_ready(self, timeout=30.0):
        """Until the router reports the shard up with a hot standby."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                router = rpc(self.router.port, [{"op": "status"}])[0]
                primary = rpc(self.primary.port, [{"op": "status"}])[0]
                shards = router.get("shards") or []
                if (shards and shards[0].get("health") == "up" and shards[0].get("has_standby")
                        and primary.get("ship_state") == "hot"):
                    return
            except (OSError, ValueError):
                pass
            time.sleep(0.005)
        raise RuntimeError("topology did not come up with a hot standby")

    def stop(self):
        for daemon in reversed(self.daemons):
            daemon.stop()
        self.daemons = []
        shutil.rmtree(self.base, ignore_errors=True)


def proc_sample(pid):
    """utime+stime (s), VmHWM (MiB), Threads, wchar, syscw of a live pid."""
    tick = os.sysconf("SC_CLK_TCK")
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    out = {"cpu_s": (int(fields[11]) + int(fields[12])) / tick}
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                out["hwm_mb"] = int(line.split()[1]) / 1024.0
            elif line.startswith("Threads:"):
                out["threads"] = int(line.split()[1])
    try:
        with open(f"/proc/{pid}/io") as f:
            for line in f:
                key, value = line.split(":")
                out[key.strip()] = int(value)
    except OSError:
        pass
    return out


class ThreadSampler:
    def __init__(self, pid):
        self.pid, self.peak, self.stop_flag = pid, 0, threading.Event()
        self.thread = threading.Thread(target=self._loop, daemon=True)
        self.thread.start()

    def _loop(self):
        while not self.stop_flag.is_set():
            try:
                self.peak = max(self.peak, proc_sample(self.pid).get("threads", 0))
            except OSError:
                pass
            self.stop_flag.wait(0.05)

    def finish(self):
        self.stop_flag.set()
        self.thread.join()
        return self.peak


def number(obj, *path):
    """Tolerant status read: a missing or non-numeric field is None."""
    for key in path:
        if not isinstance(obj, dict) or key not in obj:
            return None
        obj = obj[key]
    return obj if isinstance(obj, (int, float)) and not isinstance(obj, bool) else None


def setup_topology(ctx, base):
    start = time.perf_counter()
    topo = Topology(ctx, base)
    try:
        topo.wait_ready()
    except BaseException:
        topo.stop()
        raise
    return topo, time.perf_counter() - start


def seed_store(ctx, topo, seed):
    """The warm workload's store pre-import through the router; returns seconds."""
    start = time.perf_counter()
    seeded = run_driver(ctx, ["store-seed", "--port", topo.router.port, "--seed", seed])
    if not seeded["ok"]:
        raise RuntimeError(f"store pre-import stored {seeded['imported']} rows")
    return time.perf_counter() - start


LOAD_CORRUPTIONS = ("tell", "digest", "drain", "export")  # self-test cases the load driver makes


def load_args(kind, port, seed, seconds, topo=None, corrupt=""):
    args = ["service-load", "--workload", kind, "--port", port, "--seed", seed,
            "--seconds", "%.3f" % seconds, "--corrupt", corrupt or "none"]
    if topo is not None:
        args += ["--primary", topo.primary.port, "--standby", topo.standby.port]
    return args


def read_line(proc, timeout):
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline() if ready else ""
    if not line:
        raise RuntimeError("service load driver stopped answering")
    return line


def measure_rounds(ctx, spec, seed, seconds, run_dir, trace, corrupt, errors):
    """Set up the topology, then ROUNDS x (cold campaign, service chunk).

    Interleaving spreads every metric's samples over the whole run, so a
    slow spell on the shared host moves one sample instead of one metric.
    """
    kind = spec["service"]
    topo, setup_s = setup_topology(ctx, os.path.join(run_dir, "service"))
    layers = {}
    campaigns = []
    try:
        import_s = seed_store(ctx, topo, seed) if kind == "warm" else 0.0
        pids = {"primary": topo.primary.pid, "standby": topo.standby.pid, "router": topo.router.pid}
        # Daemon CPU and IO counters, summed over the load chunks only (the
        # daemons idle, apart from health probes, while a campaign runs).
        counters = ("cpu_s", "wchar", "syscw")
        busy = {name: dict.fromkeys(counters, 0) for name in pids}
        sampler = ThreadSampler(topo.primary.pid)
        args = load_args(kind, topo.router.port, seed, seconds * SERVICE_SHARE, topo,
                         corrupt if corrupt in LOAD_CORRUPTIONS else "")
        with open(os.path.join(run_dir, "load.log"), "w") as err:
            proc = spawn([ctx["bin"]["perfbench_driver"]] + [str(a) for a in args] +
                         ["--rounds", str(ROUNDS)],
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True)
            try:
                for r in range(ROUNDS):
                    campaigns.append(run_campaign(ctx, spec, seed,
                                                  os.path.join(run_dir, f"campaign{r}")))
                    start = {name: proc_sample(pid) for name, pid in pids.items()}
                    proc.stdin.write("go\n")
                    proc.stdin.flush()
                    read_line(proc, 120)
                    for name, pid in pids.items():
                        end = proc_sample(pid)
                        for key in counters:
                            busy[name][key] += end.get(key, 0) - start[name].get(key, 0)
                out, _ = proc.communicate(timeout=120)
            finally:
                stop(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"service load driver exited {proc.returncode}")
        load = json.loads(out.strip().splitlines()[-1])
        threads_peak = sampler.finish()
        load["peak_rss_mb"] = sum(proc_sample(pid)["hwm_mb"] for pid in pids.values())
        load["import_s"] = import_s
        load["busy"] = busy
        errors.extend(load["errors"])
        primary_status = rpc(topo.primary.port, [{"op": "status"}, {"op": "store_stats"}])
        if trace:
            layers = service_layers(ctx, topo, seed, run_dir, load, threads_peak,
                                    primary_status, errors)
    finally:
        topo.stop()
    return campaigns, setup_s, load, layers


def service_layers(ctx, topo, seed, run_dir, load, threads_peak, primary_status, errors):
    tells = max(1, load["acked_tells"])
    status, store_stats = primary_status
    busy = load["busy"]
    layers = {f"service.{name}_cpu_s": busy[name]["cpu_s"] for name in busy}
    layers["service.primary_threads_peak"] = threads_peak
    for key, metric in (("wchar", "write_bytes"), ("syscw", "write_syscalls")):
        layers[f"service.primary_{metric}_per_tell"] = busy["primary"][key] / tells
    quotas = status.get("quotas") if isinstance(status.get("quotas"), dict) else {}
    pushbacks = [number(quotas, k) for k in ("shed_anonymous", "shed_over_quota",
                                             "shed_queue_full", "tell_pushbacks", "timeouts")]
    layers["service.pushbacks"] = sum(v for v in pushbacks if v is not None)
    layers["service.client_retries"] = load["client_retries"]
    appends, dups = number(store_stats, "appends"), number(store_stats, "duplicates")
    layers["store.dedup_ratio"] = (appends / (appends + dups)
                                   if appends is not None and dups is not None and appends + dups
                                   else 0.0)

    # Router forward: the same short tell load through tunelb, then direct.
    # Without the topology's ports, these loads skip the quiescent store gates.
    routed = run_driver(ctx, load_args("tell", topo.router.port, seed + 1, 2.0))
    direct = run_driver(ctx, load_args("tell", topo.primary.port, seed + 2, 2.0))
    errors.extend(routed["errors"] + direct["errors"])
    layers["service.router_forward_us"] = routed["ask"]["p50"] - direct["ask"]["p50"]

    # In-process layer calls; the replication probe ships to its own standby.
    probe_dir = os.path.join(run_dir, "probe")
    sb_state, sb_store = os.path.join(probe_dir, "sb_state"), os.path.join(probe_dir, "sb_store")
    os.makedirs(sb_state)
    os.makedirs(sb_store)
    standby = Daemon([ctx["bin"]["tuned"], "--port", "0", "--standby", "--state-dir", sb_state,
                      "--store-dir", sb_store], os.path.join(probe_dir, "standby.log"))
    try:
        records = number(store_stats, "records") or 1
        tenants = number(store_stats, "tenants") or 1
        probe = run_driver(ctx, ["layer-probe", "--dir", probe_dir, "--seed", seed,
                                 "--ship-port", standby.port, "--store-rows", int(records),
                                 "--store-tenants", int(tenants)])
    finally:
        standby.stop()
    errors.extend(probe["errors"])
    layers.update(probe["metrics"])
    return layers


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

E2E_UNITS = {
    "campaign_wall_s": "s", "campaign_cpu_s": "s", "campaign_peak_rss_mb": "MiB",
    "setup_s": "s",
}

LAYER_UNITS = {
    "harness.context_build_s": "s",
    **{f"harness.experiment_s.{a}": "s" for a in PAPER_ALGOS},
    "harness.critical_task_s": "s",
    "common.pool_idle_core_s": "s", "common.campaign_cores": "cores",
    **{f"tuner.search_self_s.{a}": "s" for a in ("ga", "bogp", "botpe")},
    **{f"tuner.objective_calls.{a}": "count" for a in ("ga", "bogp", "botpe")},
    **{f"tuner.valid_ratio.{a}": "ratio" for a in ("ga", "bogp", "botpe")},
    "tuner.ask_tell_handoff_us": "us", "tuner.warm_ask_us": "us",
    "simgpu.measure_ns": "ns", "simgpu.model_ns_per_config": "ns",
    "simgpu.mean_cache_hit_ratio": "ratio",
    "service.codec_us": "us", "service.router_forward_us": "us", "service.wal_append_us": "us",
    "service.ship_rtt_us": "us", "service.primary_cpu_s": "s", "service.standby_cpu_s": "s",
    "service.router_cpu_s": "s", "service.primary_threads_peak": "count",
    "service.primary_write_bytes_per_tell": "B", "service.primary_write_syscalls_per_tell": "count",
    "service.pushbacks": "count", "service.client_retries": "count",
    "store.append_us": "us", "store.query_us": "us", "store.export_page_us": "us",
    "store.dedup_ratio": "ratio",
    "service.topology_setup_s": "s", "service.cpu_us_per_eval": "us",
    "service.evals_per_s": "1/s", "service.export_rows_per_s": "1/s",
    "service.peak_rss_mb": "MiB", "store.import_s": "s",
    **{f"client.{op}_p{q}_us": "us" for op in ("ask", "tell", "open") for q in (50, 90, 99)},
    "trace.campaign_wall_s": "s", "trace.campaign_cpu_s": "s",
}


def run_workload(root, ctx, name, seed, seconds, trace, corrupt=""):
    spec = WORKLOADS[name]
    run_dir = os.path.join(root, ".bench_build", "runs", f"{name}-{os.getpid()}-{seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    errors = []
    try:
        prov = provenance(root, ctx, seed, run_dir)
        print("perfbench provenance: " + json.dumps(prov, sort_keys=True), flush=True)
        for mismatch in prov["host_shape_mismatch"]:
            log(f"host-shape mismatch: {mismatch}")
        steal0, total0 = cpu_times()
        campaigns, topology_setup_s, load, layers = measure_rounds(
            ctx, spec, seed, seconds, run_dir, trace, corrupt, errors)
        steal1, total1 = cpu_times()
        print("perfbench host load: " + json.dumps({
            "cpu_steal_pct": round(100.0 * (steal1 - steal0) / max(1, total1 - total0), 2),
            "state_dir_fsync_us_after": round(fsync_us(run_dir), 1)}), flush=True)
        verify = check_campaigns(ctx, root, spec, seed, campaigns, trace, corrupt, errors)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    wall = statistics.median(c["wall_s"] for c in campaigns)
    cpu = statistics.median(c["cpu_s"] for c in campaigns)
    evals_per_s = load["evals_per_s"]
    service_cpu_s = sum(b["cpu_s"] for b in load["busy"].values())
    e2e = {
        "campaign_wall_s": wall,
        "campaign_cpu_s": cpu,
        "campaign_peak_rss_mb": statistics.median(c["rss_mb"] for c in campaigns),
        "setup_s": statistics.median(c["setup_s"] for c in campaigns),
    }
    # Host-sensitive service numbers: reported, not gated (README.md).
    service = {
        "service.topology_setup_s": topology_setup_s,
        "service.cpu_us_per_eval": 1e6 * service_cpu_s / max(1, load["acked_tells"]),
        "service.evals_per_s": evals_per_s,
        "service.export_rows_per_s": load["export_rows_per_s"],
        "store.import_s": load["import_s"],
        "service.peak_rss_mb": load["peak_rss_mb"],
        **{f"client.{op}_p{q}_us": load[op][f"p{q}"]
           for op in ("ask", "tell", "open") for q in (50, 90, 99)},
    }
    print("perfbench service, not gated: " + json.dumps(service), flush=True)
    if trace:
        nproc = os.cpu_count() or 1
        metrics = dict(verify["metrics"])
        for algo in PAPER_ALGOS:
            metrics.setdefault(f"harness.experiment_s.{algo}", 0.0)
        metrics["common.pool_idle_core_s"] = nproc * wall - cpu
        metrics["common.campaign_cores"] = cpu / wall
        metrics.update(layers)
        metrics.update(service)
        metrics["trace.campaign_wall_s"] = wall
        metrics["trace.campaign_cpu_s"] = cpu
        report_overhead(ctx, name, e2e)
        units = LAYER_UNITS
    else:
        metrics = e2e
        units = E2E_UNITS
        with open(os.path.join(ctx["results"], f"untraced_{name}.json"), "w") as f:
            json.dump(e2e, f)
    missing = [k for k in units if k not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    attempted = load["attempted"] + verify["outcomes"] * len(campaigns)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": load["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }, errors


def report_overhead(ctx, name, traced):
    path = os.path.join(ctx["results"], f"untraced_{name}.json")
    if not os.path.exists(path):
        log("no untraced run of this workload in the checkout yet: tracing overhead not computed")
        return
    with open(path) as f:
        untraced = json.load(f)
    for key in ("campaign_wall_s", "campaign_cpu_s"):
        if not untraced.get(key):
            continue
        delta = traced[key] - untraced[key]
        log(f"tracing overhead {key}: traced {traced[key]:.6g} vs untraced {untraced[key]:.6g} "
            f"({100.0 * delta / untraced[key]:+.2f}%)")


# ---------------------------------------------------------------------------
# Gate self-test
# ---------------------------------------------------------------------------

def self_test(root, ctx, seed):
    """Each gate must pass on clean output and fail, with its own error, on
    one corrupted output that only that gate reads."""
    cases = [  # (corruption, workload, seed, the error the gate must raise)
        ("", "smbo_tell", COMMITTED_SEED, None),
        ("csv", "smbo_tell", COMMITTED_SEED, COMMITTED_ROWS_GATE),
        ("outcome", "smbo_tell", seed, "does not reproduce its campaign outcome"),
        ("tell", "smbo_tell", seed, "differs from in-process minimize()"),
        ("digest", "smbo_tell", seed, "primary and standby store digests differ"),
        ("", "sweep_warm", seed, None),
        ("drain", "sweep_warm", seed, "export drain of tenant"),
        ("export", "sweep_warm", seed, "final export drain differs from the oracle"),
    ]
    report, ok = [], True
    for corrupt, workload, case_seed, expect in cases:
        label = corrupt or "clean"
        result, errors = run_workload(root, ctx, workload, case_seed, 6, False, corrupt)
        if expect is None:
            passed = result["correct"] and not errors
        else:
            passed = not result["correct"] and any(expect in e for e in errors)
        ok &= passed
        report.append({"case": label, "workload": workload, "seed": case_seed,
                       "correct": result["correct"], "as_expected": passed, "errors": errors[:3]})
        log(f"self-test {label} on {workload}: correct={result['correct']} "
            f"({'as expected' if passed else 'UNEXPECTED'})")
    print(json.dumps({"self_test_ok": ok, "cases": report}))
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that every correctness gate fails on a corrupted output")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    root = os.getcwd()
    for needed in ("perfbench/CMakeLists.txt", "src/CMakeLists.txt",
                   "bench/fig2_percent_of_optimum.cpp", "repro_results/fig2.csv"):
        if not os.path.exists(os.path.join(root, needed)):
            log(f"run from the repo root: {needed} not found")
            return 2

    def on_signal(signo, _frame):
        raise KeyboardInterrupt(f"signal {signo}")

    signal.signal(signal.SIGTERM, on_signal)
    try:
        ctx = build(root)
        ctx["results"] = os.path.join(ctx["dir"], "results")
        os.makedirs(ctx["results"], exist_ok=True)
        if args.self_test:
            return self_test(root, ctx, args.seed)
        result, errors = run_workload(root, ctx, args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except (RuntimeError, OSError, KeyError, ValueError) as error:
        log(f"error: {error}")
        return 3
    finally:
        stop_all()
    for error in errors:
        log(f"gate failed: {error}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
