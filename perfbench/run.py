#!/usr/bin/env python3
"""End-to-end benchmark of the UNITY verifier (`unity-check`, `unity-serve`).

    python3 perfbench/run.py --workload check-ring --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py report --seeds 1,2 --seconds 30

Run from the repository root. The first form builds the release binaries
(and the traced replay), generates the workload's corpus from the seed,
sets up (three times; the median is `setup_s`), measures a closed loop
for `--seconds`, checks every verdict against the generator's known
answer, and prints one JSON object as the last stdout line. `--trace 1`
replays the same corpus in-process through each layer's public entry
point instead and reports per-layer metrics. The `report` form runs
every workload on each seed (`--runs` times) and prints each end-to-end
metric's median per seed side by side, with units and sample counts
(requests, or set-ups for `setup_s`, summed over the runs); it exits 1 on
any wrong verdict.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import collections
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import corpus  # noqa: E402

WORKLOADS = ("check-ring", "check-symbolic", "serve-session")
SETUP_REPEATS = 3
# Variables that change how the binaries run; a tier-1 CI pass sets
# UNITY_BUILD_THREADS=1, which must not leak into the timings.
SCRUBBED_ENV = ("UNITY_BUILD_THREADS", "UNITY_FAILPOINTS", "UNITY_FAILPOINTS_SEED")
E2E_UNITS = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "checks_per_s": "1/s",
    "cpu_ms_per_request": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


class BenchError(Exception):
    pass


# One timed request: when it ended (seconds into the timed phase), its
# latency, whether its verdicts were right, how many checks it carried,
# its class, and (CLI only) the child's CPU time.
Request = collections.namedtuple("Request", "end_s latency_ms ok checks cls cpu_ms")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    if not xs:
        return float("nan")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# --- environment ---------------------------------------------------------


class Env:
    """Paths, the scrubbed child environment and the provenance record."""

    def __init__(self, root):
        self.root = root
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.target = os.path.join(root, target) if not os.path.isabs(target) else target
        self.release = os.path.join(self.target, "release")
        self.check = os.path.join(self.release, "unity-check")
        self.serve = os.path.join(self.release, "unity-serve")
        self.tracer = os.path.join(self.release, "perfbench-trace")
        self.work = os.path.join(root, ".perfbench")
        self.child_env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}

    def require_sources(self):
        for rel in ("Cargo.toml", "Cargo.lock", "src/bin/unity-check.rs", "crates/serve/Cargo.toml",
                    "perfbench/trace/Cargo.toml"):
            if not os.path.isfile(os.path.join(self.root, rel)):
                raise BenchError(f"{rel} not found: run from the repository root")

    def build(self):
        """Builds every binary the benchmark drives, traced or not, so the
        first run in a checkout pays the whole build."""
        cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
        env = dict(self.child_env, CARGO_TARGET_DIR=self.target)
        steps = [
            # unity-serve on its own: the `failpoints` feature only comes
            # in through dev-dependencies, which a binary build never sees.
            cargo + ["-p", "unity-composition", "--bin", "unity-check",
                     "-p", "unity-serve", "--bin", "unity-serve"],
            cargo + ["--manifest-path", os.path.join(self.root, "perfbench/trace/Cargo.toml")],
        ]
        for cmd in steps:
            r = subprocess.run(cmd, cwd=self.root, env=env, stdout=sys.stderr)
            if r.returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)}")
        for binary in (self.check, self.serve, self.tracer):
            self.require_fresh(binary)
        self.require_no_failpoints()

    @staticmethod
    def require_fresh(binary):
        """Refuses a debug build or a binary older than any source file its
        dep-info lists."""
        if os.path.basename(os.path.dirname(binary)) != "release":
            raise BenchError(f"{binary}: not a release build")
        dep_info = binary + ".d"
        try:
            with open(dep_info) as f:
                deps = f.read().split(":", 1)[1].replace("\\\n", " ").split()
        except (OSError, IndexError):
            raise BenchError(f"{dep_info}: missing dep-info")
        built = os.path.getmtime(binary)
        stale = [d for d in deps if os.path.exists(d) and os.path.getmtime(d) > built]
        if stale:
            raise BenchError(f"{binary} is older than {stale[0]}")

    def require_no_failpoints(self):
        probe = subprocess.run(
            [self.serve, "--version"],
            env=dict(self.child_env, UNITY_FAILPOINTS="perfbench.probe=off"),
            capture_output=True, text=True, timeout=30)
        if "armed" in probe.stderr:
            raise BenchError("unity-serve was built with the failpoints feature")

    def source_digest(self):
        """SHA-256 over every source file the driven binaries were built
        from (their cargo dep-info): the revision of a tree that is not a
        git checkout."""
        files = set()
        for binary in (self.check, self.serve):
            with open(binary + ".d") as f:
                files.update(f.read().split(":", 1)[1].replace("\\\n", " ").split())
        h = hashlib.sha256()
        for path in sorted(files):
            h.update(os.path.relpath(path, self.root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
        return h.hexdigest()

    def provenance(self):
        """The git revision, or for a tree that is not a git checkout the
        source digest, with the host's CPU count."""
        rev = None
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=self.root,
                               capture_output=True, text=True, timeout=10)
            if r.returncode == 0:
                rev = "git:" + r.stdout.strip()
        except OSError:
            pass
        return {"nproc": os.cpu_count(), "revision": rev or "sources:" + self.source_digest(),
                "host": platform.machine(), "python": platform.python_version()}

    def remove(self, name):
        shutil.rmtree(os.path.join(self.work, name), ignore_errors=True)

    def fresh_dir(self, name):
        self.remove(name)
        path = os.path.join(self.work, name)
        os.makedirs(path)
        return path


class Clock:
    """The timed phase's clock, with the host's CPU steal over it (logged
    only: it tells a slow host from a slow program)."""

    def __init__(self):
        self.start = time.perf_counter()
        self.ticks = self.host_ticks()

    @staticmethod
    def host_ticks():
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:9]]
        return sum(ticks), ticks[7]

    def elapsed(self):
        return time.perf_counter() - self.start

    def steal_pct(self):
        total, steal = self.host_ticks()
        return 100.0 * (steal - self.ticks[1]) / max(1, total - self.ticks[0])


# --- CLI workloads ----------------------------------------------------------

FAIL_LINE = re.compile(r"^FAIL (\w+):", re.M)
PASS_LINE = re.compile(r"^PASS (\w+):", re.M)


def cli_args(workload):
    # check-ring runs one build thread: at the default (one per vCPU) the
    # sharded build's two threads need both vCPUs of a 2-vCPU host at
    # once, so host CPU steal on either one stalls it (see README).
    return ["--engine", "symbolic"] if workload == "check-symbolic" else ["--threads", "1"]


def cli_corpus(workload, seed):
    return corpus.ring_corpus(seed) if workload == "check-ring" else corpus.kstate_corpus(seed)


def expected_verdicts(spec):
    return {n: ("pass" if ok else "fail") for n, ok in spec.expected.items()}


def run_cli(env, path, spec, extra):
    """One request: spawn `unity-check`, reap it, check the verdicts.

    Returns (latency_ms, cpu_ms, max_rss_kb, ok, verdicts)."""
    t0 = time.perf_counter()
    p = subprocess.Popen([env.check, path] + extra, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, env=env.child_env)
    out = p.stdout.read().decode(errors="replace")
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    latency = (time.perf_counter() - t0) * 1e3
    p.returncode = os.waitstatus_to_exitcode(status)
    verdicts = {n: "pass" for n in PASS_LINE.findall(out)}
    verdicts.update({n: "fail" for n in FAIL_LINE.findall(out)})
    ok = p.returncode == (1 if spec.false_checks() else 0) and verdicts == expected_verdicts(spec)
    if not ok:
        log(f"wrong answer on {spec.name} (exit {p.returncode}):\n{out[-2000:]}")
    return latency, (ru.ru_utime + ru.ru_stime) * 1e3, ru.ru_maxrss, ok, verdicts


def cli_setup(env, workload, seed):
    """Corpus generation, spec files, one untimed pass over the corpus."""
    specs = cli_corpus(workload, seed)
    d = env.fresh_dir("specs")
    paths = []
    for s in specs:
        paths.append(os.path.join(d, s.name + ".unity"))
        with open(paths[-1], "w") as f:
            f.write(s.text)
    extra = cli_args(workload)
    wrong = sum(not run_cli(env, p, s, extra)[3] for p, s in zip(paths, specs))
    return specs, paths, wrong


def cli_workload(env, workload, seed, seconds):
    setups = []
    wrong_setup = 0
    for _ in range(SETUP_REPEATS):
        env.remove("specs")
        t0 = time.perf_counter()
        specs, paths, wrong = cli_setup(env, workload, seed)
        setups.append(time.perf_counter() - t0)
        wrong_setup += wrong
    extra = cli_args(workload)
    requests, rss = [], []
    clock = Clock()
    i = 0
    while clock.elapsed() < seconds:
        k = i % len(specs)
        ms, cpu_ms, rss_kb, ok, _ = run_cli(env, paths[k], specs[k], extra)
        requests.append(Request(clock.elapsed(), ms, ok, len(specs[k].expected), "cli", cpu_ms))
        rss.append(rss_kb)
        i += 1
    wall = clock.elapsed()
    return {
        "specs": specs,
        "setups": setups,
        "wrong_setup": wrong_setup,
        "requests": requests,
        "cpu_ms": sum(q.cpu_ms for q in requests),
        "peak_rss_kb": max(rss),
        "wall_s": wall,
        "steal_pct": clock.steal_pct(),
    }


# --- serve workload --------------------------------------------------------

LISTEN_LINE = re.compile(r"listening on http://([0-9.]+):([0-9]+)")
CLK_TCK = os.sysconf("SC_CLK_TCK")


class Daemon:
    """A `unity-serve` process on a fresh data directory."""

    def __init__(self, env, data_dir):
        self.proc = subprocess.Popen(
            [env.serve, "--data-dir", data_dir, "--addr", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env.child_env, text=True)
        line = self.proc.stdout.readline()
        m = LISTEN_LINE.search(line)
        if not m:
            self.stop()
            raise BenchError(f"unity-serve did not start: {line!r}")
        self.addr = (m.group(1), int(m.group(2)))

    def cpu_ms(self):
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) * 1e3 / CLK_TCK

    def hwm_kb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=40)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def post_verify(addr, spec):
    """One `POST /verify` on its own connection (the daemon closes every
    connection after one reply). Returns (latency_ms, response or None)."""
    body = {"spec": spec.text, "engine": "compiled", "universe": "reachable"}
    if spec.compositional:
        body["compositional"] = True
    payload = json.dumps(body).encode()
    head = (f"POST /verify HTTP/1.1\r\nhost: {addr[0]}:{addr[1]}\r\n"
            f"content-type: application/json\r\ncontent-length: {len(payload)}\r\n"
            "connection: close\r\n\r\n").encode()
    t0 = time.perf_counter()
    try:
        with socket.create_connection(addr, timeout=120) as s:
            s.sendall(head + payload)
            chunks = []
            while True:
                b = s.recv(1 << 16)
                if not b:
                    break
                chunks.append(b)
    except OSError as e:
        log(f"{spec.name}: {e}")
        return (time.perf_counter() - t0) * 1e3, None
    latency = (time.perf_counter() - t0) * 1e3
    raw = b"".join(chunks)
    head_end = raw.find(b"\r\n\r\n")
    status_line = raw.split(b"\r\n", 1)[0].split(b" ")
    if len(status_line) < 2 or status_line[1] != b"200" or head_end < 0:
        log(f"{spec.name}: bad reply {raw[:300]!r}")
        return latency, None
    try:
        return latency, json.loads(raw[head_end + 4:])
    except ValueError:
        log(f"{spec.name}: malformed reply body")
        return latency, None


def verdicts_ok(spec, resp):
    try:
        got = {c["name"]: c["verdict"] for c in resp["report"]["checks"]}
    except (KeyError, TypeError):
        return False
    if got != expected_verdicts(spec):
        log(f"wrong answer on {spec.name}: {got}")
        return False
    return True


# Request classes of the timed phase, in slot order of one schedule
# round (see README: why these shares).
SERVE_ROUND = ("flat", "edit", "flat", "grid", "flat", "edit", "grid", "flat", "grid", "edit")


def serve_schedule(cor, seed, conn):
    """Connection `conn`'s endless deterministic request stream:
    (class, spec) with flat resubmissions, check-line edits of flat specs
    and one-component edits of grids, interleaved by SERVE_ROUND."""
    rng = random.Random(f"serve-session/{seed}/conn{conn}")
    n = 0
    while True:
        for cls in SERVE_ROUND:
            if cls == "grid":
                g = rng.randrange(len(cor.grids))
                yield cls, cor.grid_edit(g, rng.randrange(cor.grid_sizes[g]), f"_c{conn}e{n}")
            else:
                f = rng.randrange(len(cor.flat))
                yield cls, cor.flat[f][1 if cls == "edit" else 0]
            n += 1


def serve_setup(env, seed):
    """Corpus generation, daemon start on a fresh data directory, one
    untimed pass over the working set on two connections (every flat
    product and every grid certificate is built here). Returns the
    running daemon."""
    cor = corpus.ServeCorpus(seed)
    data = env.fresh_dir("serve-data")
    daemon = Daemon(env, data)
    try:
        work = cor.working_set()
        wrong = [0, 0]

        def warm(conn):
            for spec in work[conn::2]:
                wrong[conn] += not verdicts_ok(spec, post_verify(daemon.addr, spec)[1])

        threads = [threading.Thread(target=warm, args=(c,)) for c in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    except BaseException:
        daemon.stop()
        raise
    return cor, daemon, sum(wrong)


def serve_workload(env, seed, seconds):
    """Sets up SETUP_REPEATS times (each set-up's span ends before its
    daemon stops, and the previous data directory is deleted before the
    next span starts), then drives the last set-up's daemon."""
    setups = []
    wrong_setup = 0
    daemon = None
    for _ in range(SETUP_REPEATS):
        if daemon is not None:
            daemon.stop()
        env.remove("serve-data")
        t0 = time.perf_counter()
        cor, daemon, wrong = serve_setup(env, seed)
        setups.append(time.perf_counter() - t0)
        wrong_setup += wrong
    results = [[], []]
    try:
        clock = Clock()
        cpu0 = daemon.cpu_ms()

        def client(conn):
            for cls, spec in serve_schedule(cor, seed, conn):
                if clock.elapsed() >= seconds:
                    return
                ms, resp = post_verify(daemon.addr, spec)
                results[conn].append(Request(clock.elapsed(), ms, verdicts_ok(spec, resp),
                                             len(spec.expected), cls, None))

        threads = [threading.Thread(target=client, args=(c,)) for c in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = clock.elapsed()
        cpu = daemon.cpu_ms() - cpu0
        steal = clock.steal_pct()
        hwm = daemon.hwm_kb()
    finally:
        daemon.stop()
        env.remove("serve-data")
    return {
        "specs": cor.working_set(),
        "setups": setups,
        "wrong_setup": wrong_setup,
        "requests": sorted(results[0] + results[1], key=lambda q: q.end_s),
        "cpu_ms": cpu,
        "peak_rss_kb": hwm,
        "wall_s": wall,
        "steal_pct": steal,
    }


# --- metrics ---------------------------------------------------------------


def run_workload(env, workload, seed, seconds):
    if workload == "serve-session":
        return serve_workload(env, seed, seconds)
    return cli_workload(env, workload, seed, seconds)


def e2e_metrics(r):
    """Every metric over the whole timed phase."""
    reqs = r["requests"]
    latency = [q.latency_ms for q in reqs]
    failed = sum(not q.ok for q in reqs)
    return {
        "setup_s": statistics.median(r["setups"]),
        "latency_ms_p50": percentile(latency, 50),
        "latency_ms_p90": percentile(latency, 90),
        "checks_per_s": sum(q.checks for q in reqs if q.ok) / r["wall_s"],
        "cpu_ms_per_request": r["cpu_ms"] / len(reqs),
        "peak_rss_mb": r["peak_rss_kb"] / 1024.0,
        "success_ratio": (len(reqs) - failed) / len(reqs),
    }


def describe(workload, seed, r, prov):
    """Human-readable record on stderr: provenance, samples, classes."""
    reqs = r["requests"]
    log(f"{workload} seed={seed} nproc={prov['nproc']} rev={prov['revision']} "
        f"corpus={corpus.digest(r['specs'])}")
    log(f"  requests={len(reqs)} failed={sum(not q.ok for q in reqs)} wall={r['wall_s']:.2f}s "
        f"setups={[round(s, 3) for s in r['setups']]} host steal={r['steal_pct']:.1f}%")
    by_class = {}
    for q in reqs:
        by_class.setdefault(q.cls, []).append(q.latency_ms)
    for cls, xs in sorted(by_class.items()):
        log(f"  class {cls}: n={len(xs)} p50={percentile(xs, 50):.2f}ms "
            f"p90={percentile(xs, 90):.2f}ms")


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def save_record(env, name, record):
    os.makedirs(os.path.join(env.work, "results"), exist_ok=True)
    path = os.path.join(env.work, "results", name + ".json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    log(f"record written to {os.path.relpath(path, env.root)}")


def measure(env, workload, seed, seconds):
    r = run_workload(env, workload, seed, seconds)
    prov = env.provenance()
    describe(workload, seed, r, prov)
    m = e2e_metrics(r)
    save_record(env, f"{workload}-seed{seed}", {
        "workload": workload, "seed": seed, "seconds": seconds, "provenance": prov,
        "corpus_digest": corpus.digest(r["specs"]), "metrics": m,
        "samples": {"requests": len(r["requests"]), "setups": len(r["setups"])},
        "host_steal_pct": r["steal_pct"],
        "requests": [q._asdict() for q in r["requests"]],
    })
    r["failed"] = sum(not q.ok for q in r["requests"])
    return r, m, r["failed"] == 0 and r["wrong_setup"] == 0


# --- entry points ----------------------------------------------------------


def main_run(args):
    env = Env(os.getcwd())
    env.require_sources()
    env.build()
    if args.trace:
        import layers
        correct, attempted, failed, metrics = layers.traced_run(env, args.workload, args.seed,
                                                                args.seconds)
        print(result_line(correct, attempted, failed, metrics, layers.UNITS))
        return 0
    r, m, correct = measure(env, args.workload, args.seed, args.seconds)
    print(result_line(correct, len(r["requests"]), r["failed"], m, E2E_UNITS))
    return 0


def main_report(args):
    """Every workload on every seed, `--runs` times each; the median of
    each end-to-end metric per seed, side by side."""
    env = Env(os.getcwd())
    env.require_sources()
    env.build()
    seeds = [int(s) for s in args.seeds.split(",")]
    print(f"{'workload':15} {'metric':20} {'unit':6} " +
          " ".join(f"{'seed ' + str(s):>12} {'n':>6}" for s in seeds), flush=True)
    all_correct = True
    for w in WORKLOADS:
        cols = []
        for seed in seeds:
            runs = []
            for _ in range(args.runs):
                r, m, correct = measure(env, w, seed, args.seconds)
                all_correct &= correct
                runs.append((r, m))
            cols.append(runs)
        for name, unit in E2E_UNITS.items():
            cells = []
            for runs in cols:
                value = statistics.median(m[name] for _, m in runs)
                n = sum(len(r["setups"]) if name == "setup_s" else len(r["requests"])
                        for r, _ in runs)
                cells.append(f"{value:12.4f} {n:6d}")
            print(f"{w:15} {name:20} {unit:6} " + " ".join(cells), flush=True)
    print("verdicts: " + ("all match the known answers" if all_correct else "WRONG VERDICTS"))
    return 0 if all_correct else 1


def main(argv):
    if argv and argv[0] == "report":
        p = argparse.ArgumentParser(prog="run.py report")
        p.add_argument("--seeds", default="1,2", help="comma-separated; the second is held out")
        p.add_argument("--seconds", type=int, default=30)
        p.add_argument("--runs", type=int, default=1, help="runs per workload and seed")
        return main_report(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return main_run(p.parse_args(argv))


def entry(argv):
    try:
        return main(argv)
    except BenchError as e:
        log(f"error: {e}")
        return 2


if __name__ == "__main__":
    # Run as the `run` module so layers.py shares this module's classes.
    import run

    sys.exit(run.entry(sys.argv[1:]))
