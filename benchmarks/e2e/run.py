"""End-to-end benchmark: the paper, yield, array and service workloads.

One invocation runs one workload for a fixed time, checks every output
it produces, and prints each metric by name with its unit as a median
with quartiles and sample count, followed by one JSON result line.
Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload paper     # seed 2007
    python3 benchmarks/e2e/run.py --workload yield --seed 11 --seconds 15
    python3 benchmarks/e2e/run.py --workload array --trace 1   # per layer
    python3 benchmarks/e2e/run.py --workload service --save set.json
    python3 benchmarks/e2e/run.py --workload paper \
        --compare benchmarks/e2e/baseline.json

Every measured round runs in a fresh interpreter (``child.py``) and is
timed from this process, by when the child's output lines arrive; peak
RSS comes from ``os.wait4``.  The seed picks the inputs (experiment
order, estimator seed, variation corners, query points and arrival
times) and nothing else; the children receive the generated inputs.
The exit code is 0 only when every correctness check passed.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import queue
import random
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time

from tracing import LAYERS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"
SPEC_PATH = ROOT / "BENCHMARK.json"

WORKLOADS = ("paper", "yield", "array", "service")

#: Rounds per run at least, whatever ``--seconds`` says, and set-up
#: samples per run at least (topped up with set-up-only spawns).
MIN_ROUNDS = 2
MIN_SETUPS = 5

#: A ``--trace 1`` run makes at least this many traced/untraced pairs,
#: whatever ``--seconds`` says, unless another pair would take the
#: rounds past ``TRACE_CAP_S``; that keeps a run on a slow machine
#: within the three minutes one run may take.
MIN_TRACE_PAIRS = 5
TRACE_CAP_S = 130.0

#: A child still running after this is killed and its round counted
#: failed, so that a run always ends.
ROUND_TIMEOUT_S = 120.0

#: The ``paper`` set is every registered experiment but these two,
#: which are the heart of the ``yield`` and ``array`` workloads.
OWN_WORKLOAD = ("ext_yield", "ext_array")

#: Seeded yield point: ext_yield's super-V_th SNM curve at 0.115 V,
#: estimated again from a seeded stream with a 4x trial budget.
YIELD_POINT = {"kind": "yield_point", "strategy": "super-vth",
               "node": "32nm", "vdd_v": 0.115, "mode": "snm",
               "method": "qmc-is", "n_trials": 1024, "r_max_sigma": 10.0}

#: Seeded write study: a 32-row sub-V_th column at 0.30 V and four
#: access corners, one drawn from each quartile of N(0, 15 mV).  The
#: outer 0.5 % of each quartile is not drawn, which keeps the corners
#: within about 3 sigma.
WRITE_STUDY = {"kind": "write_study", "strategy": "sub-vth",
               "node": "32nm", "vdd_v": 0.30, "rows": 32}
CORNER_SIGMA_V = 0.015

#: Service traffic.  Closed loop: one client sends in-hull and
#: off-grid ``metrics`` queries back to back, shuffled.  The counts
#: give each tier about half of the ~3.3 s phase (surrogate ~0.27 ms,
#: exact ~33 ms a query), so a change in either tier moves the
#: phase's wall time.  Open loop: Poisson arrivals from one writer
#: thread; three exact-tier classes share the 5 % of queries the
#: surrogate cannot answer.
CLOSED_SURROGATE = 5000
CLOSED_EXACT = 50
OPEN_RATE_QPS = 150.0
OPEN_S = 4.0
OPEN_MIX = (("surrogate", 0.95), ("exact", 0.03), ("corner", 0.015),
            ("flavour", 0.005))
OFF_GRID_VDD_V = (0.34, 0.45)
REPLY_TIMEOUT_S = 10.0
MAX_GEN_LAG_P99_MS = 1.0

#: Counters read from ``repro.perf.snapshot()`` in traced rounds.
COUNTERS = (
    "poisson.newton_iterations",
    "numerics.total_lanes",
    "circuit.vtc_batch_points",
    "circuit.balance_bisection_sweeps",
    "circuit.mna.newton_sweeps",
    "circuit.mna.device_evals",
    "circuit.mna.transient_steps",
    "scaling.doping_bisection_sweeps",
    "scaling.family.doping_bisection_sweeps",
    "variability.estimator_trials",
    "variability.shift_probes",
)

#: Ratios of counters: name -> (numerator, denominator terms, unit).
RATIOS = {
    "numerics.active_lane_frac": (
        "numerics.active_lanes", ("numerics.total_lanes",), "frac"),
    "circuit.mna.device_evals_per_sweep": (
        "circuit.mna.device_evals", ("circuit.mna.newton_sweeps",),
        "evals/sweep"),
    "circuit.mna.active_lane_frac": (
        "circuit.mna.active_lanes", ("circuit.mna.total_lanes",), "frac"),
    "cache.device.hit_ratio": (
        "cache.device.hits", ("cache.device.hits", "cache.device.misses"),
        "frac"),
    "cache.bracket.hit_ratio": (
        "cache.bracket.hits", ("cache.bracket.hits", "cache.bracket.misses"),
        "frac"),
    "service.surrogate_hit_frac": (
        "service.surrogate_hits",
        ("service.surrogate_hits", "service.exact_fallbacks"), "frac"),
}


# -- statistics ----------------------------------------------------------

def summarise(values: list[float], unit: str) -> dict:
    """Median, quartiles and count of one metric's per-round values."""
    if len(values) > 1:
        q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "unit": unit}


def percentile(values: list[float], pct: int, unit: str) -> dict | None:
    """A percentile pooled over rounds, or None unless at least ten
    samples lie beyond it."""
    if len(values) * (100 - pct) / 100 < 10:
        return None
    value = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return {"median": value, "q1": None, "q3": None, "n": len(values),
            "unit": unit}


def ratio(counts: dict, numerator: str, denominator: tuple[str, ...]) -> float:
    base = sum(counts.get(name, 0) for name in denominator)
    return counts.get(numerator, 0) / base if base else 0.0


def relative_spread(stats: dict) -> float:
    if stats["q1"] is None or not stats["median"]:
        return 0.0
    return (stats["q3"] - stats["q1"]) / abs(stats["median"])


class Tally:
    """Operations attempted and failed, with a reason per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def count(self, attempted: int, failed: int, reason: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.reasons.append(reason)

    def check(self, ok: bool, reason: str) -> None:
        self.count(1, 0 if ok else 1, reason)


# -- child processes -----------------------------------------------------

def child_env(cache_dir: pathlib.Path | None = None) -> dict:
    """The children's environment: no inherited ``REPRO_*`` settings
    (so no disk cache unless ``cache_dir`` is given), ``src`` on the
    path, and single-threaded BLAS so that a busy child never runs more
    threads than there are cores."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def spawn(args: list[str], env: dict, stderr,
          stdin=subprocess.DEVNULL) -> subprocess.Popen:
    """A Python child run from the repository root, stdout piped."""
    return subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                            stdin=stdin, stdout=subprocess.PIPE,
                            stderr=stderr)


def reap(proc: subprocess.Popen) -> float:
    """Wait for a child; returns its peak RSS [MB]."""
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def watchdog(proc: subprocess.Popen) -> threading.Timer:
    """A started timer that kills ``proc`` after ``ROUND_TIMEOUT_S``;
    cancel it once the child has been reaped."""
    timer = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def import_setup(log) -> float | None:
    """Spawn a child that only imports ``repro``; its set-up time."""
    start = time.perf_counter()
    proc = spawn([str(CHILD), "import"], child_env(), log)
    line = proc.stdout.readline()
    ready = time.perf_counter()
    proc.stdout.read()
    reap(proc)
    return ready - start if line and proc.returncode == 0 else None


# -- batch workloads: paper, yield, array --------------------------------

def paper_experiments() -> list[str]:
    from repro.experiments import experiment_ids
    return [eid for eid in experiment_ids() if eid not in OWN_WORKLOAD]


def batch_ops(workload: str, rng: random.Random) -> list[dict]:
    """One round's inputs."""
    if workload == "paper":
        ids = paper_experiments()
        rng.shuffle(ids)
        return [{"kind": "experiment", "id": eid} for eid in ids]
    if workload == "yield":
        return [{"kind": "experiment", "id": "ext_yield"},
                dict(YIELD_POINT, seed=rng.randrange(1 << 31))]
    normal = statistics.NormalDist(0.0, CORNER_SIGMA_V)
    corners = [normal.inv_cdf((k + rng.uniform(0.005, 0.995)) / 4)
               for k in range(4)]
    return [{"kind": "experiment", "id": "ext_array"},
            dict(WRITE_STUDY, dvth_n_v=corners)]


def run_batch_round(ops: list[dict], spans: pathlib.Path | None,
                    log) -> dict:
    """One fresh child runs ``ops``; times come from line arrivals."""
    args = [str(CHILD), "round", json.dumps(ops)]
    if spans is not None:
        args.append(str(spans))
    start = time.perf_counter()
    proc = spawn(args, child_env(), log)
    timer = watchdog(proc)
    ready = last = done = None
    results = []
    for raw in iter(proc.stdout.readline, b""):
        now = time.perf_counter()
        line = json.loads(raw)
        if "ready" in line:
            ready = now
        elif "op" in line:
            results.append(line)
            last = now
        elif "done" in line:
            done = line
    rss = reap(proc)
    timer.cancel()
    complete = (proc.returncode == 0 and done is not None
                and len(results) == len(ops))
    return {"complete": complete, "results": results,
            "perf": done["perf"] if done else {},
            "trace": done["trace"] if done else None,
            "setup_s": ready - start if ready else None,
            "wall_s": last - ready if complete else None,
            "rss_mb": rss}


def check_batch_round(ops: list[dict], rnd: dict, digests: dict,
                      tally: Tally) -> None:
    tally.check(rnd["complete"], "child round did not finish")
    for op, out in zip(ops, rnd["results"]):
        name = out["op"]
        if "error" in out:
            tally.check(False, f"{name}: {out['error']}")
        elif op["kind"] == "experiment":
            missed = out["claims"] - out["held"]
            tally.count(out["claims"], missed,
                        f"{name}: {missed} claim(s) did not hold")
            first = digests.setdefault(name, out["digest"])
            tally.check(out["digest"] == first,
                        f"{name}: rendered result differs between rounds")
        elif op["kind"] == "yield_point":
            ci, ref = out["ci"], out["ref_ci"]
            tally.check(ref is not None and ci[0] <= ref[1]
                        and ref[0] <= ci[1],
                        f"yield point: 95% CI {ci} misses ext_yield's {ref}")
        else:
            pairs = sorted(zip(out["dvth_n_v"], out["pulse_s"]))
            # A NaN pulse is a corner that cannot be written: allowed.
            pulses = [p for _dv, p in pairs if not math.isnan(p)]
            tally.check(all(a <= b for a, b in zip(pulses, pulses[1:])),
                        f"write study: min pulse not monotone in dVth,n "
                        f"{pairs}")


# -- service workload ----------------------------------------------------

class ServiceInputs:
    """Seeded query points over the quick grid the server loads."""

    def __init__(self) -> None:
        from repro.scaling.roadmap import node_by_name
        from repro.service import GridSpec
        self.spec = GridSpec.quick()
        self.etched_nm = {name: node_by_name(name).l_poly_nm
                          for name in self.spec.nodes}

    def query(self, rng: random.Random, cls: str, qid: str) -> dict:
        """One request of class ``cls``: ``surrogate`` (in-hull
        metrics), ``exact`` (off-grid metrics), ``corner`` (ss/ff
        snm_vmin) or ``flavour`` (an off-grid flavour menu)."""
        spec = self.spec

        def inside(axis):
            # Kept off the hull's faces, where rounding could land a
            # point just outside and send it to the exact tier.
            return axis[0] + (axis[-1] - axis[0]) * rng.uniform(0.001, 0.999)

        node = rng.choice(spec.nodes)
        l_poly_nm = inside(spec.l_ratios) * self.etched_nm[node]
        ioff = 10.0 ** inside(spec.log10_ioff)
        vdd = (inside(spec.vdd_v) if cls in ("surrogate", "corner")
               else rng.uniform(*OFF_GRID_VDD_V))
        request = {"query": "metrics", "node": node, "l_poly_nm": l_poly_nm,
                   "ioff_target_a_per_um": ioff, "vdd_v": vdd, "id": qid}
        if cls == "corner":
            request.update(query="snm_vmin", corner=rng.choice(("ss", "ff")))
        elif cls == "flavour":
            request["query"] = "flavour_menu"
        return request

    def closed(self, rng: random.Random) -> list[tuple[str, dict]]:
        classes = (["surrogate"] * CLOSED_SURROGATE
                   + ["exact"] * CLOSED_EXACT)
        rng.shuffle(classes)
        return [(cls, self.query(rng, cls, f"c{i}"))
                for i, cls in enumerate(classes)]

    def open(self, rng: random.Random) -> list[tuple[float, str, dict]]:
        """(due offset [s], class, request) at Poisson arrival times."""
        names = [name for name, _w in OPEN_MIX]
        weights = [w for _name, w in OPEN_MIX]
        schedule, t = [], rng.expovariate(OPEN_RATE_QPS)
        while t < OPEN_S:
            cls = rng.choices(names, weights)[0]
            qid = f"o{len(schedule)}"
            schedule.append((t, cls, self.query(rng, cls, qid)))
            t += rng.expovariate(OPEN_RATE_QPS)
        return schedule


def reply_ok(cls: str, request: dict, reply: dict) -> bool:
    """Answered ``request``, from the right tier, with finite values
    throughout."""
    if not reply.get("ok") or reply.get("id") != request["id"]:
        return False
    if reply["provenance"]["source"] != ("surrogate" if cls == "surrogate"
                                         else "exact"):
        return False
    if cls == "flavour":
        values = [v for f in reply["flavours"].values()
                  for v in f["values"].values()]
    else:
        values = list(reply["values"].values())
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values)


def build_grid(log) -> tuple[float, bool]:
    """``repro grid build --quick --jobs 1`` into a fresh cache."""
    cache = OUT / "grid-cache"
    shutil.rmtree(cache, ignore_errors=True)
    start = time.perf_counter()
    proc = spawn(["-m", "repro", "grid", "build", "--quick", "--jobs", "1"],
                 child_env(cache), log)
    timer = watchdog(proc)
    proc.stdout.read()
    reap(proc)
    timer.cancel()
    return time.perf_counter() - start, proc.returncode == 0


class Server:
    """One ``repro serve --quick`` over stdio on a fresh copy of the
    built grid cache (exact answers spill brackets into the cache, so
    a shared one would warm later rounds)."""

    def __init__(self, log, traced: bool = False) -> None:
        cache = OUT / "service-cache"
        shutil.rmtree(cache, ignore_errors=True)
        shutil.copytree(OUT / "grid-cache", cache)
        self.summary_path = OUT / "service.trace.json"
        args = (["-m", "repro", "serve", "--quick"] if not traced else
                [str(CHILD), "serve", str(OUT / "service.spans.jsonl"),
                 str(self.summary_path)])
        start = time.perf_counter()
        self.proc = spawn(args, child_env(cache), subprocess.PIPE,
                          stdin=subprocess.PIPE)
        self._watchdog = watchdog(self.proc)
        self.ready = False
        for raw in iter(self.proc.stderr.readline, b""):
            log.write(raw)
            if b"design-space service ready" in raw:
                self.ready = b"surrogate+exact" in raw
                break
        self.setup_s = time.perf_counter() - start
        self.replies: queue.Queue = queue.Queue()
        self._reader: threading.Thread | None = None

    def reply(self, timeout_s: float) -> tuple[float, dict] | None:
        """The next reply and its arrival time, read by the caller;
        None if none comes within ``timeout_s``.  For the closed loop,
        where one request is outstanding at a time, so no reply can
        wait in the pipe's read buffer unseen by ``select``."""
        if not select.select([self.proc.stdout], [], [], timeout_s)[0]:
            return None
        raw = self.proc.stdout.readline()
        return (time.perf_counter(), json.loads(raw)) if raw else None

    def start_reader(self) -> None:
        """From now on a thread reads the replies into ``replies``, each
        with its arrival time: the open loop's caller is busy sending.
        The closed loop reads in the caller because a hop through a
        thread doubled the measured surrogate latency."""
        self._reader = threading.Thread(target=self._read)
        self._reader.start()

    def _read(self) -> None:
        for raw in iter(self.proc.stdout.readline, b""):
            self.replies.put((time.perf_counter(), json.loads(raw)))

    def send(self, request: dict) -> float:
        self.proc.stdin.write(json.dumps(request).encode() + b"\n")
        self.proc.stdin.flush()
        return time.perf_counter()

    def close(self, log) -> float:
        """End the session (EOF); returns the server's peak RSS [MB]."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass  # the server is gone already; reap it below
        if self._reader is not None:
            self._reader.join()
        else:
            self.proc.stdout.read()
        log.write(self.proc.stderr.read())
        rss = reap(self.proc)
        self._watchdog.cancel()
        return rss


def closed_phase(server: Server, closed: list, tally: Tally,
                 rnd: dict) -> bool:
    """One request in flight at a time; True when all were answered."""
    start = last = time.perf_counter()
    answered = 0
    for cls, request in closed:
        sent = server.send(request)
        got = server.reply(REPLY_TIMEOUT_S)
        if got is None:
            break
        last, reply = got
        answered += 1
        tally.check(reply_ok(cls, request, reply),
                    f"{request['id']} ({cls}): bad reply {reply}")
        rnd["surrogate_ms" if cls == "surrogate" else "exact_ms"].append(
            1e3 * (last - sent))
    missing = len(closed) - answered
    tally.count(missing, missing, f"{missing} closed-loop queries unanswered")
    if not missing:
        rnd["wall_s"] = last - start
    return not missing


def open_phase(server: Server, schedule: list, tally: Tally,
               rnd: dict) -> None:
    """Requests go out when due, whatever is outstanding; latency
    counts from the due time.  The server answers one line per request
    in order, so the k-th reply belongs to the k-th request."""
    server.start_reader()
    base = time.perf_counter() + 0.05
    for offset, _cls, request in schedule:
        target = base + offset
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        rnd["lag_ms"].append(1e3 * (server.send(request) - target))
    answered = 0
    for offset, cls, request in schedule:
        target = base + offset
        try:
            arrived, reply = server.replies.get(timeout=max(
                0.0, target + REPLY_TIMEOUT_S - time.perf_counter()))
        except queue.Empty:
            break
        answered += 1
        tally.check(reply_ok(cls, request, reply),
                    f"{request['id']} ({cls}): bad reply {reply}")
        rnd["open_ms"][request["id"]] = 1e3 * (arrived - target)
    missing = len(schedule) - answered
    tally.count(missing, missing, f"{missing} open-loop queries unanswered")


def run_service_round(inputs: ServiceInputs, rng: random.Random,
                      traced: bool, tally: Tally, log) -> dict:
    closed, schedule = inputs.closed(rng), inputs.open(rng)
    server = Server(log, traced)
    tally.check(server.ready, "server did not report a surrogate+exact start")
    rnd = {"setup_s": server.setup_s, "surrogate_ms": [], "exact_ms": [],
           "open_ms": {}, "lag_ms": [], "wall_s": None, "trace": None,
           "perf": None}
    try:
        if server.ready and closed_phase(server, closed, tally, rnd):
            open_phase(server, schedule, tally, rnd)
    except BrokenPipeError:
        tally.check(False, "server stopped reading requests")
    rnd["rss_mb"] = server.close(log)
    tally.check(server.proc.returncode == 0, "server exited with an error")
    if traced and server.proc.returncode == 0:
        summary = json.loads(server.summary_path.read_text())
        rnd["perf"] = summary.pop("perf")
        handle = summary.pop("handle_ms")
        rnd["wait_ms"] = [latency - handle[qid]
                          for qid, latency in rnd["open_ms"].items()
                          if qid in handle]
        rnd["trace"] = summary
    return rnd


def service_setup(log) -> float | None:
    server = Server(log)
    server.close(log)
    return server.setup_s if server.ready else None


# -- one workload --------------------------------------------------------

def layer_metrics(traced: list[dict]) -> dict:
    """Per-layer metrics from the traced rounds.

    Times are medians over the traced rounds.  Counts come from the
    first traced round alone: its inputs depend only on the seed, while
    how many rounds fit in the run depends on the machine, so a count
    repeats exactly for a given seed.
    """
    first = traced[0]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = summarise([first["trace"]["calls"][layer]],
                                          "count")
        out[f"{layer}.self_s"] = summarise(
            [r["trace"]["self_s"][layer] for r in traced], "s")
        out[f"{layer}.self_frac"] = summarise(
            [r["trace"]["self_s"][layer] / r["trace"]["wall_s"]
             for r in traced], "frac")
    out["trace.wall_s"] = summarise(
        [r["trace"]["wall_s"] for r in traced], "s")
    out["trace.unattributed_frac"] = summarise(
        [r["trace"]["unattributed_s"] / r["trace"]["wall_s"]
         for r in traced], "frac")
    for name in COUNTERS:
        out[name] = summarise([first["perf"].get(name, 0)], "count")
    for name, (numerator, denominator, unit) in RATIOS.items():
        out[name] = summarise([ratio(first["perf"], numerator, denominator)],
                              unit)
    return out


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Warm up, run rounds for ``seconds``, top up set-up samples,
    check and summarise.  With ``trace`` the rounds come in pairs on
    the same inputs, one of them traced, so that the pair measures the
    tracing overhead; at least ``MIN_TRACE_PAIRS`` pairs run."""
    OUT.mkdir(exist_ok=True)
    tally, rounds, digests, info = Tally(), [], {}, {}
    with open(OUT / f"{workload}.log", "wb") as log:
        import_setup(log)  # untimed warm-up: page cache, bytecode
        if workload == "service":
            inputs = ServiceInputs()
            build_s, built = build_grid(log)
            tally.check(built, "repro grid build failed")
            if not built:
                return finish(workload, seed, tally, rounds, [], info)
            info["grid_build_s"] = summarise([build_s], "s")
        min_rounds = 2 * MIN_TRACE_PAIRS if trace else MIN_ROUNDS
        spent, index = 0.0, 0
        while (index < min_rounds or spent < seconds
               or (trace and index % 2)):
            if (trace and index >= 2 and not index % 2
                    and spent * (index + 2) / index > TRACE_CAP_S):
                break  # one more pair would overrun the time cap
            # Pairs alternate which side runs first, so that a drift in
            # machine speed does not read as tracing overhead.
            traced = trace and index % 2 != (index // 2) % 2
            inputs_index = index // 2 if trace else index
            rng = random.Random(f"{workload}:{seed}:{inputs_index}")
            began = time.perf_counter()
            if workload == "service":
                rnd = run_service_round(inputs, rng, traced, tally, log)
            else:
                ops = batch_ops(workload, rng)
                spans = OUT / f"{workload}.spans.jsonl" if traced else None
                rnd = run_batch_round(ops, spans, log)
                check_batch_round(ops, rnd, digests, tally)
            spent += time.perf_counter() - began
            rnd["traced"] = traced
            rounds.append(rnd)
            index += 1
        setup_only = service_setup if workload == "service" else import_setup
        setups = [r["setup_s"] for r in rounds
                  if not r["traced"] and r["setup_s"] is not None]
        while len(setups) < MIN_SETUPS:
            sample = setup_only(log)
            tally.check(sample is not None, "set-up spawn failed")
            if sample is None:
                break
            setups.append(sample)
    return finish(workload, seed, tally, rounds, setups, info)


def finish(workload: str, seed: int, tally: Tally, rounds: list[dict],
           setups: list[float], info: dict) -> dict:
    """Fold the rounds and set-up samples into the workload's metrics."""
    plain = [r for r in rounds if not r["traced"] and r["wall_s"] is not None]
    traced = [r for r in rounds if r["traced"] and r["trace"] is not None]
    metrics = {}
    if plain:
        metrics["wall_s"] = summarise([r["wall_s"] for r in plain], "s")
        metrics["peak_rss_mb"] = summarise([r["rss_mb"] for r in plain], "MB")
    if setups:
        metrics["setup_s"] = summarise(setups, "s")
    notes = []
    open_valid = True
    lags = [v for r in rounds for v in r.get("lag_ms", ())]
    if len(lags) > 1:
        # A validity check on the load generator, so it is computed
        # from every round even where fewer than ten samples lie beyond.
        lag_p99 = statistics.quantiles(lags, n=100, method="inclusive")[98]
        info["gen_lag_p99_ms"] = {"median": lag_p99, "q1": None, "q3": None,
                                  "n": len(lags), "unit": "ms"}
        open_valid = lag_p99 <= MAX_GEN_LAG_P99_MS
        if not open_valid:
            notes.append(f"open loop invalid: generator lag p99 "
                         f"{lag_p99:.3g} ms > {MAX_GEN_LAG_P99_MS:g} ms, so "
                         "its latencies are not reported")
    if workload == "service" and plain:
        pooled = {key: [v for r in plain for v in r[key]]
                  for key in ("surrogate_ms", "exact_ms")}
        pooled["open_ms"] = [v for r in plain for v in r["open_ms"].values()]
        for name, key, pct in (
                ("surrogate_p50_ms", "surrogate_ms", 50),
                ("surrogate_p99_ms", "surrogate_ms", 99),
                ("exact_p50_ms", "exact_ms", 50),
                ("exact_p90_ms", "exact_ms", 90),
                ("open_p50_ms", "open_ms", 50),
                ("open_p99_ms", "open_ms", 99)):
            if open_valid or key != "open_ms":
                info[name] = percentile(pooled[key], pct, "ms")
    layers = {}
    if traced:
        layers = layer_metrics(traced)
        # Rounds 2k and 2k+1 ran the same inputs, one of them traced.
        overheads = []
        for a, b in zip(rounds[::2], rounds[1::2]):
            off, on = (b, a) if a["traced"] else (a, b)
            if off["wall_s"] and on["wall_s"]:
                overheads.append(on["wall_s"] / off["wall_s"] - 1.0)
        if overheads:
            layers["trace.overhead_frac"] = summarise(overheads, "frac")
        if workload == "service" and open_valid:
            waits = [v for r in traced for v in r["wait_ms"]]
            info["service.wait_p50_ms"] = percentile(waits, 50, "ms")
            info["service.wait_p99_ms"] = percentile(waits, 99, "ms")
    return {"workload": workload, "seed": seed, "rounds": len(rounds),
            "traced_rounds": len(traced), "attempted": tally.attempted,
            "failed": tally.failed, "reasons": tally.reasons,
            "notes": notes, "metrics": metrics, "info": info,
            "layers": layers}


# -- reporting -----------------------------------------------------------

def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def print_report(result: dict) -> None:
    print(f"== {result['workload']}: seed {result['seed']}, "
          f"{result['rounds']} rounds ({result['traced_rounds']} traced), "
          f"{result['failed']}/{result['attempted']} ops failed ==")
    print(f"  {'metric':<40} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'n':>5}  unit")
    fail_frac = {"median": result["failed"] / max(result["attempted"], 1),
                 "q1": None, "q3": None, "n": result["attempted"],
                 "unit": "failed/attempted"}
    for title, table in (("end to end", result["metrics"]),
                         ("also measured", {**result["info"],
                                            "fail_frac": fail_frac}),
                         ("per layer (traced rounds)", result["layers"])):
        if not table:
            continue
        print(f"  -- {title} --")
        for name, stats in table.items():
            if stats is None:
                print(f"  {name:<40} {'n/a':>11}  (fewer than ten samples "
                      "would lie beyond this percentile)")
                continue
            print(f"  {name:<40} {_fmt(stats['median']):>11} "
                  f"{_fmt(stats['q1']):>11} {_fmt(stats['q3']):>11} "
                  f"{stats['n']:>5}  {stats['unit']}")
    for note in result["notes"]:
        print(f"  NOTE: {note}")
    for reason in result["reasons"][:20]:
        print(f"  FAILED: {reason}")


def result_line(result: dict, spec: dict, trace: bool) -> dict:
    """The machine-readable last line: every metric BENCHMARK.json
    lists for this mode, by its name there."""
    table = result["layers"] if trace else result["metrics"]
    metrics, complete = {}, True
    for entry in spec["per_layer" if trace else "end_to_end"]:
        stats = table.get(entry["name"])
        if stats is None:
            complete = False
            continue
        metrics[entry["name"]] = {"value": stats["median"],
                                  "unit": entry["unit"]}
    return {"correct": complete and result["failed"] == 0,
            "attempted": max(1, result["attempted"]),
            "failed": result["failed"], "metrics": metrics}


def provenance(seed: int, seconds: float) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "machine": f"{platform.machine()}, {cpu}",
            "python": platform.python_version(), "seed": seed,
            "seconds": seconds,
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def save(path: pathlib.Path, result: dict, seed: int, seconds: float) -> None:
    """Write the workload's metrics, quartiles and provenance into the
    set file at ``path``, keeping the other workloads already in it."""
    saved = json.loads(path.read_text()) if path.exists() else {}
    saved.setdefault("workloads", {})[result["workload"]] = {
        "provenance": provenance(seed, seconds),
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {**result["metrics"], **result["info"],
                    **result["layers"]}}
    path.write_text(json.dumps(saved, indent=1) + "\n")


def compare(base: dict, result: dict, spec: dict) -> None:
    """One row per end-to-end metric against ``base``, a set file
    written by ``--save`` or ``baseline.json`` (its last set).

    A metric is unresolved when the rounds' relative quartile spread,
    on either side, is wider than its bound; otherwise a median move
    beyond the bound is improved or worse, and anything within it is
    unchanged.
    """
    if "sets" in base:
        base = base["sets"][-1]
    before = base["workloads"].get(result["workload"], {})
    sha = before.get("provenance", {}).get("git_sha") or "base"
    print(f"== {result['workload']}: compare with {sha} ==")
    print(f"  {'metric':<14} {'base':>11} {'now':>11} {'change':>8} "
          f"{'bound':>6}  verdict")
    for entry in spec["end_to_end"]:
        old = before.get("metrics", {}).get(entry["name"])
        new = result["metrics"].get(entry["name"])
        bound = entry["bound"]
        if old is None or new is None:
            print(f"  {entry['name']:<14} {'-':>11} {'-':>11} {'-':>8} "
                  f"{bound:>6.0%}  unresolved")
            continue
        change = new["median"] / old["median"] - 1.0
        worse = change if entry["better"] == "lower" else -change
        if max(relative_spread(old), relative_spread(new)) > bound:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "worse"
        elif worse < -bound:
            verdict = "improved"
        else:
            verdict = "unchanged"
        print(f"  {entry['name']:<14} {_fmt(old['median']):>11} "
              f"{_fmt(new['median']):>11} {change:>+8.1%} {bound:>6.0%}  "
              f"{verdict}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True,
                        help="workload to run")
    parser.add_argument("--seed", type=int, default=2007,
                        help="input seed (default 2007)")
    parser.add_argument("--seconds", type=float,
                        help="measured time (default: run_seconds in "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: trace every other round and report the "
                             "per-layer metrics")
    parser.add_argument("--save", metavar="FILE",
                        help="write every metric with its quartiles and "
                             "the machine's provenance into the set file "
                             "FILE, keeping other workloads in it")
    parser.add_argument("--compare", metavar="BASE",
                        help="label each end-to-end metric against a set "
                             "file written by --save (or baseline.json)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    # Inputs are drawn here, so this process reads the experiment list
    # and the grid axes from the package; it never runs the program.
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC_PATH.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    result = run_workload(args.workload, args.seed, seconds,
                          bool(args.trace))
    print_report(result)
    if args.save:
        save(pathlib.Path(args.save), result, args.seed, seconds)
    if args.compare:
        compare(json.loads(pathlib.Path(args.compare).read_text()), result,
                spec)
    line = result_line(result, spec, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
