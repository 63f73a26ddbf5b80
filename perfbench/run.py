#!/usr/bin/env python3
"""End-to-end benchmark of the Planaria simulator.

Runs one workload with the repository's own CLIs, each as a separate
process, and prints every end-to-end metric with its unit. With --trace 1
it instead runs the same workload through the layers' public Go functions
(the perfbench-tracer program in this directory) and prints the per-layer
metrics and the cost ledger. The last line of standard output is the
result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

    python3 perfbench/run.py --workload replay_cfm_planaria --seed 1 --seconds 8 --trace 0

Workloads, metrics and the output check are described in perfbench/README.md.
Everything the benchmark builds or writes goes under .bench_build/.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
WORK_REL = os.path.join(".bench_build", "perfbench")  # relative to ROOT
WORK = os.path.join(ROOT, WORK_REL)
EXPECTED = os.path.join(HERE, "expected.json")

NPROC = len(os.sched_getaffinity(0))
CHILD_TIMEOUT_S = 170

# Replay workloads: one CFM or Fort trace written by cmd/tracegen from the
# benchmark seed, replayed through the mmap path under one prefetcher.
REPLAYS = {
    "replay_cfm_planaria": {"app": "CFM", "pf": "planaria"},
    "replay_fort_bop": {"app": "Fort", "pf": "bop"},
}
REPLAY_RECORDS = 10_000_000
# Planaria's AMAT reduction and traffic overhead on a replay workload are
# the means over COMPARE_TRACES shorter traces of the same app, with seeds
# derived from the benchmark seed, each replayed once under every comparison
# prefetcher. One trace per run would make them swing with the seed: on
# Fort, the reduction against BOP differs by about 4 points between
# neighbouring trace seeds, and a longer trace does not narrow that.
COMPARE_TRACES = 4
COMPARE_RECORDS = 1_250_000
COMPARE_PFS = ["none", "bop", "spp", "planaria"]
BUNDLE_RECORDS = 800_000  # the scale EXPERIMENTS.md documents
SETUP_REPEATS = 3
MIN_REPEATS = {"bundle": 1, "replay": 3}


class BuildError(Exception):
    pass


def child_env():
    """Pin the host settings every run shares and keep the Go toolchain's
    caches inside the checkout."""
    env = dict(os.environ)
    env.update(
        GOMAXPROCS=str(NPROC),
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOWORK="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
    )
    return env


ENV = child_env()


class Proc:
    """One finished child process with its host cost."""

    def __init__(self, rc, wall, cpu, rss_mb, out, err):
        self.rc, self.wall, self.cpu, self.rss_mb = rc, wall, cpu, rss_mb
        self.out, self.err = out, err


def run(cmd, cwd=ROOT):
    """Run cmd to completion and return its exit code, wall time, CPU time
    (user + sys) and peak RSS, measured by wait4 on that child alone."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, cwd=cwd, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out_chunks, err_chunks = [], []
    readers = [
        threading.Thread(target=lambda: out_chunks.append(p.stdout.read())),
        threading.Thread(target=lambda: err_chunks.append(p.stderr.read())),
    ]
    for r in readers:
        r.start()
    killer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    killer.start()
    try:
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    p.stdout.close()
    p.stderr.close()
    return Proc(p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                out_chunks[0].decode(errors="replace"), err_chunks[0].decode(errors="replace"))


def build():
    """Build the CLIs and the tracer into .bench_build/bin."""
    for d in (BIN, WORK, ENV["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    steps = [
        (["go", "build", "-o", BIN + os.sep, "./cmd/planaria-sim", "./cmd/experiments", "./cmd/tracegen"], ROOT),
        (["go", "build", "-o", os.path.join(BIN, "perfbench-tracer"), "."], HERE),
    ]
    for cmd, cwd in steps:
        try:
            p = run(cmd, cwd)
        except OSError as e:
            raise BuildError(f"{cmd[0]}: {e}")
        if p.rc != 0:
            raise BuildError(f"{' '.join(cmd)} failed:\n{p.err}")


def binpath(name):
    return os.path.join(BIN, name)


def sha256_bytes(b):
    return hashlib.sha256(b).hexdigest()


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def canonical_report(obj):
    return sha256_bytes(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode())


# Manifest fields that describe when and where a run happened, not what it
# simulated.
HOST_FIELDS = ("start_time", "wall_time_seconds", "git_describe", "go_version", "os", "arch")


def artifact_digest(path):
    """Digest of a planaria-sim -json artifact without its time and host
    fields, plus the parsed report."""
    with open(path) as f:
        art = json.load(f)
    for k in HOST_FIELDS:
        art["manifest"].pop(k, None)
    return canonical_report(art), art["report"]


def stdout_digest(text):
    """Digest of the bundle's text tables; the line naming the -json file
    is dropped."""
    lines = [ln for ln in text.splitlines(keepends=True) if not ln.startswith("wrote ")]
    return sha256_bytes("".join(lines).encode())


def median(xs):
    return statistics.median(xs)


def hit_rate_pct(rep):
    c = rep["cache"]
    return 100.0 * c["demand_hits"] / c["demand_accesses"]


def traffic(rep):
    return rep["dram"]["reads"] + rep["dram"]["writes"]


def reduction_pct(base, new):
    return 100.0 * (base - new) / base


def load_expected():
    try:
        with open(EXPECTED) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def environment():
    """Host and build settings recorded with every result."""
    go = subprocess.run(["go", "version"], env=ENV, capture_output=True, text=True).stdout.strip()
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    h = hashlib.sha256()  # the program's Go sources, the benchmark's excluded
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames
                             if not d.startswith(".") and os.path.join(dirpath, d) != HERE)
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "subshards": 1, "gomaxprocs": NPROC, "nproc": NPROC, "go": go,
        "host": platform.node(), "cpu": cpu, "commit": commit,
        "source_sha256": h.hexdigest(),
    }


class Run:
    """Bookkeeping of one benchmark run: every CLI invocation is attempted;
    a non-zero exit, a truncated report or an output mismatch fails it."""

    def __init__(self):
        self.attempted = 0
        self.failed_calls = set()
        self.notes = []

    @property
    def failed(self):
        return len(self.failed_calls)

    def call(self, cmd):
        p = run(cmd)
        p.idx = self.attempted
        self.attempted += 1
        if p.rc != 0:
            self.fail(f"{os.path.basename(cmd[0])} exited {p.rc}: {p.err.strip()[-300:]}", p)
        return p

    def fail(self, why, p=None):
        """Record a failure against invocation p (default: the latest)."""
        self.failed_calls.add(p.idx if p is not None else max(self.attempted - 1, 0))
        self.notes.append("FAILED: " + why)

    def check(self, ok, why, p=None):
        if not ok:
            self.fail(why, p)
        return ok


# ---------------------------------------------------------------- replays


def write_trace(r, app, seed, path, records=REPLAY_RECORDS):
    p = r.call([binpath("tracegen"), "-app", app, "-n", str(records), "-seed", str(seed), "-o", path])
    return p, (sha256_file(os.path.join(ROOT, path)) if p.rc == 0 else None)


def replay(r, trace_path, pf, tag, extra=()):
    """One planaria-sim replay; returns the process, the artifact digest and
    the report (None on failure)."""
    art = os.path.join(WORK_REL, f"{tag}.json")
    cmd = [binpath("planaria-sim"), "-trace", trace_path, "-pf", pf, "-subshards", "1", "-json", art, *extra]
    p = r.call(cmd)
    if p.rc != 0:
        return p, None, None
    digest, rep = artifact_digest(os.path.join(ROOT, art))
    if not r.check(not rep.get("truncated"), f"{tag}: truncated report", p):
        return p, None, None
    return p, digest, rep


def run_replay(name, seed, seconds, traced):
    spec = REPLAYS[name]
    r = Run()
    trace_path = os.path.join(WORK_REL, f"{name}.bin")
    expected = load_expected().get(name, {}).get("seeds", {}).get(str(seed))

    # Set-up: write the trace, several times; every write must be identical.
    setups, hashes = [], set()
    for _ in range(1 if traced else SETUP_REPEATS):
        p, h = write_trace(r, spec["app"], seed, trace_path)
        if h is None:
            return r, {}
        setups.append(p.wall)
        hashes.add(h)
    if not r.check(len(hashes) == 1, "tracegen output differs between writes"):
        return r, {}

    if traced:
        return r, trace_replay(r, name, spec, trace_path, expected)

    # Measured: the replay, repeated for the run's duration.
    procs, main_digest, rep = [], None, None
    t0 = time.perf_counter()
    while len(procs) < MIN_REPEATS["replay"] or time.perf_counter() - t0 < seconds:
        p, digest, rep_i = replay(r, trace_path, spec["pf"], f"{name}_rep")
        if digest is None:
            return r, {}
        procs.append(p)
        if main_digest is None:
            main_digest, rep = digest, rep_i
        r.check(digest == main_digest, "replay reports differ between repeats", p)

    # Output check: the digest recorded at the benchmark's commit for this
    # seed, or, for a seed without a record, the serial engine on the
    # buffered reader, which shares no run loop or decode path with the
    # mmap replay.
    if expected is not None:
        r.check(main_digest == expected["main"]["artifact"],
                f"report digest differs from the recorded one for seed {seed}", procs[0])
    else:
        r.notes.append(f"seed {seed} has no recorded digest; cross-checking against the serial buffered engine")
        p, d, _ = replay(r, trace_path, spec["pf"], f"{name}_serial", ("-parallel=false", "-mmap=false"))
        if d is not None:
            r.check(d == main_digest, "serial buffered replay differs from the parallel mmap replay", p)

    # The comparison set (untimed).
    reps, got, cmp_procs = compare(r, name, spec["app"], seed)
    if reps is None:
        return r, {}
    if expected is not None:
        for pf in COMPARE_PFS:
            r.check(got[pf] == expected[pf]["artifact"],
                    f"{pf} comparison digest differs from the recorded one for seed {seed}", cmp_procs[pf])

    def mean_red(pf):
        return statistics.fmean(reduction_pct(b["amat_cycles"], p["amat_cycles"])
                                for b, p in zip(reps[pf], reps["planaria"]))

    metrics = {
        "wall_s": median([p.wall for p in procs]),
        "cpu_s": median([p.cpu for p in procs]),
        "max_rss_mb": median([p.rss_mb for p in procs]),
        "setup_s": median(setups),
        "amat_cycles": rep["amat_cycles"],
        "sc_hit_rate_pct": hit_rate_pct(rep),
        "amat_reduction_vs_none_pct": mean_red("none"),
        "amat_reduction_vs_bop_pct": mean_red("bop"),
        "amat_reduction_vs_spp_pct": mean_red("spp"),
        "traffic_overhead_planaria_pct": statistics.fmean(
            -reduction_pct(traffic(b), traffic(p)) for b, p in zip(reps["none"], reps["planaria"])),
    }
    r.notes.append(f"{len(procs)} replays of {REPLAY_RECORDS} records; wall " +
                   ", ".join(f"{p.wall:.3f}" for p in procs))
    return r, metrics


def compare(r, name, app, seed):
    """Run the comparison traces (seeds COMPARE_TRACES × seed + k) under
    every comparison prefetcher. Returns, by prefetcher, the list of
    reports, one digest over the list's artifact digests and the last
    process; or Nones on failure."""
    path = os.path.join(WORK_REL, f"{name}_cmp.bin")
    reps, digests, procs = {pf: [] for pf in COMPARE_PFS}, {pf: [] for pf in COMPARE_PFS}, {}
    for k in range(COMPARE_TRACES):
        p, _ = write_trace(r, app, COMPARE_TRACES * seed + k, path, COMPARE_RECORDS)
        if p.rc != 0:
            return None, None, None
        for pf in COMPARE_PFS:
            procs[pf], d, rep = replay(r, path, pf, f"{name}_{pf}")
            if d is None:
                return None, None, None
            digests[pf].append(d)
            reps[pf].append(rep)
    got = {pf: sha256_bytes(" ".join(ds).encode()) for pf, ds in digests.items()}
    return reps, got, procs


def trace_replay(r, name, spec, trace_path, expected):
    out = os.path.join(WORK_REL, f"{name}_traced.json")
    mpath = os.path.join(WORK, f"{name}_layers.json")
    p = tracer(r, ["-workload", "replay", "-trace", trace_path, "-pf", spec["pf"], "-pairs", "2",
                   "-metrics", mpath, "-output", out])
    if p.rc != 0:
        return {}
    with open(os.path.join(ROOT, out)) as f:
        got = canonical_report(json.load(f))
    # The tracer's report must be the CLI's: the recorded digest for this
    # seed, or one CLI replay of the same trace.
    if expected is not None:
        want = expected["main"]["report"]
    else:
        _, _, rep = replay(r, trace_path, spec["pf"], f"{name}_cli")
        want = rep and canonical_report(rep)
    r.check(got == want, "traced report differs from the CLI's")
    with open(mpath) as f:
        return json.load(f)


def tracer(r, args):
    p = r.call([binpath("perfbench-tracer"), *args])
    sys.stdout.write(p.out)
    return p


# ---------------------------------------------------------------- bundle


def headline_rows(text):
    """The headline figures of one bundle's text output, keyed by the row
    labels of EXPERIMENTS.md's headline table; each is compared with the
    leading numbers of that row's Measured cell."""
    def nums(pattern):
        m = re.search(pattern, text, re.M)
        return [float(x) for x in re.findall(r"[-+]?\d+\.\d+", m.group(0))] if m else None

    fig5 = nums(r"^avg .*\(paper avg")
    return {
        "AMAT reduction vs none / BOP / SPP": nums(r"^Planaria AMAT reduction:.*$"),
        "IPC uplift vs none / BOP / SPP": nums(r"^Planaria IPC uplift:.*$"),
        "Power overhead: BOP / SPP / Planaria": (nums(r"^average: BOP .*\+13\.5%.*$") or [])[:3],
        "Traffic overhead: BOP / SPP / Planaria": (nums(r"^average: BOP .*\+23\.4%.*$") or [])[:3],
        "Planaria metadata": (nums(r"^Planaria metadata:.*$") or [])[:1],
        "Fig. 4 footprint overlap": (nums(r"^avg +\d+\.\d+%.*80%.*$") or [])[:1],
        "Fig. 5 learnable neighbours @4 / @64": [fig5[0], fig5[-1]] if fig5 else None,
        "SLP share of composite gain": ((nums(r"^average SLP share of useful prefetches:.*$") or [])[:1] +
                                        (nums(r"^average SLP share:.*$") or [])[:1]),
    }


def documented_rows():
    """The Measured column of EXPERIMENTS.md's headline table, or None when
    the file is absent."""
    path = os.path.join(ROOT, "EXPERIMENTS.md")
    if not os.path.exists(path):
        return None
    rows = {}
    with open(path) as f:
        for ln in f:
            cells = [c.strip() for c in ln.strip().strip("|").split("|")]
            if len(cells) == 4:
                measured = cells[2].replace("−", "-")
                rows[cells[0]] = [float(x) for x in re.findall(r"[-+]?\d+\.\d+", measured)]
    return rows


def run_bundle(seed, seconds, traced):
    r = Run()
    exp = load_expected().get("bundle", {})
    r.notes.append(f"seed {seed}: the bundle's inputs are the paper catalog's own seeds; --seed does not change them")

    if traced:
        return r, trace_bundle(r, exp)

    # Set-up: the bundle's smallest complete invocation, which generates
    # and analyses one catalog trace (Figure 2), several times.
    setups, outs = [], set()
    for _ in range(SETUP_REPEATS):
        p = r.call([binpath("experiments"), "-run", "fig2", "-subshards", "1"])
        setups.append(p.wall)
        outs.add(sha256_bytes(p.out.encode()))
    r.check(len(outs) == 1, "fig2 output differs between set-up runs")
    if "fig2" in exp:
        r.check(outs == {exp["fig2"]}, "fig2 output differs from the recorded digest")

    procs, text, cells = [], None, None
    art = os.path.join(WORK_REL, "bundle.json")
    t0 = time.perf_counter()
    while len(procs) < MIN_REPEATS["bundle"] or time.perf_counter() - t0 < seconds:
        p = r.call([binpath("experiments"), "-run", "all", "-subshards", "1", "-n", str(BUNDLE_RECORDS), "-json", art])
        if p.rc != 0:
            return r, {}
        procs.append(p)
        with open(os.path.join(ROOT, art)) as f:
            cells_i = json.load(f)["cells"]
        d = (stdout_digest(p.out), canonical_report(cells_i))
        if text is not None:
            r.check(d == (stdout_digest(text), canonical_report(cells)), "bundle output differs between repeats")
        text, cells = p.out, cells_i
        if exp:
            r.check(d == (exp.get("stdout"), exp.get("cells")), "bundle output differs from the recorded digest")

    doc = documented_rows()
    if doc is None:
        r.notes.append("EXPERIMENTS.md not found; headline rows not compared")
    else:
        for row, got in headline_rows(text).items():
            want = (doc.get(row) or [])[:len(got or [])]
            r.check(got and len(got) == len(want) and
                    all(abs(a - b) < 0.051 for a, b in zip(got, want)),
                    f"headline row {row!r}: printed {got}, EXPERIMENTS.md says {want}")

    by = {}
    for c in cells:
        by.setdefault(c["app"], {})[c["prefetcher"]] = c["report"]
    apps = sorted(by)
    pl = [by[a]["planaria"] for a in apps]

    def mean_red(pf):
        return statistics.fmean(reduction_pct(by[a][pf]["amat_cycles"], by[a]["planaria"]["amat_cycles"]) for a in apps)

    metrics = {
        "wall_s": median([p.wall for p in procs]),
        "cpu_s": median([p.cpu for p in procs]),
        "max_rss_mb": median([p.rss_mb for p in procs]),
        "setup_s": median(setups),
        "amat_cycles": statistics.fmean(x["amat_cycles"] for x in pl),
        "sc_hit_rate_pct": statistics.fmean(hit_rate_pct(x) for x in pl),
        "amat_reduction_vs_none_pct": mean_red("none"),
        "amat_reduction_vs_bop_pct": mean_red("bop"),
        "amat_reduction_vs_spp_pct": mean_red("spp"),
        "traffic_overhead_planaria_pct": statistics.fmean(
            -reduction_pct(traffic(by[a]["none"]), traffic(by[a]["planaria"])) for a in apps),
    }
    r.notes.append(f"{len(procs)} bundle run(s) at {BUNDLE_RECORDS} records per app; wall " +
                   ", ".join(f"{p.wall:.3f}" for p in procs))
    return r, metrics


def trace_bundle(r, exp):
    out = os.path.join(WORK_REL, "bundle_traced.txt")
    mpath = os.path.join(WORK, "bundle_layers.json")
    p = tracer(r, ["-workload", "bundle", "-n", str(BUNDLE_RECORDS), "-pairs", "1",
                   "-metrics", mpath, "-output", out])
    if p.rc != 0:
        return {}
    with open(os.path.join(ROOT, out)) as f:
        text = f.read()
    if exp:
        r.check(stdout_digest(text) == exp.get("stdout"), "traced bundle output differs from the CLI's recorded digest")
    else:
        cli = r.call([binpath("experiments"), "-run", "all", "-subshards", "1", "-n", str(BUNDLE_RECORDS)])
        r.check(stdout_digest(text) == stdout_digest(cli.out), "traced bundle output differs from the CLI's")
    with open(mpath) as f:
        return json.load(f)


# ---------------------------------------------------------------- main


def record_expected(seeds):
    """Write expected.json: the digests of every workload's simulated output
    at the current commit, for the given replay seeds."""
    exp = {"bundle": {}, **{name: {"records": REPLAY_RECORDS, "compare_records": COMPARE_RECORDS,
                                   "compare_traces": COMPARE_TRACES, "seeds": {}}
                                for name in REPLAYS}}
    r = Run()
    p = r.call([binpath("experiments"), "-run", "fig2", "-subshards", "1"])
    exp["bundle"]["fig2"] = sha256_bytes(p.out.encode())
    art = os.path.join(WORK_REL, "bundle.json")
    p = r.call([binpath("experiments"), "-run", "all", "-subshards", "1", "-n", str(BUNDLE_RECORDS), "-json", art])
    with open(os.path.join(ROOT, art)) as f:
        exp["bundle"].update(n=BUNDLE_RECORDS, stdout=stdout_digest(p.out), cells=canonical_report(json.load(f)["cells"]))
    for name, spec in REPLAYS.items():
        trace_path = os.path.join(WORK_REL, f"{name}.bin")
        for seed in seeds:
            write_trace(r, spec["app"], seed, trace_path)
            _, digest, rep = replay(r, trace_path, spec["pf"], f"{name}_rep")
            got = {"main": {"artifact": digest, "report": rep and canonical_report(rep)}}
            _, digests, _ = compare(r, name, spec["app"], seed)
            for pf in COMPARE_PFS:
                got[pf] = {"artifact": digests and digests[pf]}
            exp[name]["seeds"][str(seed)] = got
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    if r.failed:
        raise SystemExit("recording failed:\n" + "\n".join(r.notes))
    with open(EXPECTED, "w") as f:
        json.dump(exp, f, indent=1, sort_keys=True)
        f.write("\n")


def bench_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    return ({m["name"]: m["unit"] for m in b["end_to_end"]},
            {m["name"]: m["unit"] for m in b["per_layer"]})


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["bundle", *REPLAYS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-expected", metavar="SEEDS",
                    help="write expected.json for replay seeds FIRST-LAST instead of running a workload")
    a = ap.parse_args()
    if not a.workload and not a.record_expected:
        ap.error("--workload is required")

    try:
        build()
    except BuildError as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    if a.record_expected:
        first, _, last = a.record_expected.partition("-")
        record_expected(range(int(first), int(last or first) + 1))
        return 0

    e2e_units, layer_units = bench_units()
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    if a.workload == "bundle":
        r, values = run_bundle(a.seed, a.seconds, a.trace == 1)
    else:
        r, values = run_replay(a.workload, a.seed, a.seconds, a.trace == 1)
    for note in r.notes:
        print(note)

    units = layer_units if a.trace else e2e_units
    missing = [n for n in units if n not in values]
    if missing and r.failed == 0:
        r.fail("metrics not produced: " + ", ".join(missing))
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items() if n in values}
    for n, m in metrics.items():
        print(f"{n:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": r.failed == 0, "attempted": max(r.attempted, 1),
                      "failed": r.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
