"""Benchmark of the configcohom CLI, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload cp5-full --seed 1 --seconds 40 --trace 0

--trace 0 runs the workload's CLI command again and again for --seconds
seconds, each op in a fresh child process, checks every output, and
reports the end-to-end metrics.  --trace 1 replays every workload once
per pass in-process, whichever --workload is named, with spans around
the calls into each layer, and reports the per-layer metrics of all of
them.  A human-readable report comes first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
Metric names and units come from BENCHMARK.json; digests and exact
counts from perfbench/expected.json.  See perfbench/README.md for the
workloads and what each metric predicts.
"""

import argparse
import hashlib
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import namedtuple
from pathlib import Path

import host

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ".perfbench_work"
TORUS = WORK + "/torus.json"

WORKLOADS = {
    "cp5-full": {"kind": "betti", "ring": "cpm", "m": 5, "k": 11, "chi": 6,
                 "argv": ["betti", "--cpm", "5", "--k", "11", "--format", "json"]},
    "torus-full": {"kind": "betti", "ring": "file", "path": TORUS, "k": 24, "chi": 0,
                   "argv": ["betti", "--ring", TORUS, "--k", "24", "--format", "json"]},
    # The CLI op runs serially: with --jobs 2 its wall time followed how
    # free the second vCPU was, not the program.  The traced run still
    # measures the 2-worker fan-out.
    "cp4-verify": {"kind": "verify", "ring": "cpm", "m": 4, "k": 10, "fanout_jobs": 2,
                   "argv": ["verify", "--cpm", "4", "--k-max", "10", "--jobs", "1",
                            "--format", "json"]},
}

SETUP_PROBES = 15
IMPORT_PROBES = 3
HOST_SAMPLES = 10
# Every run ends well inside 180 s: no op starts unless the slowest one
# so far would still end before HARD_STOP, and a running op is killed
# at HARD_STOP.
HARD_STOP = 170.0

# One CLI invocation or set-up probe.  wall and cpu are raw seconds;
# scale turns them into seconds at nominal host speed.
Op = namedtuple("Op", "wall cpu rss_mib scale error")


class SetupError(RuntimeError):
    """The program cannot be set up here; no result is printed."""


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.pop("CONFIGCOHOM_JOBS", None)
    return env


def write_torus(seed):
    """The T^2 presentation, its basis and product lists shuffled by seed.

    Reordering a presentation relabels the generators but keeps the ring,
    so every seed has the same Betti table and the same amount of work.
    """
    doc = json.loads((BENCH / "rings" / "torus.json").read_text(encoding="utf-8"))
    rng = random.Random(seed)
    rng.shuffle(doc["basis"])
    rng.shuffle(doc["products"])
    (ROOT / TORUS).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def read_output(fd, deadline, first_line=False):
    """Bytes from fd until EOF, or up to the first newline.

    Returns None if the deadline passes first, or if EOF comes before
    the line that first_line asks for.
    """
    buf = b""
    while not (first_line and b"\n" in buf):
        now = time.monotonic()
        if now >= deadline:
            return None
        if select.select([fd], [], [], deadline - now)[0]:
            data = os.read(fd, 1 << 16)
            if not data:
                return None if first_line else buf
            buf += data
    return buf.split(b"\n", 1)[0]


def reap(proc, kill):
    """Wait for proc (killing its process group first if asked).

    Returns (exit code, rusage).  The rusage covers proc and every
    descendant it reaped, such as --jobs workers.
    """
    if kill:
        os.killpg(proc.pid, signal.SIGKILL)
    _, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    if kill:
        for _ in range(200):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
    return proc.returncode, ru


def timed_child(argv, stderr, deadline, first_line=False):
    """Run argv in a fresh process group.

    Returns (output or None, exit code, rusage, wall seconds).  With
    first_line the wall time ends when the first line arrives.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=stderr, start_new_session=True)
    out = read_output(proc.stdout.fileno(), deadline, first_line)
    wall = time.perf_counter() - t0
    code, ru = reap(proc, kill=out is None)
    if not first_line:
        wall = time.perf_counter() - t0
    return out, code, ru, wall


def generalized_binomial(n, k):
    """C(n, k) for any integer n: n (n-1) ... (n-k+1) / k!."""
    num, den = 1, 1
    for j in range(k):
        num *= n - j
        den *= j + 1
    return num // den


def check_output(spec, expected, code, out):
    """None when an op's output is right, else the reason it is not."""
    if code != 0:
        return "exit code %d" % code
    if hashlib.sha256(out).hexdigest() != expected["digest"]:
        return "stdout digest differs from the recorded one"
    doc = json.loads(out)
    if spec["kind"] == "verify":
        if doc["ok"] is not True or any(c["status"] == "fail" for c in doc["checks"]):
            return "verify report is not ok"
        return None
    degrees = [i for i, _ in doc["dims"]]
    euler = sum(d if i % 2 == 0 else -d for i, d in doc["dims"])
    if degrees != list(range(len(degrees))) or min(d for _, d in doc["dims"]) < 0:
        return "Betti table is not a dense non-negative table"
    if not euler == doc["euler"] == generalized_binomial(spec["chi"], spec["k"]):
        return "Euler characteristic %d is not C(%d, %d)" % (euler, spec["chi"], spec["k"])
    return None


def run_op(spec, expected, deadline):
    """One CLI invocation in a fresh child process, checked; scale 1."""
    argv = [sys.executable, "-m", "configcohom.cli"] + spec["argv"]
    with tempfile.TemporaryFile(dir=ROOT / WORK) as err:
        out, code, ru, wall = timed_child(argv, err, deadline)
        if out is None:
            return Op(wall, 0.0, 0.0, 1.0, "killed at the run's time limit")
        error = check_output(spec, expected, code, out)
        if error:
            err.seek(0)
            sys.stderr.write("op failed: %s\n%s"
                             % (error, err.read()[-2000:].decode(errors="replace")))
    return Op(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, 1.0, error)


def probe(spec, expected, deadline):
    """One set-up probe: (Op timed from spawn to ready, scale 1; its report)."""
    argv = [sys.executable, str(BENCH / "probe.py"), json.dumps(spec)]
    line, code, ru, wall = timed_child(argv, subprocess.DEVNULL, deadline, first_line=True)
    if line is None or code != 0:
        raise SetupError("set-up probe failed (exit code %s)" % code)
    doc = json.loads(line)
    if not Path(doc["module"]).resolve().is_relative_to(ROOT / "src"):
        raise SetupError("configcohom was imported from %s, not from src/" % doc["module"])
    if not doc["valid"] or doc["monomials"] != expected["probe_monomials"]:
        raise SetupError("probe ring invalid or monomial count %d unexpected"
                         % doc["monomials"])
    return Op(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, 1.0, None), doc


def tail(values):
    """(percentile, value): the highest percentile with ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def _line(name, unit, norm, raw, what):
    print("  %-13s %10.4f %-4s (raw %.4f)  %s" % (name, norm, unit, raw, what))


def run_e2e(name, spec, expected, seconds, deadline, sampler):
    # Ops and batches of set-up probes alternate with gaps of reference
    # samples; each is scaled by the samples of the gaps on either side.
    # The probes due by the time of a gap keep pace with the run, so that
    # one burst of host drift cannot hit all of them.
    setups, ops = [], []
    gap = sampler.gap()
    t_begin = time.monotonic()

    def scaled(items):
        nonlocal gap
        items = list(items)
        if not items:
            return []
        nxt = sampler.gap()
        scale = host.NOMINAL_SAMPLE_S / statistics.median(gap + nxt)
        gap = nxt
        return [o._replace(scale=scale) for o in items]

    def probes_due():
        elapsed = min(1.0, (time.monotonic() - t_begin) / seconds)
        return 1 + int((SETUP_PROBES - 1) * elapsed) - len(setups)

    # Start another op only while it is expected to end within --seconds.
    while not ops or (time.monotonic() - t_begin
                      + statistics.median(o.wall for o in ops) <= seconds
                      and time.monotonic() + max(o.wall for o in ops) < deadline):
        setups += scaled(probe(spec, expected, deadline)[0] for _ in range(probes_due()))
        ops += scaled([run_op(spec, expected, deadline)])
    setups += scaled(probe(spec, expected, deadline)[0]
                     for _ in range(SETUP_PROBES - len(setups)))
    good = [o for o in ops if o.error is None]
    n, failed = len(ops), len(ops) - len(good)
    print("workload %s: %d ops, %d failed, error_rate %.4f (%d/%d)"
          % (name, n, failed, failed / n, failed, n))
    if not good:
        return {}, n, failed
    walls = [o.wall * o.scale for o in good]
    cpus = [o.cpu * o.scale for o in good]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mib": statistics.median(o.rss_mib for o in good),
        "setup_s": statistics.median(o.wall * o.scale for o in setups),
    }
    _line("wall_s", "s", metrics["wall_s"], statistics.median(o.wall for o in good),
          "median of %d ops" % len(good))
    t, t_raw = tail(walls), tail([o.wall for o in good])
    if t is None:
        print("  %-13s n/a: a tail needs 11 ops, this run has %d" % ("wall_s_tail", len(good)))
    else:
        _line("wall_s_tail", "s", t[1], t_raw[1], "p%.0f of %d ops" % (t[0], len(good)))
    _line("cpu_s", "s", metrics["cpu_s"], statistics.median(o.cpu for o in good),
          "median of %d ops, whole process tree" % len(good))
    print("  %-13s %10.2f MiB  median of %d ops, largest process of the tree"
          % ("peak_rss_mib", metrics["peak_rss_mib"], len(good)))
    _line("setup_s", "s", metrics["setup_s"], statistics.median(o.wall for o in setups),
          "median of %d probes" % len(setups))
    print("  times are at nominal host speed; raw times are as measured here")
    return metrics, n, failed


def run_traced(seconds, deadline):
    """Replay every workload in-process; per-layer metrics, attempted, failed."""
    sys.path.insert(0, str(ROOT / "src"))
    import tracing

    expected_all = load_expected()
    imports = {}
    for name, spec in WORKLOADS.items():
        docs = [probe(spec, expected_all[name], deadline)[1]
                for _ in range(IMPORT_PROBES)]
        imports[name] = statistics.median(d["import_s"] for d in docs)

    tr = tracing.Tracer()
    per_pass = {name: [] for name in WORKLOADS}
    attempted = failed = 0
    t_begin = time.monotonic()
    pass_s = 0.0
    while attempted == 0 or (time.monotonic() - t_begin + pass_s <= seconds
                             and time.monotonic() + pass_s < deadline):
        t_pass = time.monotonic()
        for name, spec in WORKLOADS.items():
            expected = expected_all[name]
            tr.op = "%s#%d" % (name, attempted)
            attempted += 1
            try:
                if spec["kind"] == "verify":
                    counts = tracing.replay_verify(tr, spec, expected)
                else:
                    counts = tracing.replay_betti(tr, spec, expected)
                if tracing.exact_counts(counts) != expected["counts"]:
                    raise tracing.BenchError("counts %r differ from the recorded %r"
                                             % (tracing.exact_counts(counts), expected["counts"]))
            except Exception:  # a failed op is counted, and the run goes on
                failed += 1
                sys.stderr.write("traced op %s failed:\n%s" % (tr.op, traceback.format_exc()))
                continue
            layer = tracing.layer_metrics(tr, tr.op, counts)
            layer["cli.import_s"] = imports[name]
            per_pass[name].append(layer)
        pass_s = time.monotonic() - t_pass
    tr.write(ROOT / WORK / "trace.json")

    metrics = {}
    for name, passes in per_pass.items():
        print("traced %s: %d passes" % (name, len(passes)))
        for key in passes[0] if passes else ():
            metrics["%s.%s" % (name, key)] = statistics.median(p[key] for p in passes)
    print("traced spans written to %s/trace.json; layer times are raw" % WORK)
    return metrics, attempted, failed


def stop_leftover_children():
    """Kill and reap any child process still running; their pids.

    Every child is waited for where it is started, so this finds none
    unless a library started a helper process of its own (such as a
    multiprocessing resource tracker or fork server), which would
    outlive the run.  Linux only; elsewhere it does nothing.
    """
    pids = set()
    for f in Path("/proc/self/task").glob("*/children"):
        try:
            pids.update(int(p) for p in f.read_text().split())
        except OSError:
            pass
    for pid in sorted(pids):
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return sorted(pids)


def load_expected():
    return json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + HARD_STOP

    if not (ROOT / "src" / "configcohom" / "cli.py").is_file():
        sys.stderr.write("configcohom sources not found under %s/src\n" % ROOT)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]
    (ROOT / WORK).mkdir(exist_ok=True)
    write_torus(args.seed)

    speedup = host.pool2_speedup()
    if not args.trace:
        # The ops, the probes and the sampler share one vCPU, so that the
        # samples between ops see the slowdowns of the vCPU the ops run on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with host.Sampler() as sampler:
        for _ in range(HOST_SAMPLES):
            sampler.sample()
        try:
            if args.trace:
                metrics, attempted, failed = run_traced(args.seconds, deadline)
            else:
                metrics, attempted, failed = run_e2e(
                    args.workload, WORKLOADS[args.workload], load_expected()[args.workload],
                    args.seconds, deadline, sampler)
        except SetupError as exc:
            sys.stderr.write("error: %s\n" % exc)
            return 2
        for _ in range(HOST_SAMPLES):
            sampler.sample()
    metrics["host.ref_s"] = statistics.median(sampler.values)
    metrics["host.pool2_speedup"] = speedup
    q = statistics.quantiles(sampler.values, n=4)
    print("host: nproc %d, python %s, host.ref_s %.5f (quartiles %.5f %.5f, %d samples, "
          "nominal %.5f), host.pool2_speedup %.3f"
          % (os.cpu_count(), sys.version.split()[0], metrics["host.ref_s"], q[0], q[2],
             len(sampler.values), host.NOMINAL_SAMPLE_S, speedup))

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        sys.stderr.write("metrics not measured: %s\n" % ", ".join(missing))
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in metrics},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        leftover = stop_leftover_children()
        if leftover:
            sys.stderr.write("stopped leftover child processes: %s\n" % leftover)
    sys.exit(code)
