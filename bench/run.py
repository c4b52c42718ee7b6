"""sphmax benchmark runner: one closed-loop caller, four seeded workloads.

    python3 bench/run.py --workload maxval-sweep --seed 1 --seconds 55 --trace 0

Run from the repository root; the library is imported from ./src. One
caller issues each operation only after the previous one returned; every
operation is timed from outside the library and checked against an oracle.

--trace 0 runs the seed's fixed list of operations once, in this process,
right after a cold set-up; set-up is then timed again in SETUP_REPEATS fresh
processes and reported as the median. Every operation is distinct, so the
run measures as many different inputs as its time allows and no library
cache turns repeated work into hits. --trace 1 is a separate, single-process
traced run that reports per-layer metrics. The last line of standard output
is the JSON result; a copy with the run metadata goes to bench/out/.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
MIN_OPS = 100          # p90 needs ten samples beyond it
MEASURED_SHARE = 0.8   # of --seconds, the timed operations; the rest set-up
SLOW_LIMIT = 1.1       # of --seconds: a far slower machine stops early here
SETUP_REPEATS = 4      # extra fresh processes that time only the set-up
CHILD_TIMEOUT_S = 30.0

# maxval-sweep and cli-batch are the workloads in BENCHMARK.json; domination
# and covering run the same way on request (see README.md)
WORKLOAD_NAMES = ("maxval-sweep", "cli-batch", "domination", "covering")
END_TO_END = ("ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb")


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (the 'inclusive' rule)."""
    if not values:
        raise ValueError("no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * p
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, p: float) -> int:
    return math.floor(n * (1.0 - p) + 1e-9)


def latency_summary(durations) -> dict[str, float]:
    """p50 and p90 in ms; p90 is reported only with ten samples beyond it."""
    if samples_beyond(len(durations), 0.9) < 10:
        raise ValueError(f"{len(durations)} operations leave fewer than ten "
                         "samples beyond p90")
    ms = [1e3 * d for d in durations]
    return {"op_p50_ms": percentile(ms, 0.5), "op_p90_ms": percentile(ms, 0.9)}


def _sources() -> Path:
    src = ROOT / "src"
    if not (src / "sphmax" / "__init__.py").is_file():
        raise SystemExit(f"error: no sphmax sources under {src}")
    return src


def _import_library():
    src = _sources()
    sys.path.insert(0, str(src))
    import sphmax
    if Path(sphmax.__file__).resolve().parent != (src / "sphmax").resolve():
        raise SystemExit(f"error: imported sphmax from {sphmax.__file__}, "
                         f"not from {src}")
    import workloads
    return workloads


def deck_count(cls, seconds: float) -> int:
    """Decks in one run: a fixed amount of work in whole cycles, sized so
    that the timed operations last about MEASURED_SHARE of `seconds` on the
    reference machine, and at least MIN_OPS operations."""
    decks = max(math.ceil(MIN_OPS / cls.deck_size),
                round(seconds * MEASURED_SHARE / cls.deck_seconds))
    return cls.cycle * math.ceil(decks / cls.cycle)


def set_up(name: str, seed: int, seconds: float, workdir: Path):
    """Import, build the first deck through the library, run one warm-up
    operation. Returns (seconds, workload, decks in a pass, first deck, a
    copy of the generator the first deck was drawn from)."""
    start = time.perf_counter()
    workloads = _import_library()
    cls = workloads.WORKLOADS[name]
    decks = deck_count(cls, seconds)
    wl = cls(random.Random(seed), workdir, decks)
    state = copy.deepcopy(wl.gen)
    deck = wl.deck()
    warm = wl.warmup()
    bad = warm.check(warm.run())
    if bad:
        raise SystemExit(f"error: warm-up operation failed: {bad}\n{warm.label}")
    return time.perf_counter() - start, wl, decks, deck, state


class Tally:
    """Outcome of every attempted operation, in order."""

    def __init__(self, props):
        self.durations: list[float] = []
        self.failed: list[int] = []
        self.failures: list[tuple[str, str]] = []
        self.prop_counts = {p: 0 for p in props}
        self.seen: set[str] = set()
        self.bytes_written = 0

    def record(self, op, duration: float, error: str | None) -> None:
        props = set(op.props)
        if op.set_key in self.seen:
            props.add("repeated_set")
        self.seen.add(op.set_key)
        for p in props:
            self.prop_counts[p] += 1
        if error is not None:
            self.failed.append(len(self.durations))
            self.failures.append((error, op.label))
        self.durations.append(duration)

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def shares(self) -> dict[str, float]:
        return {p: n / self.attempted for p, n in self.prop_counts.items()}


def run_op(op, tally: Tally, tracer=None) -> float:
    """Time one operation from outside the library, then check it."""
    if tracer is not None:
        tracer.op = tally.attempted
        tracer.active = True
    error = None
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # any raised error is a failed operation
        result = None
        error = f"raised {type(exc).__name__}: {exc}"
    duration = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    if error is None:
        try:
            error = op.check(result)
        except Exception as exc:
            error = f"oracle raised {type(exc).__name__}: {exc}"
    if tracer is not None and op.bytes_written is not None:
        tally.bytes_written += op.bytes_written()
    tally.record(op, duration, error)
    return duration


def run_decks(wl, deck, tally: Tally, decks: int, tracer=None,
              limit_s: float = math.inf) -> float:
    """Run `decks` whole decks, starting with `deck`; returns the summed
    operation time. On a machine so slow that the next cycle of `wl.cycle`
    decks would end after `limit_s`, stop after the current cycle."""
    busy = 0.0
    start = time.perf_counter()
    for done in range(1, decks + 1):
        for op in deck:
            busy += run_op(op, tally, tracer)
        wl.end_deck()
        elapsed = time.perf_counter() - start
        if done == decks or (done % wl.cycle == 0
                             and elapsed * (done + wl.cycle) / done > limit_s):
            return busy
        deck = wl.deck()


def _setup_child(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def untraced(args, workdir: Path):
    setup_s, wl, decks, deck, _ = set_up(args.workload, args.seed,
                                         args.seconds, workdir)
    import workloads
    tally = Tally(workloads.PROPERTIES)
    try:
        busy = run_decks(wl, deck, tally, decks,
                         limit_s=SLOW_LIMIT * args.seconds)
    finally:
        wl.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + [_setup_child(args) for _ in range(SETUP_REPEATS)]
    n = tally.attempted
    lat = latency_summary(tally.durations)
    metrics = {
        "ops_per_s": ((n - len(tally.failed)) / busy, "1/s"),
        "op_p50_ms": (lat["op_p50_ms"], "ms"),
        "op_p90_ms": (lat["op_p90_ms"], "ms"),
        "failed_frac": (len(tally.failed) / n, "share"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {"busy_s": busy, "decks": wl.gen.decks,
             "setup_samples_s": setups}
    return n, tally.failures, tally.shares(), metrics, extra


def traced(args, workdir: Path):
    """Each deck runs untraced (which also warms every cache), then again
    traced on identical inputs; the busy-time ratio of the two is the
    tracing overhead. A workload whose replay would only hit library caches
    runs its decks untraced, then as many fresh decks of the same
    composition traced."""
    _, wl, _, deck, state = set_up(args.workload, args.seed, args.seconds,
                                   workdir)
    import tracing
    import workloads
    tally = Tally(workloads.PROPERTIES)
    tracer = tracing.Tracer()
    tracer.install(callers=(workloads,))
    tracer.uninstall()      # fails loudly on a missing name before any work

    def traced_decks(first, n):
        tracer.install(callers=(workloads,))
        try:
            return run_decks(wl, first, tally, n, tracer)
        finally:
            tracer.uninstall()

    plain = busy = 0.0
    try:
        if wl.replayable:
            for i in range(wl.trace_decks):
                if i:
                    state = copy.deepcopy(wl.gen)
                    deck = wl.deck()
                plain += run_decks(wl, deck, tally, 1)
                wl.gen = state
                busy += traced_decks(wl.deck(), 1)
        else:
            plain = run_decks(wl, deck, tally, wl.trace_decks)
            busy = traced_decks(wl.deck(), wl.trace_decks)
    finally:
        wl.close()
    zero = tracing.zero_call_layers(tracer.spans)
    lost = [layer for layer in wl.layers if layer in zero]
    if lost:
        raise SystemExit(f"error: traced run recorded no spans in layer(s) "
                         f"{', '.join(lost)}, which {args.workload} must reach")
    found = tracing.layer_metrics(tracer.spans, tally.bytes_written)
    metrics = {name: (m["value"], m["unit"]) for name, m in found.items()}
    metrics["trace.overhead_frac"] = (busy / plain - 1.0, "ratio")
    metrics["trace.zero_call_layers"] = (len(zero), "count")
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(path)
    extra = {"zero_call_layers": zero, "traced_ops": tally.attempted // 2,
             "spans": len(tracer.spans),
             "spans_file": str(path.relative_to(ROOT))}
    return (tally.attempted, tally.failures, tally.shares(), metrics, extra)


def metadata(seed: int, workload: str, trace: int) -> dict:
    def git(*args):
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), *args],
                                  capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    dirty = None
    if sha is not None:
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    return {"workload": workload, "seed": seed, "trace": trace,
            "git_sha": sha or "unknown", "dirty": dirty,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _sources()
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as tmp:
        workdir = Path(tmp)
        if args.setup_only:
            seconds, wl, *_ = set_up(args.workload, args.seed, args.seconds,
                                     workdir)
            wl.close()
            print(json.dumps({"setup_s": seconds}))
            return 0
        measure = traced if args.trace else untraced
        attempted, failures, shares, metrics, extra = measure(args, workdir)
    if args.trace:
        import tracing
        names = tracing.metric_names()
    else:
        names = END_TO_END

    meta = metadata(args.seed, args.workload, args.trace)
    print(f"sphmax benchmark: workload {args.workload}, seed {args.seed}, "
          f"{attempted} operations attempted, closed loop, one caller")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<58} {value:>14.6g} {unit}")
    for prop, share in shares.items():
        print(f"  share with {prop:<47} {share:>14.4f}")
    for key, value in extra.items():
        print(f"  {key}: {value}")
    print(f"  metadata: {json.dumps(meta)}")
    for error, label in failures:
        print(f"FAILED: {error}\n  inputs: {label}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in names},
    }
    record = dict(result, metadata=meta, input_shares=shares,
                  all_metrics={n: {"value": v, "unit": u}
                               for n, (v, u) in metrics.items()},
                  failures=[{"error": e, "inputs": lbl}
                            for e, lbl in failures], **extra)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
