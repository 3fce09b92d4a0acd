#!/usr/bin/env python3
"""formprobe benchmark.

    python3 bench/run.py --workload identities|estimate|hodge|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``.  One run builds the workload's operations from the seed, then
repeats whole rounds of them for about S seconds and checks every output
with the benchmark's own code (see checks.py).  With --trace 0 it reports
the end-to-end metrics (set-up time, per-round wall and CPU time, peak
memory); with --trace 1 it alternates untraced and traced rounds and
reports the per-layer metrics of tracing.py.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Details,
provenance and the recorded spans go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 7     # timed set-up processes, after one warm-up process
MIN_ROUNDS = 3
WORKLOAD_NAMES = ("identities", "estimate", "hodge")

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import formprobe from this checkout's src/ and the workload table."""
    if not (SRC / "formprobe" / "__init__.py").is_file():
        fail(f"no formprobe sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import formprobe
    import formprobe.cli  # noqa: F401  (the CLI entry point is part of set-up)
    if Path(formprobe.__file__).resolve().parent != (SRC / "formprobe").resolve():
        fail(f"formprobe was imported from {formprobe.__file__}, not {SRC}")
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def setup_sample(workload: str, seed: int) -> float:
    """Import formprobe and build the workload's inputs; seconds taken."""
    start = time.perf_counter()
    workloads = import_program()
    workloads.WORKLOADS[workload](seed, OUT_DIR)
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-sample",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            fail(f"set-up sample failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.split()[-1]))
    return samples[1:]


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def _first_line(exc: BaseException) -> str:
    text = str(exc).splitlines()
    return f"{type(exc).__name__}: {text[0] if text else ''}"


def run_round(ops: list, tracer=None) -> dict:
    """Run every operation once; an operation that raises counts as failed."""
    out = {"attempted": 0, "failed": [], "problems": [], "op_wall_s": {},
           "op_cpu_s": {}}
    for op in ops:
        wall, cpu = time.perf_counter(), time.process_time()
        failure = None
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.op():
                    result = op.run()
        except Exception as exc:  # the operation failed; the run goes on
            # keep only the message: the traceback holds the call's arrays
            failure = f"{op.name}: {_first_line(exc)}"
        out["op_wall_s"][op.name] = time.perf_counter() - wall
        out["op_cpu_s"][op.name] = time.process_time() - cpu
        out["attempted"] += 1
        if failure is not None:
            out["failed"].append(failure)
        else:
            out["problems"] += op.check(result)
            del result
    return out


def run_rounds(ops: list, seconds: float, tracer=None) -> list:
    """Whole rounds until the next one would end after ``seconds``.

    With a tracer, rounds alternate untraced and traced, starting with an
    untraced one, so that every traced round runs with warm caches.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            with tracer.installed():
                result = run_round(ops, tracer)
        else:
            result = run_round(ops)
        result["traced"] = traced
        rounds.append(result)
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed * (1 + 1 / len(rounds)) > seconds:
            return rounds


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def round_median(rounds: list, key: str) -> float:
    """Time of one round: the sum over operations of each one's median."""
    return sum(statistics.median(r[key][name] for r in rounds)
               for name in rounds[0][key])


def end_to_end(rounds: list, setup: list) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "run_s": round_median(rounds, "op_wall_s"),
        "cpu_s": round_median(rounds, "op_cpu_s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(rounds: list, tracer) -> dict:
    import tracing
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    n = len(traced)
    totals = tracing.layer_totals(tracer.spans)
    ops = sum(r["attempted"] for r in traced)
    values = {}
    for layer, entry in totals.items():
        for key, value in entry.items():
            per_round = key in ("calls", "self_s", "points", "bytes",
                                "iterations", "failed")
            values[f"{layer}.{key}"] = value / n if per_round else value
    fft_calls = totals[tracing.FFT_LAYER]["calls"]
    values[f"{tracing.FFT_LAYER}.calls_per_op"] = fft_calls / ops
    # material builds are reported as media.build.s
    values["media.build.s"] = values.pop("media.build.self_s")
    values.pop(f"{tracing.ROOT_LAYER}.calls")
    traced_run = statistics.mean(sum(r["op_wall_s"].values()) for r in traced)
    self_total = sum(e["self_s"] for e in totals.values()) / n
    values["trace.run_s"] = traced_run
    values["trace.overhead_s"] = (round_median(traced, "op_wall_s")
                                  - round_median(plain, "op_wall_s"))
    values["trace.accounted_share"] = self_total / traced_run
    values["trace.spans"] = len(tracer.spans) / n
    return values


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    last = name.rsplit(".", 1)[-1]
    return {"self_s": "s", "s": "s", "run_s": "s", "overhead_s": "s",
            "bytes": "B", "accounted_share": "1"}.get(last, "count")


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _version(package: str):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None   # a checkout without git metadata; see src_sha256


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, ops: list) -> dict:
    import numpy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": _version("scipy"), "git_commit": _git_commit(),
            "src_sha256": _src_digest(),
            "ops": {op.name: op.params for op in ops}}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_workload(args) -> dict:
    workloads = import_program()
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    ops = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    rounds = run_rounds(ops, args.seconds, tracer)
    metrics = per_layer(rounds, tracer) if args.trace else end_to_end(rounds, setup)
    problems = [p for r in rounds for p in r["problems"]]
    result = {"correct": not problems,
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(len(r["failed"]) for r in rounds),
              "metrics": {k: {"value": v, "unit": unit_of(k)}
                          for k, v in metrics.items()}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"provenance": provenance(args, ops), "setup_samples_s": setup,
              "rounds": rounds, "result": result}
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer is not None:
        with open(OUT_DIR / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dataclasses.astuple(span)) + "\n")
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} attempted {result['attempted']} failed "
          f"{result['failed']} correct {result['correct']} "
          f"rounds {len(rounds)}")
    for line in sorted({f for r in rounds for f in r["failed"]}):
        print(f"{args.workload} failed op {line}")
    for line in problems[:20]:
        print(f"{args.workload} CHECK FAILED {line}")
    return result


def run_all(args) -> dict:
    """Every workload, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        if done.returncode != 0 or not lines:
            fail(f"workload {name} failed: {done.stderr.strip()}")
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for metric, value in part["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_sample:
        print(setup_sample(args.workload, args.seed))
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
