"""gencactus benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload words|reps|cli|all --seed N
                             --seconds S --trace 0|1

Run from the root of a source checkout; gencactus is imported from ./src.
Inputs come from --seed alone (perfbench/inputs.py).  Every query runs in a
fresh single-threaded interpreter with one client in a closed loop: the next
query starts when the previous one returns.

--trace 0 measures the end-to-end metrics.  Set-up is timed on several fresh
worker processes and the median reported; the last worker then answers whole
decks of queries until --seconds have passed and at least 100 queries ran,
timing a fixed reference computation before each query and after the last,
and checks every answer.  Query times are reported in units of that
reference time ("ref"); set-up stays in seconds.

--trace 1 runs a fixed number of decks twice, in an untraced and then a
traced worker, compares their answers and reports the per-layer metrics and
trace.overhead_ratio.  Spans go to .bench_out/spans_<workload>_<seed>.tsv;
a timed run leaves its per-query latencies and reference times, in
seconds, in .bench_out/latencies_<workload>_<seed>.json.

--workload all runs the three workloads in turn with --trace 0 and prints a
table of every end-to-end metric, for reading; its result line prefixes each
metric with the workload's name.

The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}.  The lines before it give each
metric with its unit and sample count, and a `record` line with the seed,
interpreter, git revision, nproc, run counts, input digest and system sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs as gen
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

# Query times are in units of "ref", the time of the reference computation
# (worker.reference) timed next to each query: the shared host's vCPU speed
# swings by up to 2x within seconds and moves both alike, so the ratio holds
# still where seconds do not.  The raw seconds are printed too.
END_TO_END = (
    ("setup_s", "s"),
    ("query_p50_ref", "ref"),
    ("query_p90_ref", "ref"),
    ("throughput_per_ref", "1/ref"),
    ("peak_rss_mb", "MB"),
)
# fresh set-ups per run; the median is setup_s
SETUPS = {"words": 3, "reps": 3, "cli": 5}
# decks generated for a timed run: more than --seconds can use
DECKS = {"words": 12, "reps": 30, "cli": 16}
# decks in a traced run, which does a fixed amount of work so counts repeat
TRACE_DECKS = {"words": 1, "reps": 2, "cli": 1}
RUN_LIMIT_S = 170  # a run must end within 180 s
# files of src/gencactus whose lines are counted; "init" is __init__.py
SRC_MODULES = ("init", "errors", "scalar", "linalg", "coxeter", "cactus", "racg", "rep", "cli")


class BenchError(Exception):
    pass


def per_layer_names():
    """Every per-layer metric name, with its unit, in report order."""
    names = list(tracing.layer_metrics({"stats": {}, "counts": {}, "systems": 0}))
    names += ["cli.import_s", "cli.run_s", "cli.startup_share", "cli.unexpected_exit",
              "trace.overhead_ratio", "size.W_sum", "size.F_sum", "size.S_sum"]
    names += [f"{m}.src_lines" for m in SRC_MODULES] + ["gencactus.src_lines"]
    return [(n, _unit(n)) for n in names]



def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac", "_share")):
        return "ratio"
    return "count"


# -- workers -----------------------------------------------------------------------


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


class Worker:
    """A worker process; `ready()` returns its set-up time."""

    def __init__(self, workload, inputs_path, mode, seconds, trace, spans=None):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--inputs", str(inputs_path), "--mode", mode, "--seconds", str(seconds),
               "--trace", str(trace)]
        if spans:
            cmd += ["--spans", str(spans)]
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)

    def ready(self):
        line = self.proc.stdout.readline()
        took = time.perf_counter() - self.start
        if line.strip() != "ready":
            self.stop()
            raise BenchError(f"worker did not get ready: {line!r}")
        return took

    def result(self, deadline):
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("worker ran past the run's time limit") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def _write_inputs(workload, seed, decks, small):
    data = gen.generate(workload, seed, decks, small)
    OUT.mkdir(exist_ok=True)
    for rel, content in data["files"].items():
        (ROOT / rel).write_text(json.dumps(content))
    path = OUT / f"inputs_{workload}_{seed}.json"
    path.write_text(json.dumps(data))
    return path, gen.digest(data)


def _percentile(values, p):
    """Linear-interpolated percentile of a sorted copy of values."""
    s = sorted(values)
    k = (len(s) - 1) * p
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def _timed_run(workload, seed, seconds, small, deadline):
    path, digest = _write_inputs(workload, seed, DECKS[workload], small)
    setups = []
    for _ in range(SETUPS[workload] - 1):
        probe = Worker(workload, path, "probe", seconds, 0)
        try:
            setups.append(probe.ready())
        finally:
            probe.stop()
    worker = Worker(workload, path, "loop", seconds, 0)
    try:
        setups.append(worker.ready())
        res = worker.result(deadline)
    finally:
        worker.stop()
    lat, refs = res["latencies"], res["refs"]
    (OUT / f"latencies_{workload}_{seed}.json").write_text(json.dumps({"s": lat, "ref": refs}))
    n = len(lat)
    # refs[i] was timed just before query i and refs[i + 1] just after it
    norm = [2 * t / (refs[i] + refs[i + 1]) for i, t in enumerate(lat)]
    p90 = _percentile(norm, 0.9)
    beyond = sum(1 for x in norm if x > p90)
    correct_n = n - res["failed"]
    ref_s = statistics.median(refs)
    metrics = {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} fresh set-ups"),
        "query_p50_ref": (_percentile(norm, 0.5),
                          f"n={n}; {_percentile(lat, 0.5):.4g} s, ref {ref_s * 1e3:.3g} ms"),
        "query_p90_ref": (p90, f"n={n}, {beyond} beyond; {_percentile(lat, 0.9):.4g} s"),
        "throughput_per_ref": (correct_n / sum(norm),
                               f"{correct_n} correct; {correct_n / sum(lat):.4g} per s "
                               f"of {sum(lat):.2f} s querying"),
        "peak_rss_mb": (res["peak_rss_mb"], "children" if workload == "cli" else "worker"),
    }
    metrics["failed_frac"] = (res["failed"] / n if n else 1.0, f"{res['failed']} of {n}")
    record = {"setup_runs": len(setups), "loop_runs": 1, "decks": res["decks"],
              "queries": n, "input_digest": digest, "sizes": res["sizes"],
              "failures": res["failures"]}
    return n, res["failed"], metrics, record


def _src_lines():
    out = {}
    for mod in SRC_MODULES:
        fname = "__init__" if mod == "init" else mod
        path = ROOT / "src" / "gencactus" / f"{fname}.py"
        out[f"{mod}.src_lines"] = len(path.read_text().splitlines())
    out["gencactus.src_lines"] = sum(out.values())
    return out


def _traced_run(workload, seed, small, deadline):
    path, digest = _write_inputs(workload, seed, TRACE_DECKS[workload], small)
    spans = OUT / f"spans_{workload}_{seed}.tsv"
    spans.write_text("")
    results = []
    for trace in (0, 1):
        worker = Worker(workload, path, "fixed", 0, trace, spans)
        try:
            worker.ready()
            results.append(worker.result(deadline))
        finally:
            worker.stop()
    plain, traced = results
    mismatched = sum(a != b for a, b in zip(plain["answers"], traced["answers"]))
    mismatched += abs(len(plain["answers"]) - len(traced["answers"]))
    failed = plain["failed"] + traced["failed"] + mismatched
    metrics = tracing.layer_metrics(traced["trace"])
    cli = traced.get("cli")
    if cli:
        metrics.update({
            "cli.import_s": statistics.median(cli["import_s"]),
            "cli.run_s": sum(cli["run_s"]),
            "cli.startup_share": 1 - sum(cli["run_s"]) / sum(cli["wall"]),
            "cli.unexpected_exit": cli["unexpected_exit"],
        })
    else:
        metrics.update({"cli.import_s": traced["import_s"], "cli.run_s": 0.0,
                        "cli.startup_share": 0.0, "cli.unexpected_exit": 0})
    metrics["trace.overhead_ratio"] = traced["loop_s"] / plain["loop_s"]
    sizes = traced["sizes"]
    for key in ("W", "F", "S"):
        metrics[f"size.{key}_sum"] = sum(s[key] for s in sizes.values())
    metrics.update(_src_lines())
    shown = {name: (metrics[name], "") for name, _ in per_layer_names()}
    record = {"setup_runs": 2, "loop_runs": 2, "decks": traced["decks"],
              "queries": len(traced["answers"]), "input_digest": digest, "sizes": sizes,
              "answer_mismatches": mismatched, "spans_file": str(spans.relative_to(ROOT)),
              "failures": plain["failures"] + traced["failures"]}
    return len(plain["answers"]) + len(traced["answers"]), failed, shown, record


def _git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(workload, seed, seconds, trace, small=False):
    deadline = time.perf_counter() + RUN_LIMIT_S
    if trace:
        attempted, failed, metrics, record = _traced_run(workload, seed, small, deadline)
        units = dict(per_layer_names())
    else:
        attempted, failed, metrics, record = _timed_run(workload, seed, seconds, small, deadline)
        units = dict(END_TO_END)
    for name, (value, note) in metrics.items():
        print(f"{workload:6} {name:28} {value:<14.6g} {units.get(name, 'ratio'):6} {note}")
    record.update({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                   "python": platform.python_version(), "git_rev": _git_rev(),
                   "nproc": os.cpu_count()})
    print("record " + json.dumps(record, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # failed_frac is printed above but is no metric: it is 0 when all is well
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items() if name in units},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--small", action="store_true",
                   help="reduced decks, for the benchmark's own tests")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "gencactus" / "__init__.py").is_file():
        print(f"error: no gencactus source tree under {ROOT}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_one(args.workload, args.seed, args.seconds, args.trace, args.small)
        else:
            parts = {w: run_one(w, args.seed, args.seconds, args.trace, args.small)
                     for w in gen.WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in parts.values()),
                "attempted": sum(r["attempted"] for r in parts.values()),
                "failed": sum(r["failed"] for r in parts.values()),
                "metrics": {f"{w}.{k}": v for w, r in parts.items()
                            for k, v in r["metrics"].items()},
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
