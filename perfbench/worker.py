"""One benchmark process: set up, answer queries in a closed loop, check.

Started by run.py as a fresh interpreter.  It imports gencactus, builds the
systems and contexts its workload uses, prints `ready` (the parent times
interpreter start to this line as set-up), then reads the generated inputs,
answers them one at a time and checks every answer after the timed loop.
The last line of its standard output is a JSON result for run.py.

Usage: worker.py --workload W --inputs FILE --mode probe|loop|fixed
                 --seconds S --trace 0|1 [--spans FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import inputs as gen

HERE = Path(__file__).resolve().parent
MIN_QUERIES = 100  # p90 then has at least 10 samples beyond it


def _parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    p.add_argument("--inputs", required=True)
    p.add_argument("--mode", required=True, choices=["probe", "loop", "fixed"])
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--spans")
    return p.parse_args(argv)


def _short(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# -- in-process workloads --------------------------------------------------------


class Words:
    systems = gen.WORDS_SYSTEMS

    def __init__(self, gc):
        self.gc = gc
        self.ctx = {
            n: gc.racg.RacgContext(gc.coxeter.CoxeterSystem.from_name(n)) for n in self.systems
        }

    def prepare(self, q):
        system = self.ctx[q["system"]].system
        words = {k: self.gc.cactus.CactusWord(system, [frozenset(l) for l in q[k]])
                 for k in ("word", "u", "v") if k in q}
        return q, words

    def run(self, item):
        q, w = item
        ctx, kind = self.ctx[q["system"]], q["kind"]
        if kind == "equal":
            return ctx.cactus_equal(w["u"], w["v"])
        if kind == "embed":
            return ctx.embed(w["word"])
        if kind == "eval":
            return self.gc.cactus.evaluate_to_coxeter(w["word"])
        return self.gc.cactus.is_pure(w["word"])

    def after_query(self, item):
        pass

    def _table_eval(self, ctx, word):
        # evaluation through the group table, an independent path from the
        # matrix products evaluate_to_coxeter makes
        table = ctx.table
        idx = 0
        for letter in word:
            idx = table.product(idx, self._longest[ctx.system][letter])
        return idx

    def check_setup(self):
        self._longest = {}
        for ctx in self.ctx.values():
            table, system = ctx.table, ctx.system
            self._longest[system] = {
                I: table.element_index(self.gc.coxeter.longest_element(system, I))
                for I in ctx.family
            }

    def check(self, item, answer):
        q, w = item
        ctx, kind = self.ctx[q["system"]], q["kind"]
        if kind == "equal":
            return answer is q["expect"]
        word = w["word"]
        w_idx = self._table_eval(ctx, word)
        if kind == "eval":
            return ctx.table.element_index(answer) == w_idx
        if kind == "pure":
            return answer is (w_idx == 0) and q["expect"] in (None, answer)
        normal = self.gc.racg.normal_form(answer.racg_part, ctx.M)
        return answer.aut_part == ctx.induced_aut(w_idx) and normal == answer.racg_part

    def canonical(self, item, answer):
        kind = item[0]["kind"]
        if kind == "embed":
            return (answer.racg_part, answer.aut_part.perm)
        if kind == "eval":
            return answer.word
        return answer

    def sizes(self):
        return {n: {"W": len(c.table), "F": len(c.family), "S": len(c.conjugates)}
                for n, c in self.ctx.items()}


def _mat_vec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


class Reps(Words):
    systems = gen.REPS_SYSTEMS

    def prepare(self, q):
        system = self.ctx[q["system"]].system
        word = None
        if "word" in q:
            word = self.gc.cactus.CactusWord(system, [frozenset(l) for l in q["word"]])
        return q, Fraction(q["t"]), word

    def _rep(self, ctx, which, t):
        if which == "Pi":
            return self.gc.rep.Pi_rep(ctx, t)
        return self.gc.rep.rho_rep(ctx.system, t)

    def run(self, item):
        q, t, word = item
        rep = self.gc.rep
        ctx = self.ctx[q["system"]]
        if q["kind"] == "Pi_of":
            return rep.Pi_of(ctx, word, t)
        if q["kind"].endswith("_check"):
            images = self._rep(ctx, q["kind"][:-len("_check")], t)
            report = rep.check_relations(ctx.system, images)
            return report.checked, tuple(report.violations)
        op, which = q["kind"].split("_")
        images = self._rep(ctx, which, t)
        lines = rep.stable_lines(images)
        if op == "stable":
            return images, lines
        v = lines[0][0]
        p = next(i for i, x in enumerate(v) if x != 0)
        keep = [i for i in range(len(v)) if i != p]
        return images, v, p, rep.quotient_rep(images, [v], keep)

    def after_query(self, item):
        # every query draws a fresh t; dropping its cached Pi keeps each query
        # cold and memory independent of how many queries a run completes
        self.ctx[item[0]["system"]].caches.clear()

    def check_setup(self):
        self._relations = {n: gen.relation_count(gen.Alphabet(n)) for n in self.systems}

    def check(self, item, answer):
        q, t, word = item
        ctx = self.ctx[q["system"]]
        kind = q["kind"]
        if kind == "Pi_of":
            return answer == self.gc.rep.Pi_of(ctx, ctx.embed(word), t)
        if kind.endswith("_check"):
            checked, violations = answer
            return not violations and checked == self._relations[q["system"]]
        if kind.startswith("stable"):
            images, lines = answer
            return bool(lines) and all(
                any(x != 0 for x in v)
                and all(_mat_vec(images[k], v) == tuple(s * x for x in v) for k, s in signs.items())
                for v, signs in lines
            )
        images, v, p, quotient = answer
        keep = [i for i in range(len(v)) if i != p]
        for key, m in images.items():
            # action on V / span(v) in the basis of the kept axes, with
            # e_p = -(1/v_p) sum_{i != p} v_i e_i modulo the line
            want = tuple(
                tuple(m[i][j] - m[p][j] * v[i] / v[p] for j in keep) for i in keep
            )
            if quotient[key] != want:
                return False
        return True

    def canonical(self, item, answer):
        if item[0]["kind"].startswith("quotient"):
            return answer[1:]
        if item[0]["kind"].startswith("stable"):
            return answer[1]
        return answer


# -- the cli workload ------------------------------------------------------------


class Cli:
    """Each query is one `python -m gencactus.cli` process; traced runs use
    launcher.py, which installs the tracer and calls gencactus.cli.run."""

    def __init__(self, gc, root, trace, spans_path):
        self.gc = gc
        self.root = root
        self.trace = trace
        self.spans_path = spans_path
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.snapshots, self.import_s, self.run_s, self.wall = [], [], [], []
        self.qid = 0
        self.unexpected_exit = 0

    def prepare(self, q):
        return q

    def run(self, q):
        self.qid += 1
        if self.trace:
            out = self.root / ".bench_out" / f"launch_{os.getpid()}.json"
            cmd = [sys.executable, str(HERE / "launcher.py"), "--query", str(self.qid),
                   "--trace-out", str(out), "--"] + q["argv"]
        else:
            cmd = [sys.executable, "-m", "gencactus.cli"] + q["argv"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=120)
        self.wall.append(time.perf_counter() - start)
        if self.trace:
            data = json.loads(out.read_text())
            out.unlink()
            self.snapshots.append(data["snapshot"])
            self.import_s.append(data["import_s"])
            self.run_s.append(data["run_s"])
            with open(self.spans_path, "a") as fh:
                fh.write(data["spans"])
        self.unexpected_exit += proc.returncode != q.get("exit", 0)
        return proc.returncode, proc.stdout

    def after_query(self, q):
        pass

    def check_setup(self):
        import clicheck

        self.checker = clicheck.Checker(self.gc, self.root)

    def check(self, q, answer):
        return self.checker.check(q, *answer)

    def canonical(self, q, answer):
        return answer

    def sizes(self):
        return self.checker.sizes()


# -- main ------------------------------------------------------------------------


def _import(workload, trace):
    start = time.perf_counter()
    if trace or workload == "cli":
        import gencactus.cli  # noqa: F401  (a fresh import, timed as cli.import_s)
    else:
        import gencactus  # noqa: F401
    import_s = time.perf_counter() - start
    import gencactus

    return gencactus, import_s


_REF_MATRIX = tuple(tuple(Fraction(4 * i + j + 1, j + 2) for j in range(4)) for i in range(4))


def reference():
    """A fixed pure-Python computation of about 15-20 ms: small Fraction matrix
    products and frozenset-keyed dict stores, the kind of work gencactus does.

    The shared host changes the speed of a vCPU by up to 2x within seconds,
    for every computation alike, so the loop times this before every query
    and run.py states query times in units of it."""
    seen = {}
    for k in range(50):
        m = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*_REF_MATRIX))
                  for row in _REF_MATRIX)
        seen[frozenset((i, k % 7) for i in range(4))] = m[k % 4][0]
    return len(seen)


def _timed_reference():
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def _pin_to_one_cpu():
    """Keep this process, and the command processes it starts, on one CPU, so
    that each query and the reference computation timed beside it run on
    the same vCPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _loop(work, items, decks, mode, seconds, tracer):
    """Answer whole decks.  In loop mode the first deck's time sets how many
    decks make up --seconds, and never fewer than MIN_QUERIES queries, and
    the reference computation is timed before each query and after the last."""
    latencies, answers, refs = [], [], []
    start = time.perf_counter()
    done_decks = 0
    planned = len(decks)
    for deck in decks:
        if done_decks == planned:
            break
        for item in deck:
            if mode == "loop":
                refs.append(_timed_reference())
            if tracer:
                tracer.query = len(latencies) + 1
            t0 = time.perf_counter()
            try:
                answer = work.run(items[id(item)])
            except Exception as exc:  # a raise is a failed query, not a crash
                answer = exc
            latencies.append(time.perf_counter() - t0)
            answers.append(answer)
            if tracer:
                tracer.active = False
            work.after_query(items[id(item)])
            if tracer:
                tracer.active = True
        done_decks += 1
        if mode == "loop" and done_decks == 1:
            first = time.perf_counter() - start
            planned = max(-(-MIN_QUERIES // len(deck)), round(seconds / first))
    if mode == "loop":
        refs.append(_timed_reference())
    return latencies, answers, refs, time.perf_counter() - start, done_decks


def main(argv=None):
    args = _parse_args(argv)
    root = HERE.parent
    tracer = None
    gc, import_s = _import(args.workload, args.trace)
    if args.trace:
        import tracer as tracing

        if args.workload != "cli":  # cli queries are traced in their own processes
            tracer = tracing.Tracer()
            tracer.install()
    if args.workload == "words":
        work = Words(gc)
    elif args.workload == "reps":
        work = Reps(gc)
    else:
        work = Cli(gc, root, args.trace, args.spans)
    print("ready", flush=True)
    if args.mode == "probe":
        return 0

    _pin_to_one_cpu()
    if tracer:
        tracer.active = False
    data = json.loads(Path(args.inputs).read_text())
    decks = data["decks"]
    items = {id(q): work.prepare(q) for deck in decks for q in deck}
    if tracer:
        tracer.active = True
    latencies, answers, refs, loop_s, done = _loop(work, items, decks, args.mode, args.seconds, tracer)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    if tracer:
        tracer.active = False

    work.check_setup()
    queries = [q for deck in decks[:done] for q in deck]
    failures, hashes = [], []
    for q, answer in zip(queries, answers):
        item = items[id(q)]
        if isinstance(answer, Exception):
            ok, canon = False, f"raised {type(answer).__name__}: {answer}"
        else:
            try:
                ok = work.check(item, answer)
                canon = work.canonical(item, answer)
            except Exception as exc:  # an answer the check cannot read is a failure
                ok, canon = False, f"unreadable answer: {exc!r}"
        hashes.append(_short(canon))
        if not ok:
            failures.append({"query": {k: v for k, v in q.items() if k != "word"},
                             "answer": repr(answer)[:300]})

    result = {
        "latencies": latencies,
        "refs": refs,
        "loop_s": loop_s,
        "decks": done,
        "failed": len(failures),
        "failures": failures[:5],
        "answers": hashes,
        "peak_rss_mb": peak_rss_mb,
        "import_s": import_s,
        "sizes": work.sizes(),
    }
    if args.trace and args.workload == "cli":
        result["trace"] = tracing.merge(work.snapshots)
        result["cli"] = {"import_s": work.import_s, "run_s": work.run_s, "wall": work.wall,
                         "unexpected_exit": work.unexpected_exit}
    elif tracer:
        result["trace"] = tracer.snapshot()
        with open(args.spans, "w") as fh:
            tracer.write_spans(fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
