"""Digest of the CLI's output over a fixed list of commands.

Runs each command through `gencactus.cli.run` in this process and prints
one sha256 per command over its exit code, stdout and stderr, then their
total.  Two source trees that print the same total print byte-identical
output on every command of the list, so a change that must not alter the
CLI's output is checked by running this script on both.

The list holds the README's CLI examples; every command on A2, B3, H3, D4,
I2(8), A1*A1 and an infinite system with bonds (infinity, 4), in text and
in JSON; `rep pi` on systems of several components with irrational bonds,
in text and in JSON; root tables at a large conductor and with bonds of
several shifts of x, in text and in JSON; and usage errors (exit 2) and
domain errors (exit 1).

Run:  PYTHONPATH=src python3 scripts/cli_digest.py
"""

import contextlib
import hashlib
import io
import json
import shlex
import sys
import tempfile
from pathlib import Path

from gencactus.cli import run

README = [
    ["--system", "A2", "fset"],
    ["--system", "B2", "longest", "{s1,s2}", "--format", "json"],
    ["--system", "A2", "eval", "g{s1} g{s1,s2}"],
    ["--system", "A2", "pure", "g{s2} g{s1,s2} g{s2} g{s1,s2} g{s2} g{s1,s2}"],
    ["--system", "A2", "equal", "g{s1} g{s1,s2}", "g{s1,s2} g{s2}"],
    ["--system", "A2", "normalize", "g{s2} g{s1,s2}", "--format", "json"],
    ["--system", "A2", "sset"],
    ["--system", "A2", "diagram"],
    ["--system", "A2", "rep", "rho", "--t", "5/2"],
    ["--system", "I2(5)", "rep", "pi", "--t", "1"],
    ["--system", "B3", "check-relations", "Pi", "--t", "2"],
    ["--system", "A2", "stable-lines", "Pi"],
    ["--system", "A2", "quotient", "Pi", "--restrict", "1,0,0,0", "--restrict", "0,1,0,0",
     "--restrict", "0,0,1,0", "--subspace", "1,-1,1", "--keep", "0,2"],
    ["--system", "A3", "dict-a", "s_{2,4}"],
]

# the system file of an infinite W with an irrational bond, written at run time
MIXED = {"labels": ["a", "b", "c"], "matrix": [[1, 0, 4], [0, 1, 2], [4, 2, 1]]}

# system -> (a subset for `longest`, two words)
SYSTEMS = {
    "A2": ("{s1,s2}", "g{s1} g{s1,s2}", "g{s1,s2} g{s2}"),
    "B3": ("{s1,s2,s3}", "g{s1} g{s2,s3} g{s1,s2,s3}", "g{s2,s3} g{s1,s2,s3} g{s2}"),
    "H3": ("{s1,s2,s3}", "g{s1,s2} g{s3} g{s1,s2,s3}", "g{s1,s2,s3} g{s2,s3} g{s1}"),
    "D4": ("{s1,s2,s3,s4}", "g{s1,s2} g{s2,s3,s4} g{s1,s2,s3,s4}",
           "g{s3} g{s1,s2,s3,s4} g{s4}"),
    "I2(8)": ("{a,b}", "g{a} g{a,b}", "g{a,b} g{b}"),
    "A1*A1": ("{a,b}", "g{a} g{b}", "g{b} g{a}"),
    "mixed.json": ("{a,c}", "g{a} g{a,c} g{b}", "g{b} g{a,c} g{c}"),
}

# rep pi at a large global conductor (N = 1,386) and at a non-integer t, and
# on a product of a rational and an irrational component
REP_PI = [
    ["--system", "I2(7)*I2(9)*I2(11)", "rep", "pi", "--t", "5/2"],
    ["--system", "B3*H3", "rep", "pi"],
]

# the system file of an infinite W whose one component holds bonds 4 and 5:
# at N = 40 they are -(x**5 + x**35) and -(x**4 + x**36), several shifts each
SHIFTS = {"labels": ["a", "b", "c"], "matrix": [[1, 4, 2], [4, 1, 5], [2, 5, 1]]}

ROOTS = [
    ["--system", "shifts.json", "eval", " ".join(["g{a} g{b,c} g{a,b} g{c} g{b}"] * 8)],
    ["--system", "shifts.json", "longest", "{b,c}"],
    ["--system", "shifts.json", "rep", "pi", "--t", "5/2"],
    ["--system", "I2(250)", "longest", "{a,b}"],  # N = 500, deg Phi_N = 200
]

ERRORS = [
    ["--system", "E7", "equal", "g{s1}", "g{s1}"],  # |W| too large: exit 1
    ["--system", "mixed.json", "sset"],  # infinite W: exit 1
    ["--system", "A2", "rep", "rho", "--t", "1"],  # degenerate form: exit 1
    ["--system", "A2", "sset", "--max-len", "2"],  # W not exhausted: exit 1
    ["--system", "A2", "quotient", "rho", "--subspace", "1,0,0"],  # not invariant: exit 1
    ["--system", "A9x", "fset"],  # the rest are usage errors: exit 2
    ["fset"],
    ["--system", "A2", "eval", "g{s9}"],
    ["--system", "A2", "eval", "g{s1"],
    ["--system", "A2", "rep", "rho", "--t", "x"],
    ["--system", "A2", "quotient", "Pi", "--subspace", "1,0", "--keep", "9"],
    ["--system", "A2", "frobnicate"],
    ["--system", "missing.json", "fset"],
]


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def commands_on(name, first_line):
    """Every command on one system; `first_line(name, kind)` is the first
    stable line of that rep, the subspace its quotient is taken by."""
    subset, word, other = SYSTEMS[name]
    for argv in (["fset"], ["longest", subset], ["sset"], ["diagram"], ["eval", word],
                 ["pure", word], ["equal", word, other], ["normalize", word],
                 ["dict-a", "s_{1,2}"], ["dict-a", "g{s1,s2}"]):
        yield argv
    for kind in ("pi", "rho", "Pi"):
        yield ["rep", kind]
    for kind in ("rho", "Pi"):
        yield ["check-relations", kind]
        yield ["stable-lines", kind]
        yield ["quotient", kind, "--subspace", first_line(name, kind)]


def main():
    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, data in (("mixed.json", MIXED), ("shifts.json", SHIFTS)):
            files[name] = str(Path(tmp) / name)
            Path(files[name]).write_text(json.dumps(data))

        def check(argv):
            code, out, err = invoke([files.get(a, a) for a in argv])
            digest = hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()
            digests.append(digest)
            print(f"{digest}  {code}  {shlex.join(argv)}")
            return code, out

        def first_line(name, kind):
            code, out = check(["--system", name, "stable-lines", kind, "--format", "json"])
            lines = json.loads(out)["lines"] if code == 0 else []
            return ",".join(lines[0]["vector"]) if lines else "1"

        for argv in README:
            check(argv)
        for name in SYSTEMS:
            for fmt in ("text", "json"):
                for argv in commands_on(name, first_line):
                    check(["--system", name, *argv, "--format", fmt])
        for argv in REP_PI + ROOTS:
            for fmt in ("text", "json"):
                check([*argv, "--format", fmt])
        for argv in ERRORS:
            check(argv)
    print("total", hashlib.sha256("".join(digests).encode()).hexdigest())


if __name__ == "__main__":
    sys.exit(main())
