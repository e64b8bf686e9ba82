"""Checks one `gencactus` command's exit code and stdout.

README examples are compared with the text the README prints.  Every other
command is compared with the answer of the in-process API for the same
system and arguments: matrices and vectors printed by the CLI are parsed back
with parse_scalar and compared exactly, words and subsets are compared as
labels.  Pairs that are equal or unequal by construction and
pure-by-construction words are also checked against what the generator knows.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_MULTI = ("--restrict", "--subspace")


def _split(argv):
    """(positionals, options) of an argv the generator wrote."""
    pos, opts = [], {k: [] for k in _MULTI}
    it = iter(argv)
    for tok in it:
        if tok.startswith("--"):
            value = next(it)
            if tok in _MULTI:
                opts[tok].append(value)
            else:
                opts[tok] = value
        else:
            pos.append(tok)
    return pos, opts


def _vec(text):
    return tuple(Fraction(p) for p in text.split(","))


class Checker:
    def __init__(self, gc, root):
        self.gc = gc
        self.root = root
        self._systems = {}
        self._contexts = {}
        self._expected = {}

    # -- cached API objects --------------------------------------------------

    def system(self, spec):
        if spec not in self._systems:
            cox = self.gc.coxeter.CoxeterSystem
            path = self.root / spec
            if path.is_file():
                self._systems[spec] = cox.from_json(json.loads(path.read_text()))
            else:
                self._systems[spec] = cox.from_name(spec)
        return self._systems[spec]

    def context(self, spec):
        if spec not in self._contexts:
            self._contexts[spec] = self.gc.racg.RacgContext(self.system(spec))
        return self._contexts[spec]

    def sizes(self):
        return {n: {"W": len(c.table), "F": len(c.family), "S": len(c.conjugates)}
                for n, c in self._contexts.items()}

    def _rep(self, spec, kind, t):
        """(images by printed generator name, images as check_relations takes them)."""
        gc = self.gc
        system = self.system(spec)
        if kind == "pi":
            raw = {s: system.reflection_matrix(s, t) for s in range(system.rank)}
            return {system.labels[s]: m for s, m in raw.items()}, raw
        if kind == "rho":
            raw = gc.rep.rho_rep(system, t)
        else:
            raw = gc.rep.Pi_rep(self.context(spec), t)
        return {"g" + system.format_subset(I): m for I, m in raw.items()}, raw

    # -- parsing CLI output back into values -----------------------------------

    def _matrices_json(self, payload):
        parse = self.gc.scalar.parse_scalar
        return {m["generator"]: tuple(tuple(parse(x) for x in row) for row in m["rows"])
                for m in payload["matrices"]}

    def _matrices_text(self, lines):
        parse = self.gc.scalar.parse_scalar
        out, name = {}, None
        for line in lines:
            if line.startswith("  "):
                out[name] = out[name] + (tuple(parse(x) for x in line.strip().split("\t")),)
            else:
                name = line
                out[name] = ()
        return out

    # -- expected answers ------------------------------------------------------

    def _word(self, element):
        labels = element.system.labels
        return " ".join(labels[i] for i in element.word) if element.word else "e"

    def _answer(self, argv):
        """(exit code, predicate on stdout) from the in-process API."""
        gc = self.gc
        pos, opts = _split(argv)
        spec, fmt = opts["--system"], opts.get("--format", "text")
        t = Fraction(opts.get("--t", "2"))
        system = self.system(spec)
        cmd, args = pos[0], pos[1:]

        def out(payload, text=None):
            if fmt == "json":
                return 0, lambda s: json.loads(s) == payload
            return 0, lambda s: s.rstrip("\n") == text

        if "--max-len" in opts:
            try:
                gc.coxeter.enumerate_group(system, max_length=int(opts["--max-len"]))
            except gc.errors.InfiniteGroupError:
                return 1, lambda s: s == ""
        try:
            if cmd == "fset":
                fset = gc.coxeter.connected_subsets(system)
                return out({"fset": [sorted(system.labels[i] for i in I) for I in fset]},
                           "\n".join(system.format_subset(I) for I in fset))
            if cmd == "longest":
                w = gc.coxeter.longest_element(system, system.parse_subset(args[0]))
                return out({"word": self._word(w), "length": len(w.word)}, self._word(w))
            if cmd == "eval":
                el = gc.cactus.evaluate_to_coxeter(gc.cactus.parse_word(system, args[0]))
                return out({"word": self._word(el), "length": len(el.word)}, self._word(el))
            if cmd == "pure":
                pure = gc.cactus.is_pure(gc.cactus.parse_word(system, args[0]))
                return out({"pure": pure}, "true" if pure else "false")
            if cmd == "equal":
                ctx = self.context(spec)
                u, v = (gc.cactus.parse_word(system, a) for a in args)
                same = ctx.cactus_equal(u, v)
                return out({"equal": same}, "true" if same else "false")
            if cmd == "normalize":
                el = self.context(spec).embed(gc.cactus.parse_word(system, args[0]))
                return out(el.to_json())
            if cmd == "sset":
                return 0, self._sset_predicate(self.context(spec).sset_json(), fmt)
            if cmd == "diagram":
                return 0, self._diagram_predicate(self.context(spec))
            if cmd == "dict-a":
                return self._dict_a(system, args[0], fmt)
            named, raw = self._rep(spec, args[0] if args else "Pi", t)
            if cmd == "rep":
                if fmt == "json":
                    return 0, lambda s: self._matrices_json(json.loads(s)) == named
                return 0, lambda s: self._matrices_text(s.rstrip("\n").split("\n")) == named
            if cmd == "check-relations":
                report = gc.rep.check_relations(system, raw)
                payload = {"checked": report.checked,
                           "violations": [list(v) for v in report.violations]}
                code = 0 if report.ok else 1
                if fmt == "json":
                    return code, lambda s: json.loads(s) == payload
                return code, lambda s: s.rstrip("\n") == report.summary()
            if cmd == "stable-lines":
                return 0, self._lines_predicate(gc.rep.stable_lines(named), fmt)
            if cmd == "quotient":
                if opts["--restrict"]:
                    named = gc.rep.restrict_rep(named, [_vec(v) for v in opts["--restrict"]])
                keep = [int(k) for k in opts["--keep"].split(",")]
                q = gc.rep.quotient_rep(named, [_vec(v) for v in opts["--subspace"]], keep)

                def quotient_ok(s):
                    lines = s.rstrip("\n").split("\n")
                    return (lines[0] == "keep: " + ",".join(map(str, keep))
                            and self._matrices_text(lines[1:]) == q)

                return 0, quotient_ok
        except gc.errors.InputError:
            return 2, lambda s: s == ""
        except gc.errors.CactusError:
            return 1, lambda s: s == ""
        raise ValueError(f"no check for command {cmd!r}")

    def _sset_predicate(self, sset, fmt):
        if fmt == "json":
            return lambda s: json.loads(s) == sset

        def text_ok(s):
            lines = s.rstrip("\n").split("\n")
            n = len(sset["S"])
            sets = [re.fullmatch(r"(\d+): \{(.*)\}", line) for line in lines[:n]]
            rows = [[int(x) for x in line.split()] for line in lines[n + 1:]]
            return (all(m and int(m.group(1)) == i and m.group(2).split(", ") == sset["S"][i]
                        for i, m in enumerate(sets))
                    and lines[n] == "M:" and rows == sset["M"])

        return text_ok

    def _diagram_predicate(self, ctx):
        n = len(ctx.conjugates)
        labels = [pc.label() for pc in ctx.conjugates]
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if ctx.M[i][j] == 2}

        def ok(s):
            lines = s.rstrip("\n").split("\n")
            nodes = [re.fullmatch(r'  n(\d+) \[label="(.*)"\];', line) for line in lines[1:n + 1]]
            got = {tuple(map(int, m.groups()))
                   for m in (re.fullmatch(r"  n(\d+) -- n(\d+);", line) for line in lines[n + 1:-1])
                   if m}
            return (lines[0] == "graph sset {" and lines[-1] == "}"
                    and [m and m.group(2) for m in nodes] == labels
                    and got == edges and len(lines) == n + len(edges) + 2)

        return ok

    def _lines_predicate(self, lines, fmt):
        parse = self.gc.scalar.parse_scalar
        want = [(tuple(v), dict(signs)) for v, signs in lines]

        def ok(s):
            if fmt == "json":
                got = [(tuple(parse(x) for x in line["vector"]), line["signs"])
                       for line in json.loads(s)["lines"]]
            elif s.strip() == "none":
                got = []
            else:
                got = []
                for line in s.rstrip("\n").split("\n"):
                    coords, _, sig = line.partition("  ")
                    signs = dict(tok.rsplit(":", 1) for tok in sig.split())
                    got.append((tuple(parse(x) for x in coords.split(",")),
                                {k: int(v) for k, v in signs.items()}))
            return got == want

        return ok

    def _dict_a(self, system, item, fmt):
        gc = self.gc
        if item.startswith("g{"):
            p, q = gc.cactus.type_a_dictionary(system, "to_classical")[system.parse_subset(item[1:])]
            return (0, (lambda s: json.loads(s) == {"classical": [p, q]}) if fmt == "json"
                    else (lambda s: s.strip() == f"s_{{{p},{q}}}"))
        p, q = gc.cactus.parse_classical_generator(item)
        letter = "g" + system.format_subset(gc.cactus.type_a_dictionary(system)[(p, q)])
        return (0, (lambda s: json.loads(s) == {"letter": letter}) if fmt == "json"
                else (lambda s: s.strip() == letter))

    # -- entry -----------------------------------------------------------------

    def check(self, q, code, stdout):
        if "readme" in q:
            return code == 0 and stdout.rstrip("\n") == q["readme"]
        if "readme_json" in q:
            return code == 0 and json.loads(stdout) == q["readme_json"]
        key = tuple(q["argv"])
        if key not in self._expected:
            self._expected[key] = self._answer(q["argv"])
        want_code, predicate = self._expected[key]
        if code != want_code or code != q.get("exit", 0):
            return False
        if not predicate(stdout):
            return False
        if "expect" in q:
            return stdout.strip() == ("true" if q["expect"] else "false")
        return True
