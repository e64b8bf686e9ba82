"""Command line front end.

One binary, subcommand style.  Output is deterministic; rationals print as
exact "p/q" strings and cyclotomic scalars as c(k,N) polynomials, both by
`str` (a CycloReal's is `format_scalar`).  Exit codes: 0 success, 1 domain
errors, 2 usage errors.  A command imports the layers it runs when it runs:
racg for the embedding, rep and linalg for the representations, and scalar
only where a CycloReal is made (the matrices of an irrational system, or a
certified sign on an infinite W), so a process compiles nothing else.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .cactus import (
    CactusWord,
    evaluate_to_coxeter,
    format_word,
    is_pure,
    parse_classical_generator,
    parse_word,
    type_a_dictionary,
)
from .coxeter import CoxeterSystem, connected_subsets, enumerate_group, longest_element
from .errors import CactusError, InputError


def _add_common(parser, suppress: bool) -> None:
    # the same flags are valid before and after the subcommand; the subparser
    # copies must not clobber root values, hence SUPPRESS defaults there
    def d(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--system", default=d(None),
                        help="named system (A2, I2(5), A1*A1, ...) or JSON file path")
    parser.add_argument("--t", default=d("2"),
                        help="rational parameter, e.g. 2 or 5/2 (default 2)")
    parser.add_argument("--format", choices=["json", "text"], dest="fmt", default=d("text"))
    parser.add_argument("--max-len", type=int, dest="max_len", default=d(None),
                        help="bound the group enumeration radius; error if not exhausted")


def _build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="gencactus",
        description="cactus groups over Coxeter systems: words, embeddings, representations",
    )
    _add_common(root, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = root.add_subparsers(dest="command", required=True)

    def cmd(name, handler, help_, *positional):
        p = sub.add_parser(name, help=help_, parents=[common])
        for arg_name, arg_kw in positional:
            p.add_argument(arg_name, **arg_kw)
        p.set_defaults(run=handler)
        return p

    cmd("fset", _cmd_fset, "list the connected finite-type subsets F(S)")
    cmd("longest", _cmd_longest, "reduced word of the longest element of W_I",
        ("subset", {"help": "subset like {s1,s2}"}))
    cmd("sset", _cmd_sset, "list the parabolic conjugates S and the big matrix M")
    cmd("eval", _cmd_eval, "image of a cactus word in W",
        ("word", {"help": "cactus word like 'g{s1} g{s1,s2}'"}))
    cmd("pure", _cmd_pure, "whether a cactus word lies in the pure cactus group",
        ("word", {}))
    cmd("equal", _cmd_equal, "whether two cactus words are equal in the cactus group",
        ("word1", {}), ("word2", {}))
    cmd("normalize", _cmd_normalize, "canonical semidirect form of a cactus word",
        ("word", {}))
    cmd("rep", _cmd_rep, "generator matrices of a representation",
        ("kind", {"choices": ["rho", "pi", "Pi"]}))
    cmd("check-relations", _cmd_check_relations, "verify the defining relations on generator images",
        ("kind", {"choices": ["rho", "Pi"]}))
    cmd("stable-lines", _cmd_stable_lines, "lines preserved by every generator, with signs",
        ("kind", {"choices": ["rho", "Pi"]}))
    q = cmd("quotient", _cmd_quotient, "action induced on the quotient by an invariant subspace",
            ("kind", {"choices": ["rho", "Pi"], "nargs": "?", "default": "Pi"}))
    q.add_argument("--subspace", action="append", required=True, metavar="VEC",
                   help="subspace vector as comma-separated rationals; repeatable")
    q.add_argument("--restrict", action="append", default=[], metavar="VEC",
                   help="first restrict to the span of these vectors; repeatable")
    q.add_argument("--keep", default=None, metavar="I,J,...",
                   help="coordinate axes representing the quotient (default: first transverse axes)")
    cmd("diagram", _cmd_diagram, "DOT graph of the commutation relations in M")
    cmd("dict-a", _cmd_dict_a, "translate s_{p,q} to a gamma letter and back (type A)",
        ("item", {"help": "s_{p,q} or g{...}"}))
    return root


# -- helpers -------------------------------------------------------------------


def _system_from_args(args) -> CoxeterSystem:
    spec = args.system
    if not spec:
        raise InputError("missing --system")
    if os.path.isfile(spec):
        import json

        try:
            with open(spec) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read system file {spec!r}: {exc}") from None
        return CoxeterSystem.from_json(data)
    return CoxeterSystem.from_name(spec)


def _context(system, args):
    from .racg import RacgContext

    if args.max_len is not None:
        enumerate_group(system, args.max_len)  # reads the table the context reuses
    return RacgContext(system)


def _parse_vector(text: str, dim: int):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != dim:
        raise InputError(f"vector {text!r} needs {dim} coordinates")
    try:
        return tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad rational in vector {text!r}") from None


def _matrix_rows(mat) -> list:
    return [[str(x) for x in row] for row in mat]


def _emit(args, payload: dict, text: str) -> int:
    if args.fmt == "json":
        import json

        print(json.dumps(payload, indent=2))
    else:
        print(text)
    return 0


def _emit_matrices(args, payload: dict, header: list, rep: dict, name) -> int:
    """Emit the matrices of rep after payload's keys (json) or after the
    header lines, each as the name of its key and then one tab-separated
    line per row (text)."""
    payload["matrices"] = [{"generator": name(k), "rows": _matrix_rows(m)} for k, m in rep.items()]
    lines = list(header)
    for entry in payload["matrices"]:
        lines.append(entry["generator"])
        lines.extend("  " + "\t".join(row) for row in entry["rows"])
    return _emit(args, payload, "\n".join(lines))


def _word_str(system, element) -> str:
    return " ".join(system.labels[i] for i in element.word) if element.word else "e"


def _rep(args, system):
    """The images of args.kind at --t as the library keys them (a letter's
    subset, or a generator's index for pi), the printed name of a key, and t."""
    try:
        t = Fraction(args.t)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad rational for --t: {args.t!r}") from None
    if args.kind == "pi":
        return ({s: system.reflection_matrix(s, t) for s in range(system.rank)},
                system.labels.__getitem__, t)
    from .rep import Pi_rep, rho_rep

    rep = rho_rep(system, t) if args.kind == "rho" else Pi_rep(_context(system, args), t)
    return rep, lambda I: "g" + system.format_subset(I), t


# -- subcommands ---------------------------------------------------------------


def _cmd_fset(args, system) -> int:
    fset = connected_subsets(system)
    payload = {"fset": [sorted(system.labels[i] for i in I) for I in fset]}
    text = "\n".join(system.format_subset(I) for I in fset)
    return _emit(args, payload, text)


def _cmd_longest(args, system) -> int:
    subset = system.parse_subset(args.subset)
    w = longest_element(system, subset)
    word = _word_str(system, w)
    return _emit(args, {"word": word, "length": len(w.word)}, word)


def _cmd_sset(args, system) -> int:
    ctx = _context(system, args)
    payload = ctx.sset_json()
    lines = []
    for i, entry in enumerate(payload["S"]):
        lines.append(f"{i}: {{{', '.join(entry)}}}")
    lines.append("M:")
    for row in payload["M"]:
        lines.append("  " + " ".join(str(x) for x in row))
    return _emit(args, payload, "\n".join(lines))


def _cmd_eval(args, system) -> int:
    word = parse_word(system, args.word)
    el = evaluate_to_coxeter(word)
    text = _word_str(system, el)
    return _emit(args, {"word": text, "length": len(el.word)}, text)


def _cmd_pure(args, system) -> int:
    result = is_pure(parse_word(system, args.word))
    return _emit(args, {"pure": result}, "true" if result else "false")


def _cmd_equal(args, system) -> int:
    ctx = _context(system, args)
    u = parse_word(system, args.word1)
    v = parse_word(system, args.word2)
    result = ctx.cactus_equal(u, v)
    return _emit(args, {"equal": result}, "true" if result else "false")


def _cmd_normalize(args, system) -> int:
    ctx = _context(system, args)
    el = ctx.embed(parse_word(system, args.word))
    payload = el.to_json()
    text = "racg: {}\naut: {}".format(
        " ".join(str(i) for i in payload["racg"]) or "e",
        " ".join(str(i) for i in payload["aut"]),
    )
    return _emit(args, payload, text)


def _cmd_rep(args, system) -> int:
    rep, name, t = _rep(args, system)
    return _emit_matrices(args, {"kind": args.kind, "t": str(t)}, [], rep, name)


def _cmd_check_relations(args, system) -> int:
    from .rep import check_relations

    rep, _, _ = _rep(args, system)
    report = check_relations(system, rep)
    payload = {
        "checked": report.checked,
        "violations": [list(v) for v in report.violations],
    }
    _emit(args, payload, report.summary())
    return 0 if report.ok else 1


def _cmd_stable_lines(args, system) -> int:
    from .rep import stable_lines

    rep, name, _ = _rep(args, system)
    lines = stable_lines(rep)
    payload = {
        "lines": [
            {
                "vector": [str(x) for x in vec],
                "signs": {name(k): sign for k, sign in signs.items()},
            }
            for vec, signs in lines
        ]
    }
    text_lines = []
    for vec, signs in lines:
        coords = ",".join(str(x) for x in vec)
        sig = " ".join(f"{name(k)}:{'+1' if s > 0 else '-1'}" for k, s in signs.items())
        text_lines.append(f"{coords}  {sig}")
    return _emit(args, payload, "\n".join(text_lines) if text_lines else "none")


def _default_keep(subspace, dim):
    from .linalg import reduced_basis

    # the axes that are no vector's own coordinate in the reduced basis: the
    # first axes transverse to the subspace
    own = {max(i for i, x in enumerate(v) if x != 0) for v in reduced_basis(subspace)}
    return [i for i in range(dim) if i not in own]


def _cmd_quotient(args, system) -> int:
    from .rep import quotient_rep, restrict_rep

    rep, name, _ = _rep(args, system)
    dim = len(next(iter(rep.values())))
    if args.restrict:
        basis = [_parse_vector(v, dim) for v in args.restrict]
        rep = restrict_rep(rep, basis)
        dim = len(basis)
    subspace = [_parse_vector(v, dim) for v in args.subspace]
    if args.keep is not None:
        try:
            keep = [int(p) for p in args.keep.split(",") if p.strip()]
        except ValueError:
            raise InputError(f"bad --keep list: {args.keep!r}") from None
    else:
        keep = _default_keep(subspace, dim)
    quotient = quotient_rep(rep, subspace, keep)
    header = [f"keep: {','.join(str(i) for i in keep)}"]
    return _emit_matrices(args, {"keep": keep}, header, quotient, name)


def _cmd_diagram(args, system) -> int:
    ctx = _context(system, args)
    lines = ["graph sset {"]
    for i, pc in enumerate(ctx.conjugates):
        lines.append(f'  n{i} [label="{pc.label()}"];')
    for i, c in enumerate(ctx.commuting):
        lines += [f"  n{i} -- n{j};" for j in sorted(c) if j > i]
    lines.append("}")
    text = "\n".join(lines)
    print(text)
    return 0


def _cmd_dict_a(args, system) -> int:
    item = args.item.strip()
    if item.startswith("g{"):
        back = type_a_dictionary(system, "to_classical")
        subset = system.parse_subset(item[1:])
        if subset not in back:
            raise InputError(f"not an interval letter: {item!r}")
        p, q = back[subset]
        out = f"s_{{{p},{q}}}"
        return _emit(args, {"classical": [p, q]}, out)
    p, q = parse_classical_generator(item)
    forward = type_a_dictionary(system, "to_cactus")
    if (p, q) not in forward:
        raise InputError(f"s_{{{p},{q}}} out of range for this system")
    letter = "g" + system.format_subset(forward[(p, q)])
    return _emit(args, {"letter": letter}, letter)


def run(argv=None) -> int:
    parser = _build_parser()
    # argparse reads a value such as -1/2 or -2/3,1 as an option: join it to its flag
    words = []
    for word in sys.argv[1:] if argv is None else argv:
        flag = words[-1] if words else None
        if flag in ("--t", "--subspace", "--restrict", "--keep") and word[:1] == "-":
            words[-1] = f"{flag}={word}"
        else:
            words.append(word)
    try:
        args = parser.parse_args(words)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args, _system_from_args(args))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CactusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
