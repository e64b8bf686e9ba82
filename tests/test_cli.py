import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import oracle_rep
from gencactus.cactus import CactusWord, evaluate_to_coxeter, format_word, is_pure
from gencactus.cli import _default_keep, run
from gencactus.coxeter import CoxeterSystem, GroupTable, connected_subsets
from gencactus.errors import SubspaceError
from gencactus.linalg import identity_matrix
from gencactus import rep as rep_module
from gencactus.rep import quotient_rep
from test_coxeter import affine_triangle


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_cli_examples() -> list:
    """(argv, printed lines) of each `$ gencactus ...` example in the
    README's CLI section that shows its output."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in section.split("```")[1::2]:
        for line in block.splitlines():
            if line.startswith("$ gencactus "):
                examples.append([line[2:], []])
            elif examples and examples[-1][0].endswith("\\"):
                examples[-1][0] = examples[-1][0][:-1] + line
            elif examples and line.strip():
                examples[-1][1].append(line)
    return [(shlex.split(cmd.split(" #")[0])[1:], out) for cmd, out in examples if out]


def test_readme_cli_examples_print_what_the_readme_shows(capsys):
    examples = readme_cli_examples()
    assert len(examples) == 7
    for argv, printed in examples:
        code, out, err = invoke(capsys, *argv)
        assert code == 0, (argv, err)
        if "json" in argv:  # the README prints JSON compact, the CLI indents it
            assert json.loads(out) == json.loads("\n".join(printed)), argv
        else:
            assert out == "\n".join(printed) + "\n", argv


def test_fset_text(capsys):
    code, out, _ = invoke(capsys, "fset", "--system", "A2")
    assert code == 0
    assert out.splitlines() == ["{s1}", "{s2}", "{s1,s2}"]


def test_fset_json(capsys):
    code, out, _ = invoke(capsys, "--format", "json", "fset", "--system", "A3")
    assert code == 0
    data = json.loads(out)
    assert ["s1", "s2", "s3"] in data["fset"]


def test_fset_at_rank_20_in_a_fresh_process():
    # F(S) of A20 is its 210 intervals; no step of a fresh `fset` is 2^rank
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "gencactus.cli", "--system", "A20", "fset"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 210
    assert lines[0] == "{s1}" and lines[-1] == "{" + ",".join(f"s{i}" for i in range(1, 21)) + "}"


def test_flags_on_either_side(capsys):
    code1, out1, _ = invoke(capsys, "--system", "A2", "fset")
    code2, out2, _ = invoke(capsys, "fset", "--system", "A2")
    assert (code1, out1) == (code2, out2)


def test_longest(capsys):
    code, out, _ = invoke(capsys, "longest", "{s1,s2}", "--system", "A2")
    assert code == 0
    assert out.strip() == "s1 s2 s1"


def test_longest_json(capsys):
    code, out, _ = invoke(capsys, "longest", "{s1,s2}", "--system", "B2", "--format", "json")
    data = json.loads(out)
    assert data["length"] == 4


def test_eval_and_pure(capsys):
    word = "g{s2} g{s1,s2} g{s2} g{s1,s2} g{s2} g{s1,s2}"
    code, out, _ = invoke(capsys, "eval", word, "--system", "A2")
    assert code == 0 and out.strip() == "e"
    code, out, _ = invoke(capsys, "pure", word, "--system", "A2")
    assert code == 0 and out.strip() == "true"
    code, out, _ = invoke(capsys, "pure", "g{s1}", "--system", "A2")
    assert code == 0 and out.strip() == "false"


def test_equal(capsys):
    code, out, _ = invoke(
        capsys, "equal", "g{s1} g{s1,s2}", "g{s1,s2} g{s2}", "--system", "A2"
    )
    assert code == 0 and out.strip() == "true"
    code, out, _ = invoke(capsys, "equal", "g{s1}", "g{s2}", "--system", "A2")
    assert code == 0 and out.strip() == "false"


# the first 16 hex digits of the sha256 of stdout of `sset --format json`,
# `diagram` and `normalize W --format json`, with W below
SSET_DIAGRAM_NORMALIZE_DIGESTS = {
    "A2": ("93575702d199a3a5", "dabe62cebae099e6", "ca3afb4ac2012522"),
    "A3": ("4294f671cb963338", "b5c3986fc6f20cb8", "3789bae4d8a07b8b"),
    "B3": ("b89c55a2cafc1dc8", "90b5ba2e7b2b9257", "99b0e1943e8be6ce"),
    "H3": ("ddab905e53518036", "a2c149977fe7d23c", "95e606e8b166c918"),
    "A4": ("425d5c6172227fa0", "b6a7a380da166191", "f462d355533e32ac"),
    "D4": ("caaa600a89a62a53", "d94d7eb5a2ce1976", "01d172f8d585715f"),
    "B4": ("d9dc19da9af5d361", "4d6f7c7e3958d730", "3cffe7780faf9c7d"),
    "F4": ("961aa95d2bf22f48", "0c6fee763820a85f", "61b26438e410329a"),
    "I2(7)": ("2cd94334f25156d4", "127ef4be887ae31f", "52a146f5ef8c97cc"),
    "A2*A2": ("f5ba6c9c7ab3fce8", "47ba1ebea6699636", "c53fdb72c0c06b80"),
    "H4": ("d61f9a853b620d97", "c3659894807e5fd3", "f88a1fd00bd0075c"),
    "E6": ("3b04f997cefe8e76", "45554161807aee0d", "0c8d06724dc1b511"),
}
DIGEST_WORDS = {"I2(7)": "g{a} g{a,b} g{b}", "A2*A2": "g{a1} g{a1,a2} g{b2}"}


@pytest.mark.parametrize("name", list(SSET_DIAGRAM_NORMALIZE_DIGESTS))
def test_sset_diagram_and_normalize_outputs_are_pinned(capsys, name):
    word = DIGEST_WORDS.get(name, "g{s1} g{s1,s2} g{s2}")
    digests = []
    for argv in (["sset", "--format", "json"], ["diagram"], ["normalize", word, "--format", "json"]):
        code, out, _ = invoke(capsys, "--system", name, *argv)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest()[:16])
    assert tuple(digests) == SSET_DIAGRAM_NORMALIZE_DIGESTS[name]


def test_commands_that_read_commutation_never_build_the_dense_m(capsys, monkeypatch):
    # diagram, the word problem and Pi read the commuting sets only
    from gencactus.racg import RacgContext

    def refuse(ctx):
        raise AssertionError("the dense M was built")

    monkeypatch.setattr(RacgContext, "M", property(refuse))
    word = "g{s1} g{s1,s2} g{s2,s3} g{s1}"
    for argv in (["diagram"], ["equal", word, "g{s1,s2} g{s2,s3}"], ["normalize", word],
                 ["rep", "Pi", "--t", "2"], ["check-relations", "Pi", "--t", "5/2"]):
        code, out, err = invoke(capsys, "--system", "B3", *argv)
        assert code == 0 and out and not err, argv


# the first 16 hex digits of the sha256 of the exit codes, stdout and stderr
# of `rep`, `check-relations` and `stable-lines` for rho and Pi, in text and
# JSON, and of the rho `quotient` by the first rho stable line, at each t of
# REP_DIGEST_TS (at t = 1 the form on R^F(S) of most systems degenerates)
REP_DIGEST_TS = ("2", "5/2", "8793/1033", "1")
REP_DIGESTS = {
    "A2": ("354398ef40f7f6fa", "f15cdcb617cd7ee6", "972f6b00f9a00aa4", "430a2377d8aede73"),
    "A3": ("5d9a740a8d1f50d2", "c4c35ae5cadb751b", "4ce7630fa096b510", "00718a50a6b9f089"),
    "B3": ("d1fcc15dbcac9fed", "d24f4d0478260652", "2716b1ee293efb6f", "214436489c4cd510"),
    "H3": ("952c57ddcffb01ad", "342799d9f70b5a39", "38fa98d820f5d185", "9835840f98ecadd8"),
    "A4": ("cfcb301673701616", "36561fecee0d93b7", "893582067cc6c6af", "a85c570cd3c948cb"),
    "D4": ("c7009c6bd7e0632e", "fb387dc0b73a7405", "cdecb1541afe3ed6", "10bd0866ca624d0b"),
    "B4": ("ee1fa1812795f096", "e022b0d7e7e0ba40", "e53dc5c95e6b0b40", "ce9589525da6c74c"),
    "I2(5)": ("99a0cf992f224f8b", "962e73a8c0098d57", "099b4a474a85b4f7", "037c36a3135757f4"),
    "A1*A1": ("16545060512fe8ab", "5f4bdfc54bdbe400", "ed4033bc15a14f01", "f3b0f6f530ef7563"),
}


@pytest.mark.parametrize("name", list(REP_DIGESTS))
def test_rep_outputs_are_pinned(capsys, name):
    digests = []
    for t in REP_DIGEST_TS:
        h = hashlib.sha256()
        base = ("--system", name, "--t", t)
        for command in ("rep", "check-relations", "stable-lines"):
            for which in ("rho", "Pi"):
                for fmt in ("text", "json"):
                    code, out, err = invoke(capsys, command, which, *base, "--format", fmt)
                    h.update(f"{code}\n{out}\n{err}\n".encode())
        code, out, _ = invoke(capsys, "stable-lines", "rho", *base, "--format", "json")
        if code == 0:
            vec = ",".join(json.loads(out)["lines"][0]["vector"])
            for fmt in ("text", "json"):
                code, out, err = invoke(capsys, "quotient", "rho", *base, "--subspace", vec,
                                        "--format", fmt)
                h.update(f"{code}\n{out}\n{err}\n".encode())
        digests.append(h.hexdigest()[:16])
    assert tuple(digests) == REP_DIGESTS[name]


def test_normalize(capsys):
    code, out, _ = invoke(
        capsys, "normalize", "g{s2} g{s1,s2} g{s2} g{s1,s2} g{s2} g{s1,s2}",
        "--system", "A2", "--format", "json",
    )
    data = json.loads(out)
    assert data["racg"] == [2, 1, 0, 3]
    assert data["aut"] == [0, 1, 2, 3]


def test_normalize_long_word_times_its_inverse(capsys):
    letters = ["g{s1}", "g{s2,s3}", "g{s2,s4}", "g{s1,s2,s3,s4}", "g{s3}", "g{s1,s2}"]
    half = [letters[(7 * i + i // 5) % len(letters)] for i in range(1000)]
    code, out, _ = invoke(capsys, "--system", "D4", "normalize", " ".join(half), "--format", "json")
    assert code == 0 and len(json.loads(out)["racg"]) > 100
    word = " ".join(half + half[::-1])
    code, out, _ = invoke(capsys, "--system", "D4", "normalize", word, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["racg"] == []
    assert data["aut"] == list(range(len(data["aut"])))
    assert len(data["aut"]) == 41


def test_sset(capsys):
    code, out, _ = invoke(capsys, "sset", "--system", "A2", "--format", "json")
    data = json.loads(out)
    assert len(data["S"]) == 4
    assert data["M"][0] == [1, 0, 0, 2]


def test_rep_rho_golden(capsys):
    code, out, _ = invoke(capsys, "rep", "rho", "--system", "A2", "--t", "2", "--format", "json")
    data = json.loads(out)
    by_name = {m["generator"]: m["rows"] for m in data["matrices"]}
    assert by_name["g{s2}"] == [["1", "0", "0"], ["4", "-1", "0"], ["0", "0", "1"]]
    assert by_name["g{s1,s2}"] == [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "-1"]]


def test_rep_pi_cyclotomic_entries(capsys):
    code, out, _ = invoke(capsys, "rep", "pi", "--system", "I2(5)", "--t", "1")
    assert code == 0
    assert "c(" in out  # 2cos(pi/5) has no rational form


def test_check_relations_exit_codes(capsys):
    code, out, _ = invoke(capsys, "check-relations", "Pi", "--system", "A2", "--t", "1")
    assert code == 0
    assert "relations hold" in out


def test_stable_lines(capsys):
    code, out, _ = invoke(
        capsys, "stable-lines", "Pi", "--system", "A2", "--t", "2", "--format", "json"
    )
    data = json.loads(out)
    assert len(data["lines"]) == 2


def test_quotient_golden(capsys):
    code, out, _ = invoke(
        capsys, "quotient", "Pi", "--system", "A2", "--t", "2", "--format", "json",
        "--restrict", "1,0,0,0", "--restrict", "0,1,0,0", "--restrict", "0,0,1,0",
        "--subspace", "1,-1,1", "--keep", "0,2",
    )
    assert code == 0
    data = json.loads(out)
    by_name = {m["generator"]: m["rows"] for m in data["matrices"]}
    assert by_name["g{s2}"] == [["1", "0"], ["5", "-1"]]
    assert by_name["g{s1,s2}"] == [["0", "1"], ["1", "0"]]
    assert data["keep"] == [0, 2]


def test_quotient_default_keep(capsys):
    code, out, _ = invoke(
        capsys, "quotient", "Pi", "--system", "A2", "--format", "json",
        "--restrict", "1,0,0,0", "--restrict", "0,1,0,0", "--restrict", "0,0,1,0",
        "--subspace", "1,-1,1",
    )
    assert code == 0
    # greedy: earliest coordinate axes transverse to the subspace
    assert json.loads(out)["keep"] == [0, 1]



def _keep_outcome(default_keep, subspace, dim):
    # the axes, or the error the quotient command reports for them
    try:
        keep = default_keep(subspace, dim)
        quotient_rep({"e": identity_matrix(dim)}, subspace, keep)
    except SubspaceError as exc:
        return str(exc)
    return keep


def test_default_keep_matches_the_axis_by_axis_oracle():
    rng = random.Random(7)
    for _ in range(400):
        dim = rng.randint(1, 7)
        subspace = [
            tuple(Fraction(rng.choice([0, 0, 0, 1, -1, 2]), rng.randint(1, 2)) for _ in range(dim))
            for _ in range(rng.randint(1, dim))
        ]
        extra = rng.random()
        if extra < 0.15:
            subspace.append(tuple(Fraction(0) for _ in range(dim)))
        elif extra < 0.3:
            subspace.append(tuple(x - 2 * y for x, y in zip(subspace[0], subspace[-1])))
        rng.shuffle(subspace)
        want = _keep_outcome(oracle_rep.default_keep, subspace, dim)
        assert _keep_outcome(_default_keep, subspace, dim) == want, subspace


_A2_RESTRICT = ("--restrict", "1,0,0,0", "--restrict", "0,1,0,0", "--restrict", "0,0,1,0")


@pytest.mark.parametrize(
    "argv, want, says",
    [
        # a --keep axis outside the space (the Pi space of A2 has dimension 4)
        (("--subspace", "1,-1,1,0", "--keep", "0,1,99"), 2, "keep axis 99"),
        # a negative axis must not wrap around to the last one
        (("--subspace", "1,-1,1", "--keep=0,-1") + _A2_RESTRICT, 2, "keep axis -1"),
        # a zero subspace vector, with the default --keep
        (("--subspace", "0,0,0") + _A2_RESTRICT, 1, "subspace vectors are linearly dependent"),
        # a repeated subspace vector, with the default --keep
        (("--subspace", "1,-1,1", "--subspace", "1,-1,1") + _A2_RESTRICT, 1,
         "subspace vectors are linearly dependent"),
        # dependent --restrict vectors
        (("--restrict", "1,0,0,0", "--restrict", "2,0,0,0", "--subspace", "1,0"), 1,
         "restriction vectors are linearly dependent"),
        # a zero subspace vector, with an explicit --keep: the subspace is at
        # fault, not the axes
        (("--subspace", "0,0,0,0", "--keep", "0,1,2"), 1, "subspace vectors are linearly dependent"),
    ],
    ids=[
        "keep-outside", "keep-negative", "zero-subspace", "repeated-subspace",
        "dependent-restrict", "zero-subspace-explicit-keep",
    ],
)
def test_quotient_bad_input_is_a_clean_error(capsys, argv, want, says):
    code, out, err = invoke(capsys, "quotient", "Pi", "--system", "A2", *argv)
    assert code == want and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert says in err


_A3_LINE = "-2/3,-2/3,-2/3,-2/3,-2/3,-2/3,1,1,1,1,0"  # the first A3 stable line of Pi at t = 1


@pytest.mark.parametrize(
    "argv",
    [
        ("check-relations", "--system", "A2", "--t=-1/2", "Pi"),
        ("quotient", "--system", "A3", "--t", "1", "Pi", f"--subspace={_A3_LINE}"),
        ("quotient", "--system", "A3", "--t", "1", "Pi", f"--restrict={_A3_LINE}",
         "--restrict", "0,0,0,0,0,0,0,0,0,0,1", "--subspace=-1,0", "--format", "json"),
        ("rep", "rho", "--system", "A2", "--t=-5/2"),
    ],
    ids=["check-relations-t", "quotient-subspace", "restrict", "rep-t"],
)
def test_negative_values_read_as_their_equals_form(capsys, argv):
    # argparse alone would take -1/2 or -2/3,... after --t, --subspace or
    # --restrict for an option; the two words print what --opt=value prints
    spaced = [w for word in argv for w in (word.split("=") if word[:2] == "--" else [word])]
    code, out, err = invoke(capsys, *argv)
    assert code == 0 and out and not err
    assert invoke(capsys, *spaced) == (code, out, err)


def test_diagram(capsys):
    code, out, _ = invoke(capsys, "diagram", "--system", "A2")
    assert code == 0
    assert out.startswith("graph sset {")
    assert "n0 -- n3;" in out
    assert 'label="<s1>"' in out


def test_dict_a_both_ways(capsys):
    code, out, _ = invoke(capsys, "dict-a", "s_{1,3}", "--system", "A3")
    assert code == 0 and out.strip() == "g{s1,s2}"
    code, out, _ = invoke(capsys, "dict-a", "g{s1,s2}", "--system", "A3")
    assert code == 0 and out.strip() == "s_{1,3}"


def test_system_from_file(capsys, tmp_path, system):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(system("B2").to_json()))
    code, out, _ = invoke(capsys, "fset", "--system", str(path))
    assert code == 0
    assert "{s1,s2}" in out


A2_BONDS = [[1, 3], [3, 1]]


@pytest.mark.parametrize(
    "data",
    [
        # a bond that is not an integer, and entries of other types
        {"labels": ["a", "b"], "matrix": [[1, 2.5], [2.5, 1]]},
        {"labels": ["a", "b"], "matrix": [[1, 3.7], [3.7, 1]]},
        {"labels": ["a", "b"], "matrix": [[1, "3"], ["3", 1]]},
        {"labels": ["a", "b"], "matrix": [[1, "x"], ["x", 1]]},
        {"labels": ["a", "b"], "matrix": [[1, None], [None, 1]]},
        {"labels": ["a", "b"], "matrix": [[True, 3], [3, True]]},
        {"labels": ["a", "b"], "matrix": [[1, [3]], [[3], 1]]},
        # labels that are not non-empty strings, or not a list
        {"labels": [1, 2], "matrix": A2_BONDS},
        {"labels": ["a", None], "matrix": A2_BONDS},
        {"labels": ["a", ""], "matrix": A2_BONDS},
        {"labels": "ab", "matrix": A2_BONDS},
        # a matrix that is not a list of rows
        {"labels": ["a", "b"], "matrix": 3},
        {"labels": ["a", "b"], "matrix": "x"},
        {"labels": ["a", "b"], "matrix": [[1, 3], 3]},
    ],
)
def test_malformed_system_file_is_a_usage_error(capsys, tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = invoke(capsys, "fset", "--system", str(path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_system_file_takes_integral_float_bonds(capsys, tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"labels": ["a", "b"], "matrix": [[1.0, 3.0], [3.0, 1]]}))
    code, out, _ = invoke(capsys, "fset", "--system", str(path))
    assert code == 0 and out.splitlines() == ["{a}", "{b}", "{a,b}"]


def test_exit_code_usage_errors(capsys):
    code, _, err = invoke(capsys, "fset")  # missing --system
    assert code == 2 and "missing --system" in err
    code, _, err = invoke(capsys, "longest", "{s1,s9}", "--system", "A2")
    assert code == 2
    code, _, err = invoke(capsys, "eval", "g{s1,s3}", "--system", "A3")
    assert code == 2
    code, _, err = invoke(capsys, "rep", "rho", "--system", "A2", "--t", "x")
    assert code == 2 and "bad rational" in err


def test_exit_code_domain_errors(capsys):
    # degenerate form is a domain failure, not a usage failure
    code, _, err = invoke(capsys, "rep", "rho", "--system", "A2", "--t", "1")
    assert code == 1 and "degenerate" in err
    code, _, err = invoke(capsys, "sset", "--system", "A2", "--max-len", "2")
    assert code == 1 and "not exhausted" in err
    code, _, err = invoke(capsys, "check-relations", "rho", "--system", "A2", "--t", "1")
    assert code == 1



def test_oversized_group_is_refused_within_seconds(capsys):
    for argv in (("sset", "--system", "E8"), ("equal", "g{s1}", "g{s1}", "--system", "E7")):
        start = time.monotonic()
        code, out, err = invoke(capsys, *argv)
        assert time.monotonic() - start < 10
        assert code == 1 and out == ""
        assert err.startswith("error: group too large: |W| = ")


def test_oversized_ring_is_refused_within_a_second(capsys):
    # conductors 20,014 and 200,000 are refused before Phi_N is built
    for name in ("I2(10007)", "I2(100000)"):
        start = time.monotonic()
        code, out, err = invoke(capsys, "eval", "g{a} g{a,b}", "--system", name)
        assert time.monotonic() - start < 1
        assert code == 1 and out == ""
        assert err.startswith(f"error: conductor too large: N = {2 * int(name[3:-1])} exceeds ")
    # fset builds no ring; a product of small dihedral groups closes its root
    # system at each component's own conductor, and only `rep pi` needs the
    # global one, 2 lcm(7, 9, 11, 13) = 18,018
    code, out, _ = invoke(capsys, "fset", "--system", "I2(100000)")
    assert code == 0 and out.split() == ["{a}", "{b}", "{a,b}"]
    big = "I2(7)*I2(9)*I2(11)*I2(13)"
    code, out, _ = invoke(capsys, "longest", "{d1,d2}", "--system", big)
    assert code == 0 and out.split() == ["d1", "d2"] * 6 + ["d1"]
    code, out, err = invoke(capsys, "rep", "pi", "--system", big)
    assert code == 1 and out == "" and err.startswith("error: conductor too large: N = 18018 ")


@pytest.mark.parametrize(
    "argv, want",
    [(("fset",), "{s1}"), (("longest", "{s1,s2,s3,s4,s5,s6,s7,s8}"), "s1"),
     (("eval", "g{s1} g{s2}"), "s1 s2")],
)
def test_e8_commands_without_the_group_table(capsys, argv, want):
    code, out, _ = invoke(capsys, *argv, "--system", "E8")
    assert code == 0 and out.startswith(want)


def test_max_len_allows_exact_closure(capsys):
    code, out, _ = invoke(capsys, "sset", "--system", "A2", "--max-len", "3")
    assert code == 0


def test_max_len_is_read_only_by_commands_that_list_w(capsys, monkeypatch):
    # A2's w0 has length 3: fset and the rho forms list no element of W
    for argv in (("fset",), ("rep", "rho")):
        code, out, _ = invoke(capsys, *argv, "--system", "A2", "--max-len", "2")
        assert code == 0 and out
    for argv in (("sset",), ("rep", "Pi")):
        code, out, err = invoke(capsys, *argv, "--system", "A2", "--max-len", "2")
        assert code == 1 and out == "" and "not exhausted" in err
    builds = []
    init = GroupTable.__init__

    def counted(self, system):
        builds.append(system)
        init(self, system)

    monkeypatch.setattr(GroupTable, "__init__", counted)
    code, _, _ = invoke(capsys, "sset", "--system", "A2", "--max-len", "3")
    assert code == 0 and len(builds) == 1


def test_max_len_on_infinite_system_file(capsys, tmp_path):
    path = tmp_path / "affine.json"
    path.write_text(json.dumps({"labels": ["a", "b", "c"], "matrix": [[1, 3, 3], [3, 1, 3], [3, 3, 1]]}))
    code, out, err = invoke(capsys, "sset", "--system", str(path), "--max-len", "50")
    assert code == 1 and out == ""
    assert "group not exhausted within length 50" in err


def test_eval_and_pure_on_an_infinite_system_file(capsys, tmp_path):
    # affine A2~ has no group table; the CLI prints what the API computes
    sys_ = affine_triangle()
    path = tmp_path / "affine.json"
    path.write_text(json.dumps(sys_.to_json()))
    fset = connected_subsets(sys_)
    rng = random.Random(23)
    for L in (1, 2, 7, 40, 300):
        word = CactusWord(sys_, [rng.choice(fset) for _ in range(L)])
        for w in (word, word * word.inverse()):
            text = format_word(w)
            el = evaluate_to_coxeter(w)
            want = " ".join(sys_.labels[i] for i in el.word) or "e"
            code, out, _ = invoke(capsys, "eval", text, "--system", str(path))
            assert code == 0 and out == want + "\n"
            code, out, _ = invoke(capsys, "eval", text, "--system", str(path), "--format", "json")
            assert code == 0 and json.loads(out) == {"word": want, "length": el.length}
            code, out, _ = invoke(capsys, "pure", text, "--system", str(path))
            assert code == 0 and out == ("true\n" if is_pure(w) else "false\n")
        assert out == "true\n"


def test_argparse_exits(capsys):
    assert run(["no-such-command"]) == 2
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_rational_query_does_not_import_mpmath():
    # mpmath only certifies signs of irrational values; a fresh interpreter
    # keeps other tests' imports out of the picture
    code = (
        "import sys\n"
        "from gencactus.cli import run\n"
        "assert run(['--system', 'A4', 'equal', 'g{s1} g{s1,s2}', 'g{s1,s2} g{s2}']) in (0, 1)\n"
        "print('mpmath' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def modules_loaded(*argv):
    """The gencactus modules a fresh `python -m gencactus.cli` process
    imports for argv, as its -X importtime report lists them."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "gencactus.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    names = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
             if line.startswith("import time:")}
    return {name.split(".")[1] for name in names if name.startswith("gencactus.")}


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["A2", "fset"], {"cyclotomic", "scalar", "racg", "rep", "linalg"}),
        (["A2", "eval", "g{s1} g{s1,s2}"], {"cyclotomic", "scalar", "racg", "rep", "linalg"}),
        (["A2", "pure", "g{s1} g{s1,s2}"], {"cyclotomic", "scalar", "racg", "rep", "linalg"}),
        (["A2", "longest", "{s1,s2}"], {"cyclotomic", "scalar", "racg", "rep", "linalg"}),
        (["A2", "rep", "pi"], {"cyclotomic", "scalar", "racg", "rep", "linalg"}),
        (["A2", "dict-a", "s_{1,2}"], {"cyclotomic", "scalar", "racg", "rep", "linalg"}),
        (["A2", "equal", "g{s1} g{s1,s2}", "g{s1,s2} g{s2}"],
         {"cyclotomic", "scalar", "rep", "linalg"}),
        (["A2", "sset"], {"cyclotomic", "scalar", "rep", "linalg"}),
        (["A2", "normalize", "g{s1} g{s1,s2}"], {"cyclotomic", "scalar", "rep", "linalg"}),
        (["A2", "rep", "rho"], {"cyclotomic", "scalar", "racg"}),
        (["A2", "stable-lines", "rho"], {"cyclotomic", "scalar", "racg"}),
        # a bond of 4 or more: root tables are ints in Z[x]/Phi_N, so only a
        # CycloReal loads scalar
        (["H3", "eval", "g{s1} g{s1,s2}"], {"scalar", "racg", "rep", "linalg"}),
        (["B3", "equal", "g{s1} g{s1,s2}", "g{s1,s2} g{s2}"], {"scalar", "rep", "linalg"}),
        (["I2(8)", "sset"], {"scalar", "rep", "linalg"}),
        (["B3.json", "normalize", "g{s2} g{s2,s3}"], {"scalar", "rep", "linalg"}),
        (["I2(5)", "rep", "pi"], {"racg", "rep", "linalg"}),
    ],
)
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, unloaded):
    # `-m` runs cli.py as __main__, so the report lists no gencactus.cli
    name, *argv = argv
    if name.endswith(".json"):
        path = tmp_path / name
        path.write_text(json.dumps(CoxeterSystem.from_name(name[:-5]).to_json()))
        name = str(path)
    loaded = modules_loaded("--system", name, *argv)
    assert not loaded & unloaded, sorted(loaded & unloaded)
    assert loaded | unloaded == {"cactus", "coxeter", "cyclotomic", "errors", "scalar", "racg",
                                 "rep", "linalg"}


@pytest.mark.parametrize(
    "kind, argv",
    [
        ("rho", ["stable-lines", "rho"]),
        ("Pi", ["stable-lines", "Pi"]),
        ("Pi", ["check-relations", "Pi"]),
        ("rho", ["quotient", "rho"]),
        ("Pi", ["quotient", "Pi"]),
    ],
)
def test_rep_commands_start_from_the_carried_reading(capsys, monkeypatch, kind, argv):
    # the CLI hands the library rep itself to the rep queries and names its
    # keys only when printing, so no query reads an image afresh
    if argv[0] == "quotient":
        code, out, _ = invoke(capsys, "--system", "A3", "stable-lines", kind)
        argv = argv + ["--subspace", out.split()[0]]
    reads = []

    def images(rep, read=rep_module._images):
        got = read(rep)
        reads.append(got[1] is getattr(rep, "reading", (None, None))[1])
        return got

    monkeypatch.setattr(rep_module, "_images", images)
    code, out, _ = invoke(capsys, "--system", "A3", *argv)
    monkeypatch.undo()
    assert code == 0 and reads and all(reads), reads
    assert (code, out) == invoke(capsys, "--system", "A3", *argv)[:2]


@pytest.mark.parametrize(
    "argv",
    [
        ["--system", "H3", "sset"],
        ["--system", "B4", "eval", "g{s1,s2} g{s3,s4} g{s2,s3,s4}"],
        ["--system", "I2(8)", "sset"],
        ["--system", "B2", "longest", "{s1,s2}"],
        ["--system", "H3", "check-relations", "rho"],
    ],
)
def test_finite_irrational_query_does_not_import_mpmath(argv):
    # a finite W decides no sign: root signs follow the simple-reflection
    # rule and finiteness the classification
    code = (
        "import sys\n"
        "from gencactus.cli import run\n"
        f"assert run({argv!r}) == 0\n"
        "print('mpmath' in sys.modules)\n"
    )
    assert fresh_interpreter(code).splitlines()[-1] == "False"


@pytest.mark.parametrize("name", ["H3", "I2(8)", "B4"])
def test_cyclotomic_rep_queries_do_not_import_mpmath(name):
    # the one elimination tests cyclotomic entries for zero and never orders
    # one, which would load mpmath to certify the sign
    code = (
        "import sys\n"
        "from gencactus import CoxeterSystem\n"
        "from gencactus.linalg import kernel_basis, reduced_basis\n"
        "from gencactus.rep import quotient_rep, stable_lines\n"
        f"system = CoxeterSystem.from_name({name!r})\n"
        "n = system.rank\n"
        "pi = {s: system.reflection_matrix(s, 2) for s in range(n)}\n"
        "stable_lines(pi)\n"
        "assert len(quotient_rep(pi, pi[0], [])[0]) == 0\n"
        "assert len(quotient_rep(pi, [], list(range(n)))[0]) == n\n"
        "for m in pi.values():\n"
        "    shifted = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]\n"
        "    assert len(kernel_basis(shifted)) == n - 1\n"
        "    assert len(reduced_basis(m)) == n\n"
        "print('mpmath' in sys.modules)\n"
    )
    assert fresh_interpreter(code).splitlines()[-1] == "False"


def test_cli_import_does_not_import_dataclasses():
    code = "import sys\nimport gencactus.cli\nprint('dataclasses' in sys.modules)\n"
    assert fresh_interpreter(code).splitlines()[-1] == "False"


def fresh_interpreter(code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout
