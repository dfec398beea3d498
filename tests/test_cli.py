"""Command-line interface: outputs, formats, exit codes."""

import json
import shlex
import time
from pathlib import Path

import pytest

import random

import sumset_lab.bounds as bounds
import sumset_lab.cli as cli
from sumset_lab.cli import main
from sumset_lab.engine import SumBitmap, SumsetKind, union_bitmap, union_sumset
from sumset_lab.errors import UnsupportedClassError
from sumset_lab.intset import HSet, IntSet


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_ordinary(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "-A", "1..3", "-H", "1..2", "--kind", "ordinary"
    )
    assert code == 0
    assert "sumset=1..6" in out
    assert "size=6" in out
    assert "bound=6" in out
    assert "equality=yes" in out


def test_compute_singleton(capsys):
    code, out, _ = run_cli(capsys, "compute", "-A", "5", "-H", "3", "--kind", "ordinary")
    assert code == 0
    assert "sumset=15" in out and "size=1" in out and "bound=1" in out


def test_compute_json_output(capsys):
    code, out, _ = run_cli(capsys, "compute", "-A", "1,2,4", "-H", "2,3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["a"] == "1,2,4"
    ordinary = next(r for r in payload["results"] if r["kind"] == "ordinary")
    assert ordinary["sumset"] == "2..10,12"
    assert ordinary["size"] == 10 and ordinary["bound"] == 8


def test_compute_at_a_million_fold(capsys):
    # past the stable threshold the ordinary union is walked rung by rung by
    # doubling: the plain ladder would build 10^6 rungs of 2 steps each
    code, out, _ = run_cli(capsys, "compute", "-A", "1,2", "-H", "1000000", "--json")
    assert code == 0
    assert '"sumset":"1000000..2000000","size":1000001' in out


def test_compute_mixed_sign_still_prints_sumset(capsys):
    # leading-dash values need the --flag=value spelling
    code, out, _ = run_cli(capsys, "compute", "--set-a=-1,2", "-H", "2", "--kind", "ordinary")
    assert code == 0
    assert "sumset=-2,1,4" in out
    assert "bound=None" in out


def test_compute_builds_one_union_per_kind(capsys, monkeypatch):
    calls = []

    def counted(A, H, kind):
        calls.append(kind)
        return union_bitmap(A, H, kind)

    def refused(self):
        raise AssertionError("compute decoded a union to an IntSet")

    monkeypatch.setattr(cli, "union_bitmap", counted)
    monkeypatch.setattr(bounds, "union_bitmap", counted)
    monkeypatch.setattr(SumBitmap, "to_intset", refused)
    code, out, _ = run_cli(capsys, "compute", "-A", "1,2,4,9", "-H", "1,3", "--kind", "both")
    assert code == 0 and "equality=" in out
    assert calls == [SumsetKind.ORDINARY, SumsetKind.RESTRICTED]


def test_bound_report_matches_evaluate():
    rng = random.Random(6)
    for _ in range(120):
        values = rng.sample(range(1, 14), rng.randint(1, 5))
        sign_class = rng.randrange(4)  # positive, with 0, negative, negative with 0
        if sign_class in (1, 3):
            values[0] = 0
        if sign_class >= 2:
            values = [-v for v in values]
        A = IntSet.of(values)
        H = HSet.of(rng.sample(range(0, 6), rng.randint(1, 3)))
        for kind in SumsetKind:
            report = bounds.bound_report(A, H, kind, len(union_sumset(A, H, kind)))
            assert report == bounds.evaluate(A, H, (kind,))[0]
    mixed, H = IntSet((-2, 3, 5)), HSet((1, 2))
    for kind in SumsetKind:
        with pytest.raises(UnsupportedClassError):
            bounds.bound_report(mixed, H, kind, len(union_sumset(mixed, H, kind)))
        with pytest.raises(UnsupportedClassError):
            bounds.evaluate(mixed, H, (kind,))


def test_bound_prints_formula_values_only(capsys):
    code, out, _ = run_cli(capsys, "bound", "-A", "1..5", "-H", "1,2")
    assert code == 0
    assert "ordinary: bound=10 formula=union-positive" in out
    assert "restricted: bound=9 formula=union-restricted-positive" in out
    assert "sumset" not in out
    # a negative set is reflected and gets the same bounds
    assert run_cli(capsys, "bound", "--set-a=-5..-1", "-H", "1,2") == (0, out, "")


def test_bound_refuses_mixed_sign_set(capsys):
    code, out, err = run_cli(capsys, "bound", "--set-a=-3,2", "-H", "1,2")
    assert code == 1
    assert out == ""
    assert "mixed-sign" in err


def test_compute_too_wide_to_allocate_exits_1(capsys):
    # a 2^55-bit vector: the allocation fails at once, using no real memory
    code, out, err = run_cli(
        capsys, "compute", "-A", "1,36028797018963968", "-H", "1", "--kind", "ordinary"
    )
    assert code == 1
    assert out == ""
    assert err == "error: sumset too wide to allocate its bit vector\n"


# the guard, not IntSet validation, holds compute's output in int64
_COMPUTE_PINS = [
    (
        ["-A", "4611686018427387903,4611686018427387904", "-H", "1", "--kind", "ordinary"],
        0,
        "A: 4611686018427387903,4611686018427387904\n"
        "H: 1\n"
        "ordinary: sumset=4611686018427387903,4611686018427387904 size=2"
        " bound=2 formula=union-positive equality=yes\n",
        '{"a":"4611686018427387903,4611686018427387904","h":"1","results":'
        '[{"kind":"ordinary","sumset":"4611686018427387903,4611686018427387904",'
        '"size":2,"bound":2,"formula":"union-positive","equality":true,'
        '"hypotheses_met":true,"reason":null}]}\n',
        "",
    ),
    (
        ["-A", "4611686018427387903,4611686018427387904", "-H", "1,2"],
        1,
        "",
        "",
        "error: value 9223372036854775808 outside signed 64-bit range\n",
    ),
    (
        ["-A", "9223372036854775807", "-H", "1", "--kind", "ordinary"],
        0,
        "A: 9223372036854775807\n"
        "H: 1\n"
        "ordinary: sumset=9223372036854775807 size=1"
        " bound=1 formula=union-positive equality=yes\n",
        '{"a":"9223372036854775807","h":"1","results":'
        '[{"kind":"ordinary","sumset":"9223372036854775807","size":1,"bound":1,'
        '"formula":"union-positive","equality":true,"hypotheses_met":true,'
        '"reason":null}]}\n',
        "",
    ),
    (
        ["-A", "1,2", "-H", "3", "--kind", "restricted"],
        0,
        "A: 1,2\n"
        "H: 3\n"
        "restricted: sumset= size=0 bound=0 formula=None equality=no"
        " note='max multiplicity 3 exceeds the cap 2 for k=2'\n",
        '{"a":"1,2","h":"3","results":[{"kind":"restricted","sumset":"","size":0,'
        '"bound":0,"formula":null,"equality":false,"hypotheses_met":false,'
        '"reason":"max multiplicity 3 exceeds the cap 2 for k=2"}]}\n',
        "",
    ),
    # runs of exactly 1, 2 and 3 sums, negative runs, and a run ending at
    # int64 max: the edges of a set's text
    (
        ["-A", "1,2,4", "-H", "1"],
        0,
        "A: 1,2,4\nH: 1\nordinary: sumset=1,2,4 size=3 bound=3 "
        "formula=union-positive equality=yes\nrestricted: sumset=1,2,4 "
        "size=3 bound=3 formula=union-restricted-positive equality=yes\n",
        '{"a":"1,2,4","h":"1","results":[{"kind":"ordinary",'
        '"sumset":"1,2,4","size":3,"bound":3,"formula":"union-positive",'
        '"equality":true,"hypotheses_met":true,'
        '"reason":null},{"kind":"restricted","sumset":"1,2,4","size":3,'
        '"bound":3,"formula":"union-restricted-positive","equality":true,'
        '"hypotheses_met":true,"reason":null}]}\n',
        "",
    ),
    (
        ["-A", "1,2,3,5", "-H", "1"],
        0,
        "A: 1..3,5\nH: 1\nordinary: sumset=1..3,5 size=4 bound=4 "
        "formula=union-positive equality=yes\nrestricted: sumset=1..3,5 "
        "size=4 bound=4 formula=union-restricted-positive equality=yes\n",
        '{"a":"1..3,5","h":"1","results":[{"kind":"ordinary",'
        '"sumset":"1..3,5","size":4,"bound":4,"formula":"union-positive",'
        '"equality":true,"hypotheses_met":true,'
        '"reason":null},{"kind":"restricted","sumset":"1..3,5","size":4,'
        '"bound":4,"formula":"union-restricted-positive","equality":true,'
        '"hypotheses_met":true,"reason":null}]}\n',
        "",
    ),
    (
        ["--set-a=-3,-2,-1,5", "-H", "1,2"],
        0,
        "A: -3..-1,5\nH: 1,2\n"
        "ordinary: sumset=-6..-1,2..5,10 size=11 bound=None formula=None"
        " equality=n/a note='mixed-sign sets have well-defined sumsets but no"
        " catalog bound'\n"
        "restricted: sumset=-5..-1,2..5 size=9 bound=None formula=None"
        " equality=n/a note='mixed-sign sets have well-defined sumsets but no"
        " catalog bound'\n",
        '{"a":"-3..-1,5","h":"1,2","results":[{"kind":"ordinary",'
        '"sumset":"-6..-1,2..5,10","size":11,"bound":null,"formula":null,'
        '"equality":null,"hypotheses_met":false,"reason":"mixed-sign sets have'
        ' well-defined sumsets but no catalog bound"},{"kind":"restricted",'
        '"sumset":"-5..-1,2..5","size":9,"bound":null,"formula":null,'
        '"equality":null,"hypotheses_met":false,"reason":"mixed-sign sets have'
        ' well-defined sumsets but no catalog bound"}]}\n',
        "",
    ),
    (
        ["-A", "9223372036854775805,9223372036854775806,9223372036854775807", "-H", "1"],
        0,
        "A: 9223372036854775805..9223372036854775807\nH: 1\nordinary: "
        "sumset=9223372036854775805..9223372036854775807 size=3 bound=3 "
        "formula=union-positive equality=yes\nrestricted: "
        "sumset=9223372036854775805..9223372036854775807 size=3 bound=3 "
        "formula=union-restricted-positive equality=yes\n",
        '{"a":"9223372036854775805..9223372036854775807","h":"1",'
        '"results":[{"kind":"ordinary",'
        '"sumset":"9223372036854775805..9223372036854775807","size":3,'
        '"bound":3,"formula":"union-positive","equality":true,'
        '"hypotheses_met":true,"reason":null},{"kind":"restricted",'
        '"sumset":"9223372036854775805..9223372036854775807","size":3,'
        '"bound":3,"formula":"union-restricted-positive","equality":true,'
        '"hypotheses_met":true,"reason":null}]}\n',
        "",
    ),
]


@pytest.mark.parametrize("argv, code, text, as_json, err", _COMPUTE_PINS)
def test_compute_bytes_at_the_edges(capsys, argv, code, text, as_json, err):
    assert run_cli(capsys, "compute", *argv) == (code, text, err)
    assert run_cli(capsys, "compute", *argv, "--json") == (code, as_json, err)


def test_verify_rejects_bad_workers_and_case_cap(capsys):
    base = ["verify", "--universe", "4", "--k", "2..2", "--hmax", "2"]
    for extra in (["--workers", "0"], ["--case-cap", "-1"]):
        code, out, err = run_cli(capsys, *base, *extra)
        assert code == 1
        assert out == "" and "error:" in err


@pytest.mark.parametrize("command", ["verify", "extremal"])
@pytest.mark.parametrize(
    "space",
    [
        ["--universe", "8", "--k", "5..3", "--hmax", "3"],  # empty k range
        ["--universe", "8", "--k", "2..3", "--r", "3..2", "--hmax", "3"],  # empty r range
        ["--universe", "3", "--k", "5..6", "--hmax", "3"],  # k above the universe
    ],
)
def test_empty_space_exits_1(capsys, command, space):
    code, out, err = run_cli(capsys, command, *space, "--workers", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: the search space holds no pairs")


@pytest.mark.parametrize(
    "space",
    [
        ["--universe", "8", "--k", "2..2", "--hmax", "8000"],  # 2^8000 - 1 H-sets
        ["--universe", "8000", "--k", "1..8000", "--hmax", "1"],  # 2^8000 - 1 A-sets
        ["--universe", "8", "--k", "2..2", "--hmax", "16000"],  # past 4,300 digits
    ],
)
def test_oversized_space_refused_quickly(capsys, space):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", *space, "--workers", "1")
    assert time.perf_counter() - started < 5
    assert code == 1
    assert out == ""
    assert err.startswith("error: enumeration would visit ")
    assert err.endswith(" pairs, above the cap 100000000\n")


@pytest.mark.parametrize("command", ["verify", "extremal"])
@pytest.mark.parametrize(
    "space, message",
    [
        (["--universe", "5", "--k", "0..2", "--r", "1..2", "--hmax", "2"],
         "k_range 0..2 starts below 1"),
        (["--universe", "5", "--k", "1..2", "--r", "1..9", "--hmax", "2"],
         "r_range 1..9 reaches outside 1..h_max=2"),
        (["--universe", "5", "--k", "1..2", "--r", "0..2", "--hmax", "2"],
         "r_range 0..2 reaches outside 1..h_max=2"),
        (["--universe", "8", "--k", "2..3", "--r", "4..5", "--hmax", "3"],
         "r_range 4..5 reaches outside 1..h_max=3"),
    ],
    ids=["k-below-1", "r-above-hmax", "r-below-1", "r-wholly-above-hmax"],
)
def test_clamped_range_exits_1(capsys, command, space, message):
    # SearchSpace refuses a range it would not check in full; the CLI
    # prints the library's message as it stands
    code, out, err = run_cli(capsys, command, *space, "--workers", "1")
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_check_text(capsys):
    code, out, _ = run_cli(
        capsys, "check", "-A", "2,4,6,8", "-H", "1,2", "--kind", "ordinary"
    )
    assert code == 0
    assert "equality=yes" in out and "consistent=yes" in out


def test_check_json(capsys):
    code, out, _ = run_cli(
        capsys, "check", "-A", "1,2,4", "-H", "2", "--kind", "restricted", "--json"
    )
    assert code == 0
    verdict = json.loads(out)["verdicts"][0]
    assert verdict["equality_holds"] is True
    assert verdict["nonstructured"] is True


def test_verify_text_pass(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--universe", "6", "--k", "2..3", "--hmax", "3",
        "--r", "1..3", "--zero-mode", "both", "--workers", "1",
    )
    assert code == 0
    assert "bound violations: 0" in out
    assert "result: PASS" in out


def test_zero_mode_choices_name_zero_mode_members(capsys):
    # each --zero-mode choice is the lowercase name of a ZeroMode member
    expected = {"without": "without-zero", "with": "with-zero", "both": "both"}
    for choice, value in expected.items():
        code, out, _ = run_cli(
            capsys, "verify", "--universe", "4", "--k", "2..2", "--hmax", "2",
            "--zero-mode", choice, "--workers", "1", "--json",
        )
        assert code == 0
        assert json.loads(out)["space"]["zero_mode"] == value


def test_verify_json_round_trips(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--universe", "5", "--k", "2..3", "--hmax", "2",
        "--workers", "1", "--json",
    )
    assert code == 0
    blob = out.strip()
    assert json.dumps(json.loads(blob), separators=(",", ":")) == blob
    assert "wall time" in err  # timing goes to stderr, not into the report


def test_verify_detects_corruption_with_exit_2(capsys, monkeypatch):
    real = bounds._union_value
    monkeypatch.setattr(bounds, "_union_value", lambda k, hs, z: real(k, hs, z) + 1)
    code, out, _ = run_cli(
        capsys, "verify", "--universe", "4", "--k", "2..2", "--hmax", "2",
        "--kind", "ordinary", "--workers", "1",
    )
    assert code == 2
    assert "result: FAIL" in out


def test_extremal_lists_groups(capsys):
    code, out, _ = run_cli(
        capsys, "extremal", "--universe", "12", "--k", "6..6", "--hmax", "5",
        "--r", "2..2", "--kind", "restricted", "--workers", "1", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["groups"]) == 1
    assert len(payload["groups"][0]["cases"]) == 8


def test_extremal_refuses_truncated_case_list(capsys):
    code, out, err = run_cli(
        capsys, "extremal", "--universe", "10", "--k", "3..4", "--hmax", "3",
        "--r", "1..2", "--kind", "ordinary", "--case-cap", "3", "--workers", "1",
    )
    assert code == 1
    assert out == ""
    assert "only 3 kept" in err and "--case-cap" in err


def test_worked_examples_run(capsys):
    # every `sumset-lab ...` line of the worked-examples script, through main
    script = Path(__file__).resolve().parents[1] / "docs" / "worked_examples.sh"
    lines = [
        line for line in script.read_text().splitlines() if line.startswith("sumset-lab ")
    ]
    assert len(lines) == 11
    for line in lines:
        argv = [tok for tok in shlex.split(line)[1:] if not tok.startswith(">")]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (line, err)
        if argv[0] == "extremal":
            assert "8 equality cases" in out


def test_parse_error_exits_1(capsys):
    code, _, err = run_cli(capsys, "compute", "-A", "oops", "-H", "1")
    assert code == 1
    assert "oops" in err


def test_invalid_range_reports_offender(capsys):
    code, _, err = run_cli(capsys, "compute", "-A", "5..1", "-H", "1")
    assert code == 1
    assert "5" in err and "1" in err


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "-A", "1,2"])  # -H missing
    assert exc.value.code == 1


@pytest.mark.parametrize("command", ["verify", "extremal"])
@pytest.mark.parametrize(
    "flag, value", [("--k", "2..x"), ("--k", "x"), ("--r", "1.."), ("--r", "1..2..3")]
)
def test_bad_span_names_its_flag(capsys, command, flag, value):
    spans = {"--k": "2..3", "--r": "1..2", flag: value}
    argv = [command, "--universe", "6", "--hmax", "3", "--k", spans["--k"], "--r", spans["--r"]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(
        f"sumset-lab {command}: error: argument {flag}: expected N or LO..HI, got {value!r}\n"
    )


def test_env_var_sets_default_format(capsys, monkeypatch):
    monkeypatch.setenv("SUMSET_LAB_FORMAT", "json")
    code, out, _ = run_cli(capsys, "bound", "-A", "1..4", "-H", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][0]["bound"] == 7


@pytest.fixture
def fresh_parser():
    cli._build_parser.cache_clear()
    yield
    cli._build_parser.cache_clear()


def test_parser_built_once_per_process(capsys, monkeypatch, fresh_parser):
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    monkeypatch.setattr(cli, "_Parser", Counted)
    assert run_cli(capsys, "compute", "-A", "1..3", "-H", "1..2")[0] == 0
    assert run_cli(capsys, "bound", "-A", "1..3", "-H", "2")[0] == 0
    assert built.count("sumset-lab") == 1


def test_reused_parser_keeps_no_state_between_calls(capsys, monkeypatch, fresh_parser):
    monkeypatch.delenv("SUMSET_LAB_FORMAT", raising=False)
    code, out, _ = run_cli(capsys, "compute", "-A", "1..3", "-H", "1..2", "--json")
    assert code == 0 and json.loads(out)["a"] == "1..3"
    code, out, _ = run_cli(capsys, "compute", "-A", "1..3", "-H", "1..2")
    assert code == 0 and out.startswith("A: 1..3\n")

    with pytest.raises(SystemExit) as exc:
        main(["compute", "-A", "1,2"])  # -H missing
    assert exc.value.code == 1
    assert "required: -H/--set-h" in capsys.readouterr().err
    code, out, err = run_cli(capsys, "compute", "-A", "1,2", "-H", "2", "--kind", "ordinary")
    assert code == 0 and "sumset=2..4" in out and err == ""

    monkeypatch.setenv("SUMSET_LAB_FORMAT", "json")
    code, out, _ = run_cli(capsys, "bound", "-A", "1..4", "-H", "2")
    assert code == 0 and json.loads(out)["results"][0]["bound"] == 7
    monkeypatch.setenv("SUMSET_LAB_FORMAT", "text")
    code, out, _ = run_cli(capsys, "bound", "-A", "1..4", "-H", "2")
    assert code == 0 and out.startswith("ordinary: bound=")
