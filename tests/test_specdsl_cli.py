"""DSL parsing, rendering, and the command-line frontend."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orlicz_calc import cli, specdsl as dsl
from orlicz_calc.specdsl import SpecParseError


class TestParser:
    @pytest.mark.parametrize("text", [
        "Lp(2)",
        "Zygmund(1, -0.5, 1, 0.5)",
        "Linf",
        "L1",
        "ExpType(-1, 1)",
        "Pow @0 t^2 l(t)^-1 @inf t^3 exp(+ 1 sqrtlog)",
        "Zygmund(2,1,2,1) @inf t^2 ll(t)^0.5",
    ])
    def test_roundtrip(self, text):
        spec = dsl.parse_spec(text)
        canonical = dsl.render(spec)
        again = dsl.parse_spec(canonical)
        assert dsl.render(again) == canonical
        assert again.family.render() == spec.family.render()

    def test_whitespace_insensitive(self):
        a = dsl.parse_spec("Pow@0t^1.5 l(t)^-2@inf t^1.2")
        b = dsl.parse_spec("Pow @0 t^1.5 l(t)^-2 @inf t^1.2")
        assert a.family.render() == b.family.render()

    @pytest.mark.parametrize("bad,fragment", [
        ("Zygmund(1, 0.5, 2, 0)", "alpha0"),
        ("Nope(1)", "unknown family"),
        ("Lp(2", "expected"),
        ("Lp(0.5)", "p >= 1"),
        ("Pow @0 t^0.5 @inf t^2", "order"),
        ("Pow @inf t^2", "requires"),
        ("Zygmund(2,1,2,1) @0 t^1 l(t)^2", "log exponent"),
    ])
    def test_errors_carry_position(self, bad, fragment):
        with pytest.raises(dsl.SpecParseError) as err:
            dsl.parse_spec(bad)
        assert fragment in str(err.value)
        assert str(err.value).count("(at offset") == 1
        assert err.value.position >= 0

    def test_to_young(self):
        A = dsl.parse_spec("Lp(2)").to_young()
        assert A.eval(3.0) == pytest.approx(9.0)


def reference_tokenize(text: str):
    """The tokenizer that ``specdsl._tokenize``'s one pattern replaced, kept
    word for word as the reference that the pattern is checked against."""
    tokens = []
    pos = 0
    spec_words = ("ll(t)", "l(t)", "sqrtlog", "exp", "t")
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        matched = False
        for word in spec_words:
            if text.startswith(word, pos):
                nxt = pos + len(word)
                if word in ("t", "exp", "sqrtlog") and nxt < len(text) \
                        and (text[nxt].isalnum() or text[nxt] == "_"):
                    continue
                tokens.append((word, word, pos))
                pos = nxt
                matched = True
                break
        if matched:
            continue
        m = re.match(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", text[pos:])
        if m:
            tokens.append(("num", m.group(0), pos))
            pos += m.end()
            continue
        if text.startswith("@inf", pos):
            tokens.append(("@inf", "@inf", pos))
            pos += 4
            continue
        if text.startswith("@0", pos):
            tokens.append(("@0", "@0", pos))
            pos += 2
            continue
        if ch in "(),^+-":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", text[pos:])
        if m:
            tokens.append(("word", m.group(0), pos))
            pos += m.end()
            continue
        raise SpecParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


# the grammar's characters, with a Unicode digit (٣), a Unicode letter (é),
# whitespace and "_": the keyword boundary reads Unicode, the identifier rule
# ASCII only
_ALPHABET = "tlexpsqrogLZyumndETPwfia0123456789.+-@(),^\u0663\u00e9_ \t\n"
_CHUNKS = ("ll(t)", "l(t)", "sqrtlog", "exp", "t", "@inf", "@0", "Lp", "Pow", "1e5",
           "2.", ".5", "e-3")
_TEXTS = st.one_of(
    st.text(_ALPHABET, max_size=24),
    st.lists(st.sampled_from(_CHUNKS + tuple(_ALPHABET)), max_size=12).map("".join))


def _tokens_or_error(tokenize, text: str):
    try:
        return tokenize(text)
    except SpecParseError as exc:
        return str(exc), exc.position


@settings(max_examples=500, deadline=None)
@given(text=_TEXTS)
@example(text="t\u0663 exp\u00e9 sqrtlog_ Lp(\u0663)\t@infinity")
def test_tokenizer_matches_the_reference(text):
    assert _tokens_or_error(dsl._tokenize, text) == _tokens_or_error(reference_tokenize, text)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCli:
    def test_target_json(self, capsys):
        code, out, _ = run_cli(capsys, "target", "Lp(2)", "--n", "3", "--gamma", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "orlicz-calc/1"
        assert payload["kind"] == "optimal"
        assert payload["i_Agamma"] == pytest.approx(6.0)
        assert payload["target"].startswith("~ t^6")

    def test_domain_json(self, capsys):
        code, out, _ = run_cli(capsys, "domain", "Linf")
        payload = json.loads(out)
        assert code == 0
        assert payload["kind"] == "optimal"
        assert payload["domain"].startswith("~ t^3")

    def test_bounded_endpoint(self, capsys):
        code, out, _ = run_cli(capsys, "bounded", "L1",
                               "Pow @0 t^1.5 l(t)^-2 @inf t^1.2")
        assert code == 0
        assert json.loads(out)["holds"] is True

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "target", "Lp(2")
        assert code == 2
        assert "parse error" in err

    def test_boyd(self, capsys):
        code, out, _ = run_cli(capsys, "boyd", "Zygmund(2,1,2,1)")
        assert code == 0
        payload = json.loads(out)
        assert payload["i_lower"] == pytest.approx(2.0)

    def test_conjugate_csv(self, capsys):
        code, out, _ = run_cli(capsys, "conjugate", "Lp(2)", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,value"
        t0, v0 = map(float, lines[1].split(","))
        assert v0 == pytest.approx(t0 * t0 / 4.0, rel=1e-6)

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "target", "Zygmund(2,1,2,1)")
        _, out2, _ = run_cli(capsys, "target", "Zygmund(2,1,2,1)")
        assert out1 == out2

    def test_probe_positional_pair(self, capsys):
        code, out, _ = run_cli(capsys, "probe", "Lp(2)", "Lp(6)")
        assert code == 0
        payload = json.loads(out)
        assert payload["reports"][0]["trend"] == "bounded"

    def test_probe_missing_second_spec(self, capsys):
        code, _, err = run_cli(capsys, "probe", "Lp(2)")
        assert code == 2 and "two spec" in err

    @pytest.mark.parametrize("argv,code", [
        (("bounded", "Lp(2)", "Lp(6)", "--gamma", "5", "--n", "3"), 2),
        (("target", "Lp(2)", "--tmin", "0"), 2),
        (("boyd", "Lp(2)", "--tmax", "1e400"), 2),
        (("domain", "Lp(6)", "--grid-points-per-decade", "1"), 2),
        (("bounded", "Lp(2)", "Lp(6)", "--constant-cap", "0.5"), 2),
        (("probe", "--fixtures", "/nonexistent/pairs.json"), 2),
        # the reader closes the pipe before the first write
        (("conjugate", "Lp(2)", "--format", "csv"), 1),
        # spans wider than the transforms can represent
        (("bounded", "Lp(2)", "Lp(6)", "--tmin", "1e-300", "--tmax", "1e300"), 2),
        (("domain", "Lp(6)", "--tmin", "1e-200", "--tmax", "1e200"), 2),
        (("probe", "Lp(2)", "Lp(6)", "--constant-cap", "inf"), 2),
    ])
    def test_user_errors_and_closed_pipe_print_no_traceback(self, argv, code):
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen([sys.executable, "-m", "orlicz_calc.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == code
        assert len(err.splitlines()) == (1 if code == 2 else 0), err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv,code", [
        # 2.4e9 abscissae, a 17.9 GiB array: refused before it is built
        (("bounded", "Lp(2)", "Lp(6)", "--grid-points-per-decade", "100000000"), 2),
        # t**1e308 takes log values past double range
        (("bounded", "Lp(1e308)", "Lp(6)"), 0),
        # q* = 300: the prefix integral of F overflows where t**q* underflows
        (("domain", "ExpType(-1,1)", "--n", "3", "--gamma", "2.99"), 3),
        # 86,860 abscissae inside the limit, closer than adjacent doubles
        (("bounded", "Lp(2)", "Lp(6)", "--tmin", "1", "--tmax", "1.000000000001",
          "--grid-points-per-decade", "200000000000000000"), 2),
    ])
    def test_extreme_inputs_end_in_one_line(self, capsys, argv, code):
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        assert len(err.splitlines()) == (0 if code == 0 else 1), err
        if code == 0:
            json.loads(out)

    def test_false_criterion_iv_answers_past_iii_range(self, capsys):
        # q* = 30: t^q* underflows on criterion iii's grid, and iv rejects at
        # infinity on its own
        code, out, err = run_cli(capsys, "bounded", "L1", "Lp(40)", "--n", "3",
                                 "--gamma", "2.9")
        assert code == 0 and not err
        payload = json.loads(out)
        assert payload["holds"] is False and payload["criterion"] == "iv"
        assert payload["flags"] == ["iii-out-of-range", "tail-exponent-reject-infinity"]

    def test_wide_span_domain_at_q_star_4(self, capsys):
        # q* = 4 at (2, 1.5): the domain of Lp(6) is (11/12) 2^(-2/11) t^(12/11)
        # exactly, and it is built on a 1e+-80 span too
        code, out, err = run_cli(capsys, "domain", "Lp(6)", "--n", "2", "--gamma", "1.5",
                                 "--tmin", "1e-80", "--tmax", "1e80")
        assert code == 0 and not err
        grid = json.loads(out)["domain_record"]["grid"]
        t, value = (np.array(grid[k], dtype=float) for k in ("t", "value"))
        exact = 11.0 / 12.0 * 2.0 ** (-2.0 / 11.0) * t ** (12.0 / 11.0)
        assert t[0] < 1e-80 and t[-1] > 1e80
        assert np.all(np.abs(value - exact) <= 1e-9 * exact)

    @pytest.mark.parametrize("argv", [
        ("bounded", "Lp(2)", "Lp(6)"), ("boyd", "Lp(2)"), ("probe", "Lp(2)", "Lp(6)")])
    def test_format_only_where_csv_exists(self, capsys, argv):
        assert cli.main(list(argv) + ["--n", "3"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv) + ["--format", "json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,searches_constant", [
        (("bounded", "Lp(2)", "Lp(6)"), True), (("probe", "Lp(2)", "Lp(6)"), True),
        (("target", "Lp(2)"), False), (("domain", "Lp(6)"), False),
        (("boyd", "Lp(2)"), False), (("conjugate", "Lp(2)"), False)])
    def test_constant_cap_only_where_a_constant_is_searched(self, capsys, argv,
                                                            searches_constant):
        argv = list(argv) + ["--constant-cap", "10"]
        if searches_constant:
            assert cli.main(argv) == 0
            return
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    def test_probe_with_fixture_file(self, capsys, tmp_path):
        fixtures = tmp_path / "pairs.json"
        fixtures.write_text(json.dumps([
            {"A": "Lp(2)", "B": "Lp(6)"},
            {"A": "Lp(1.2)", "B": "Lp(6)"},
        ]))
        code, out, _ = run_cli(capsys, "probe", "--fixtures", str(fixtures))
        assert code == 0
        payload = json.loads(out)
        reports = payload["reports"]
        assert reports[0]["trend"] == "bounded" and reports[0]["bounded_verdict"]
        assert reports[1]["trend"] == "diverging" and not reports[1]["bounded_verdict"]
        assert all(r["consistent"] for r in reports)

    @pytest.mark.parametrize("entry", [{"A": 1, "B": 2}, {"A": "Lp(2)", "B": None}])
    def test_probe_fixture_that_is_not_a_string(self, capsys, tmp_path, entry):
        fixtures = tmp_path / "pairs.json"
        fixtures.write_text(json.dumps([entry]))
        code, _, err = run_cli(capsys, "probe", "--fixtures", str(fixtures))
        assert code == 2
        assert len(err.splitlines()) == 1, err


# -- the exit-code contract over the grammar ---------------------------------

# finite numbers at the edges of the double range, and ordinary ones
_NUMS = st.one_of(
    st.sampled_from((0.0, 1.0, -1.0, 0.5, 2.0, 1e-300, -1e-300, 1e300, -1e300,
                     1e308, -1e308)),
    st.floats(-10.0, 10.0), st.floats(1.0, 60.0))


def _factor(draw) -> str:
    x = repr(draw(_NUMS))
    kind = draw(st.sampled_from(("t", "l(t)", "ll(t)", "exp")))
    if kind == "exp":
        return f"exp({'' if x.startswith('-') else '+'}{x} sqrtlog)"
    return f"{kind}^{x}"


def _piece(draw) -> str:
    return " ".join(_factor(draw) for _ in range(draw(st.integers(1, 4))))


@st.composite
def _spec(draw) -> str:
    name, arity = draw(st.sampled_from(
        (("Lp", 1), ("Zygmund", 4), ("ExpType", 2), ("Linf", 0), ("L1", 0), ("Pow", 0))))
    text = name
    if arity:
        text += "(" + ",".join(repr(draw(_NUMS)) for _ in range(arity)) + ")"
    for end in ("@0", "@inf"):
        if name == "Pow" or draw(st.booleans()):
            text += f" {end} {_piece(draw)}"
    return text


def _context(draw) -> list[str]:
    n = draw(st.integers(1, 4))
    # gamma near 0, near n, or in between
    frac = draw(st.one_of(st.sampled_from((1e-9, 1e-3, 1 - 1e-3, 1 - 1e-9)),
                          st.floats(0.01, 0.99)))
    return ["--n", str(n), "--gamma", repr(n * frac)]


@st.composite
def _argv(draw) -> list[str]:
    command = draw(st.sampled_from(("target", "domain", "bounded", "boyd", "conjugate")))
    specs = [draw(_spec()) for _ in range(2 if command == "bounded" else 1)]
    argv = [command, *specs, *_context(draw)]
    if draw(st.booleans()):
        # a grid inside grid.SPAN_LIMIT with at most 4,000 points, far below
        # grid.POINT_LIMIT
        lo, hi = draw(st.integers(0, 160)), draw(st.integers(1, 160))
        ppd = draw(st.integers(2, max(2, min(48, 4000 // (lo + hi)))))
        argv += ["--tmin", f"1e-{lo}", "--tmax", f"1e{hi}",
                 "--grid-points-per-decade", str(ppd)]
    return argv


@settings(deadline=None)  # the suite turns warnings into errors
@given(argv=_argv())
# each of these once ended in a traceback, a warning or a second stderr line
@example(argv=["target", "Lp(1e400)"])
@example(argv=["conjugate", "Zygmund(2,600,2,0)"])
@example(argv=["conjugate", "Pow @0 t^1e300 exp(+1 sqrtlog) @inf t^2"])
@example(argv=["bounded", "L1", "L1", "--n", "2", "--gamma", "1.999999998"])
@example(argv=["target", "Zygmund(2,-1e308,2,0)"])
@example(argv=["boyd", "Pow @0 t^2 exp(-1e308 sqrtlog) @inf t^2"])
@example(argv=["bounded", "L1", "ExpType(-1,1)", "--n", "2", "--gamma", "1.999999998"])
# found by this property: log values past double range, and a tail integral
# whose first-order log correction turned negative
@example(argv=["boyd", "Linf @0 l(t)^1e308 t^1e308"])
@example(argv=["domain", "Pow @0 t^2 ll(t)^-1e308 ll(t)^-1e308 @inf t^2"])
@example(argv=["target", "Pow @0 t^1e308 t^-1e308 t^2 @inf t^2"])
@example(argv=["bounded", "L1", "Zygmund(2,42.44,19,1.37)", "--n", "1", "--gamma", "0.001",
               "--tmin", "1e-7", "--tmax", "1e9", "--grid-points-per-decade", "36"])
def test_every_command_keeps_the_exit_code_contract(argv):
    _assert_exit_code_contract(argv)


def _assert_exit_code_contract(argv):
    """Exit 0, 2 or 3, at most one stderr line, and JSON on stdout when any."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 2, 3), (code, err.getvalue())
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
    if out.getvalue():
        json.loads(out.getvalue())


# an A or B field of a fixtures entry: a spec, or something that is not a string
_FIELD = st.one_of(_spec(), st.none(), st.integers(), st.lists(st.integers(), max_size=1))
_ENTRY = st.one_of(st.fixed_dictionaries({}, optional={"A": _FIELD, "B": _FIELD}),
                   st.none(), st.integers(), st.text(max_size=3))
# the text of a --fixtures file: a list of entries, JSON that is not a list,
# or no JSON at all
_FIXTURES = st.one_of(
    st.lists(_ENTRY, max_size=2).map(json.dumps),
    st.one_of(st.none(), st.integers(), st.text(max_size=3),
              st.dictionaries(st.sampled_from(("A", "B")), _FIELD)).map(json.dumps),
    st.sampled_from(("", "[", '[{"A": "Lp(2)"', "Lp(2) Lp(6)")))


@st.composite
def _probe_case(draw) -> tuple[list[str], str | None]:
    """probe's argv, with none, one or two specs, and a fixtures file's text
    or None."""
    specs = [draw(_spec()) for _ in range(draw(st.integers(0, 2)))]
    return ["probe", *specs, *_context(draw)], draw(st.none() | _FIXTURES)


# each probe runs about 30 Luxemburg norms, about 0.1 s
@settings(max_examples=20, deadline=None)  # the suite turns warnings into errors
@given(case=_probe_case())
# each of these once ended in a warning: the edge value of a tail integral
# overflowed in a product, and a modular's running sum of cell integrals
# in an accumulate
@example(case=(["probe", "L1", "Lp(40)", "--n", "3", "--gamma", "2.9"], None))
@example(case=(["probe", "Lp(1.0)", "Pow @0 t^1e+300 @inf t^20.0", "--n", "1",
                "--gamma", "0.999"], None))
def test_probe_keeps_the_exit_code_contract(case):
    argv, fixtures = case
    with tempfile.TemporaryDirectory() as tmp:
        if fixtures is not None:
            path = Path(tmp) / "pairs.json"
            path.write_text(fixtures)
            argv = [*argv, "--fixtures", str(path)]
        _assert_exit_code_contract(argv)
