"""DSL parsing, rendering, and the command-line frontend."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orlicz_calc import cli, specdsl as dsl


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
        assert err.value.position >= 0

    def test_to_young(self):
        A = dsl.parse_spec("Lp(2)").to_young()
        assert A.eval(3.0) == pytest.approx(9.0)


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
    ])
    def test_extreme_inputs_end_in_one_line(self, capsys, argv, code):
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        assert len(err.splitlines()) == (0 if code == 0 else 1), err
        if code == 0:
            json.loads(out)

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
