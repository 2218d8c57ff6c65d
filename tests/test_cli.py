import contextlib
import io
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abckit.cli import dispatch, fmt, load_config, read_csv, write_csv
from abckit.errors import BadParameter, BadValue, ParseError, UnknownKey


def run(capsys, args):
    code = dispatch(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run(capsys, ["radical", "--field", "Q", "--a", "1",
                                    "--b", "8", "--c", "-9"])
        assert code == 0 and "G=6" in out and "S=3" in out

    def test_input_error(self, capsys):
        code, _, err = run(capsys, ["radical", "--field", "Q", "--a", "1",
                                    "--b", "1", "--c", "1"])
        assert code == 1 and "input error" in err

    def test_unsupported_field(self, capsys):
        code, _, err = run(capsys, ["radical", "--field", "Q(sqrt(-5))",
                                    "--a", "1", "--b", "1", "--c", "-2"])
        assert code == 2 and "unsupported" in err

    def test_not_applicable(self, capsys):
        code, _, err = run(capsys, ["corollary", "--id", "8", "--field", "Q",
                                    "--a", "1", "--b", "8", "--c", "-9"])
        assert code == 3

    def test_degenerate_verdict(self, capsys):
        code, out, _ = run(capsys, ["sml", "decide", "--c1", "2", "--c2", "1",
                                    "--c3", "-2", "--a0", "5", "--a1", "7", "--a2", "9"])
        assert code == 3 and "Degenerate" in out

    def test_unsupported_recurrence(self, capsys):
        code, out, _ = run(capsys, ["sml", "decide", "--c1", "0", "--c2", "0",
                                    "--c3", "2", "--a0", "1", "--a1", "1", "--a2", "1"])
        assert code == 2 and "Unsupported" in out

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, ["radical", "--field", "Q", "--a", "1"])
        assert code == 1 and "usage" in err
        code, _, err = run(capsys, ["no-such-command"])
        assert code == 1

    def test_hypothesis_failure_is_input_error(self, capsys):
        code, _, err = run(capsys, ["corollary", "--id", "3", "--field", "Q",
                                    "--a", "1", "--b", "8", "--c", "-9"])
        assert code == 1 and "corollary 3" in err


SML_FLAGSHIP = ["sml", "decide", "--c1", "10", "--c2", "-31", "--c3", "30",
                "--a0", "31", "--a1", "112", "--a2", "452"]
ABC_CHECK = ["abc-check", "--theorem", "2", "--a", "1", "--b", "80", "--c", "-81"]


class TestNonFiniteInput:
    @pytest.mark.parametrize("args", [
        SML_FLAGSHIP + ["--C", "nan"],
        SML_FLAGSHIP + ["--C", "inf"],
        ABC_CHECK + ["--C", "nan"],
        ABC_CHECK + ["--C", "inf"],
        ["tidy", "--x", "nan"],
        ["yu-bound", "--n", "1", "--degree", "1", "--e-p", "1", "--norm-p", "2",
         "--heights", "nan", "--B", "3"],
    ])
    def test_exit_one(self, capsys, args):
        code, out, err = run(capsys, args)
        assert code == 1 and "input error" in err
        assert "nan" not in out

    def test_config_file_nan(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("C_main = nan\n")
        code, _, err = run(capsys, SML_FLAGSHIP + ["--config", os.fspath(path)])
        assert code == 1 and "C_main" in err


class TestCommands:
    def test_factor(self, capsys):
        code, out, _ = run(capsys, ["factor", "--field", "Q(i)", "--element", "5"])
        assert code == 0
        assert "1+2*w" in out and "2+w" in out

    def test_height_coords(self, capsys):
        code, out, _ = run(capsys, ["height", "--field", "Q", "--coords", "1,8,-9"])
        assert code == 0 and "H = 9" in out

    def test_radical_accepts_sum_form(self, capsys):
        code, out, _ = run(capsys, ["radical", "--field", "Q", "--a", "1",
                                    "--b", "8", "--z", "9"])
        assert code == 0 and "G=6" in out
        code, _, err = run(capsys, ["radical", "--field", "Q", "--a", "1",
                                    "--b", "8", "--c", "-9", "--z", "9"])
        assert code == 1  # the two orientations are mutually exclusive
        code, _, err = run(capsys, ["radical", "--field", "Q", "--a", "1", "--b", "8"])
        assert code == 1

    def test_height_of_a_hard_semiprime(self, capsys):
        # (2^61 - 1)(2^64 - 59) takes ECM about a second; the height factors nothing
        code, out, _ = run(capsys, ["height", "--num",
                                    "42535295865117307778430344311653531707"])
        assert code == 0 and out == "h = 86.64339757\n"

    def test_height_needs_coords_or_num(self, capsys):
        code, _, err = run(capsys, ["height", "--field", "Q"])
        assert code == 1 and "either --coords or --num" in err

    def test_height_ratio(self, capsys):
        code, out, _ = run(capsys, ["height", "--field", "Q", "--num", "3", "--den", "2"])
        assert code == 0 and "1.09861228867" in out

    def test_abc_check_margin(self, capsys):
        code, out, _ = run(capsys, ["abc-check", "--theorem", "2", "--field", "Q",
                                    "--a", "1", "--b", "8", "--c", "-9", "--C", "1"])
        assert code == 0 and "holds" in out and "margin=2.04541610978" in out

    def test_sml_decide_flagship_pipeline(self, capsys):
        code, out, _ = run(capsys, ["sml", "decide", "--c1", "10", "--c2", "-31",
                                    "--c3", "30", "--a0", "31", "--a1", "112",
                                    "--a2", "452", "--C", "1"])
        assert code == 0
        assert "NoZerosUpToBound" in out
        machine = [line for line in out.splitlines() if line.startswith("NoZeros")][-1]
        assert machine == "NoZerosUpToBound,816,30030,"

    def test_sml_decide_zeros_found(self, capsys):
        code, out, _ = run(capsys, ["sml", "decide", "--c1", "10", "--c2", "-31",
                                    "--c3", "30", "--a0", "1", "--a1", "0", "--a2", "-12"])
        assert code == 0
        assert out.splitlines()[1:] == ["zeros at n = 1", "ZerosFound,3,30,1"]

    def test_abc_check_theorem_3_weak_form(self, capsys):
        code, out, _ = run(capsys, ["abc-check", "--theorem", "3", "--field", "Q",
                                    "--a", "7153", "--b", "524288", "--c", "-531441"])
        assert code == 0 and out.startswith("theorem 3: holds")
        # the weak form G^(1/3 + logloglog G / loglog G), G = 2 * 3 * 23 * 311
        label, value = out.splitlines()[1].split(" = ")
        llg = math.log(math.log(42918))
        assert label == "weak form rhs"
        assert float(value) == pytest.approx(42918 ** (1 / 3 + math.log(llg) / llg), rel=1e-10)

    def test_corollary(self, capsys):
        readme = ["corollary", "--id", "10", "--alpha", "0.5", "--field", "Q",
                  "--a", "3", "--b", "125", "--c=-128"]
        code, out, _ = run(capsys, readme)
        assert code == 0
        assert out == ("corollary 10: holds lhs=4.85203026392 rhs=16.9344447624 "
                       "margin=12.0824144984 [theta=1/(2-a), a=0.5] regime=normal\n")
        code, out, err = run(capsys, readme[:1] + ["--id", "1"] + readme[5:])
        assert code == 3 and out == "" and err.startswith("not applicable: corollary 1")
        code, out, err = run(capsys, readme + ["--form", "2"])
        assert code == 1 and out == ""
        assert err == "input error: corollary 10: needs max(N_b, N_c) < (log H)^0.5 with a < 2/3\n"

    def test_sml_decide_cap_reason(self, capsys):
        code, out, _ = run(capsys, SML_FLAGSHIP + ["--cap", "100"])
        assert code == 0
        assert "truncated at the cap: the cap 100 is below the zero bound 816" in out
        assert "NoZerosUpToBound,100,30030," in out

    def test_sml_decide_negative_cap(self, capsys):
        code, out, err = run(capsys, SML_FLAGSHIP + ["--cap", "-5"])
        assert code == 1 and "cap must be at least 0" in err and out == ""

    def test_sml_decide_past_the_sieve_crossover(self, capsys):
        # the bound passes the hard limit, so the cap decides: 5001 terms,
        # enough for the scan to run through the sieve
        code, out, _ = run(capsys, ["sml", "decide", "--c1", "10", "--c2", "-31",
                                    "--c3", "30", "--a0", "1000003", "--a1", "112",
                                    "--a2", "452", "--cap", "5000"])
        assert code == 0
        assert "the zero bound exceeds the hard limit 1000000000" in out
        assert out.splitlines()[-1] == "NoZerosUpToBound,5000,149989230248296192530,"

    def test_yu_bound(self, capsys):
        code, out, _ = run(capsys, ["yu-bound", "--n", "1", "--degree", "1",
                                    "--e-p", "1", "--norm-p", "2",
                                    "--heights", "1.0986122886681098", "--B", "3"])
        assert code == 0 and out.strip().startswith("8637275.235")

    def test_yu_bound_non_numeric_height(self, capsys):
        code, out, err = run(capsys, ["yu-bound", "--n", "1", "--degree", "1",
                                      "--e-p", "1", "--norm-p", "2",
                                      "--heights", "1,abc", "--B", "3"])
        assert code == 1 and out == ""
        assert err.startswith("input error: --heights") and "Traceback" not in err

    def test_tidy(self, capsys):
        code, out, _ = run(capsys, ["tidy", "--x", "10"])
        assert code == 0 and out.strip() == "46.0517018599"

    def test_landau(self, capsys):
        code, out, _ = run(capsys, ["landau", "--field", "Q", "--R", "1"])
        assert code == 0 and out.strip() == "0.34657359028"

    def test_landau_R_past_the_float_range(self, capsys):
        code, out, err = run(capsys, ["landau", "--field", "Q", "--R", str(10**400)])
        assert code == 1 and out == ""
        assert err.startswith("input error: k is too large") and "Traceback" not in err

    def test_xyz_search_prime_far_above_limit(self, capsys, tmp_path):
        out_path = os.fspath(tmp_path / "triples.csv")
        code, out, _ = run(capsys, ["xyz", "search", "--P", "100000000003", "--limit", "10",
                                    "--out", out_path])
        assert code == 0 and out.startswith("16 primitive")
        assert len(read_csv(out_path)[1]) == 16

    def test_calibrate_small(self, capsys):
        code, out, _ = run(capsys, ["calibrate", "--theorem", "2", "--H-limit", "50"])
        assert code == 0 and "empirical min C" in out


class TestCsvRoundTrip:
    def test_xyz_search_csv(self, capsys, tmp_path):
        out_path = os.fspath(tmp_path / "triples.csv")
        code, _, _ = run(capsys, ["xyz", "search", "--P", "5", "--limit", "300",
                                  "--phi", "2", "--out", out_path])
        assert code == 0
        header, rows = read_csv(out_path)
        assert header[:3] == ["X", "Y", "Z"]
        assert all(r["X"] + r["Y"] == r["Z"] for r in rows)
        rewritten = os.fspath(tmp_path / "again.csv")
        write_csv(rewritten, header, [[r[h] for h in header] for r in rows])
        assert open(out_path).read() == open(rewritten).read()

    def test_radical_csv(self, capsys, tmp_path):
        out_path = os.fspath(tmp_path / "triple.csv")
        code, _, _ = run(capsys, ["radical", "--field", "Q(i)", "--a", "1",
                                  "--b", "2*w", "--c=-1-2*w", "--out", out_path])
        assert code == 0
        header, rows = read_csv(out_path)
        assert rows[0]["G"] == 10 and rows[0]["c"] == "-1-2*w"
        rewritten = os.fspath(tmp_path / "again.csv")
        write_csv(rewritten, header, [[r[h] for h in header] for r in rows])
        assert open(out_path).read() == open(rewritten).read()

    def test_rationals_come_back_as_fractions(self, tmp_path):
        path = os.fspath(tmp_path / "rationals.csv")
        write_csv(path, ["q", "x", "s"], [[Fraction(-3, 8), 0.5, "1/0"]])
        assert read_csv(path) == (["q", "x", "s"],
                                  [{"q": Fraction(-3, 8), "x": 0.5, "s": "1/0"}])

    def test_unwritable_out_is_input_error(self, capsys, tmp_path):
        out_path = os.fspath(tmp_path / "missing" / "triples.csv")
        code, _, err = run(capsys, ["xyz", "search", "--P", "5", "--limit", "100",
                                    "--out", out_path])
        assert code == 1
        assert f"input error: cannot write {out_path}: No such file or directory" in err

    def test_abc_check_csv(self, capsys, tmp_path):
        out_path = os.fspath(tmp_path / "report.csv")
        code, _, _ = run(capsys, ["abc-check", "--theorem", "1", "--field", "Q",
                                  "--a", "1", "--b", "8", "--c", "-9",
                                  "--out", out_path])
        assert code == 0
        header, rows = read_csv(out_path)
        assert rows[0]["theorem"] == 1 and rows[0]["regime"] == "small-radical"


class TestConfigFiles:
    def test_defaults(self):
        config = load_config(None)
        assert config.C_main == 1.0

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("\n# nothing but comments\n\n")
        assert load_config(os.fspath(path)) == load_config(None)

    def test_values_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# leading comment\nC_main = 2.5\nG_min = 20 # trailing\n"
                        "full_exponent = true\n")
        config = load_config(os.fspath(path))
        assert config.C_main == 2.5
        assert config.G_min == 20.0
        assert config.full_exponent is True

    def test_bad_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("G_min = -1\n")
        with pytest.raises(BadValue):
            load_config(os.fspath(path))
        path.write_text("C_main = cheese\n")
        with pytest.raises(BadValue):
            load_config(os.fspath(path))
        path.write_text("C_main = 2\nG_min = -1\n")
        with pytest.raises(BadValue) as info:
            load_config(os.fspath(path))
        assert info.value.key == "G_min"

    def test_booleans(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("full_exponent = no\n")
        assert load_config(os.fspath(path)).full_exponent is False
        path.write_text("full_exponent = maybe\n")
        with pytest.raises(BadValue) as info:
            load_config(os.fspath(path))
        assert info.value.key == "full_exponent" and "expected a boolean" in str(info.value)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mystery = 3\n")
        with pytest.raises(UnknownKey):
            load_config(os.fspath(path))

    def test_unread_keys_are_unknown(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        for line in ("field = Q(i)", "out = x.csv", "verbosity = 1", "precision_bits = 64"):
            path.write_text(line + "\n")
            with pytest.raises(UnknownKey):
                load_config(os.fspath(path))
            code, _, err = run(capsys, ["calibrate", "--theorem", "2", "--H-limit", "10",
                                        "--config", os.fspath(path)])
            assert code == 1 and "unknown config key" in err

    def test_sunit_constants_are_not_config_keys(self, capsys, tmp_path):
        # the S-unit evaluators take these as parameters; no command reads them
        path = tmp_path / "run.cfg"
        for key in ("gyory_C13", "gyory_C14", "lefourn_C118", "lefourn_C119"):
            path.write_text(f"{key} = 2.0\n")
            code, _, err = run(capsys, SML_FLAGSHIP + ["--config", os.fspath(path)])
            assert code == 1 and f"unknown config key: {key}" in err

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        path = os.fspath(tmp_path / "missing.cfg")
        code, out, err = run(capsys, SML_FLAGSHIP + ["--config", path])
        assert code == 1 and out == ""
        assert f"input error: cannot read config {path}: No such file or directory" in err

    def test_non_utf8_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"C_main = 1\n\xff\xfe\n")
        with pytest.raises(BadParameter):
            load_config(os.fspath(path))
        code, out, err = run(capsys, SML_FLAGSHIP + ["--config", os.fspath(path)])
        assert code == 1 and out == ""
        assert f"input error: cannot read config {path}: not UTF-8 text" in err

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("C_main = 1\nword salad\n")
        with pytest.raises(ParseError) as info:
            load_config(os.fspath(path))
        assert info.value.line == 2

    def test_config_feeds_commands(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("C_main = 0\n")
        code, out, _ = run(capsys, ["sml", "decide", "--c1", "10", "--c2", "-31",
                                    "--c3", "30", "--a0", "31", "--a1", "112",
                                    "--a2", "452", "--config", os.fspath(path)])
        assert code == 0
        # C = 0 collapses the bound to G^(1/3)/h: N = floor(19.31) = 19
        assert "NoZerosUpToBound,19,30030," in out


class TestFormatting:
    def test_fmt_rules(self):
        assert fmt(12) == "12"
        assert fmt(True) == "1" and fmt(False) == "0"
        assert fmt(2.0454161097830654) == "2.04541610978"
        from fractions import Fraction

        assert fmt(Fraction(9, 1)) == "9"
        assert fmt(Fraction(9, 2)) == "9/2"


def test_factor_beyond_the_ecm_curves_is_an_input_error(capsys, monkeypatch):
    # (2^61 - 1)(2^64 - 59): rho hands it to ECM, whose full table finds
    # 2^61 - 1 in about a second; a cap of 2 curves at B1 = 250 takes the
    # FactoringLimit path in milliseconds
    monkeypatch.setattr("abckit.arith._ECM_LEVELS", ((250, 15_000, 2),))
    code, out, err = run(capsys, ["factor", "--field", "Q", "--element",
                                  "42535295865117307778430344311653531707"])
    assert code == 1 and out == ""
    assert err.startswith("input error:") and "Traceback" not in err


def test_module_entry_point():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "abckit.cli", "factor", "--element", "72"],
        cwd=root, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "(2)^3" in proc.stdout


# ---------------------------------------------------------------------------
# Fuzz gate: every generated argv ends in a documented exit code.  Most values
# are drawn three times in four from a valid range and otherwise from a wide
# one, so that both the success paths and the input errors are reached.


INTS = st.integers(-10**6, 10**6)
FLOATS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400"]),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
)
FIELDS = st.sampled_from(["Q", "Q(i)", "Q(sqrt(-3))", "Q(sqrt(-7))", "Q(sqrt(-5))", "R"])


def _mostly(valid, wide=INTS):
    return st.one_of(valid, valid, valid, wide)


THEOREMS = _mostly(st.integers(1, 3), st.integers(-1, 5))
WORKERS = _mostly(st.just(1), st.integers(-1, 1))


def _floats(lo: float, hi: float):
    return _mostly(st.floats(lo, hi).map(repr), FLOATS)


def _element(x: int, y: int) -> str:
    return str(x) if y == 0 else f"{x}{y:+d}*w"


@st.composite
def _triple_args(draw) -> list[str]:
    field = draw(FIELDS)
    ys = st.just(0) if field == "Q" else _mostly(st.integers(-50, 50))
    (x1, y1), (x2, y2) = draw(st.tuples(INTS, ys)), draw(st.tuples(INTS, ys))
    args = ["--field", field, f"--a={_element(x1, y1)}", f"--b={_element(x2, y2)}"]
    orientation = draw(st.sampled_from(["c", "z", "other"]))
    if orientation == "c":
        return args + [f"--c={_element(-x1 - x2, -y1 - y2)}"]
    if orientation == "z":
        return args + [f"--z={_element(x1 + x2, y1 + y2)}"]
    return args + [f"--c={_element(draw(INTS), 0)}"]


@st.composite
def _config_args(draw) -> list[str]:
    args = []
    for flag, lo, hi in (("--C", 0, 5), ("--G-min", 3, 1e4)):
        if draw(st.booleans()):
            args.append(f"{flag}={draw(_floats(lo, hi))}")
    if draw(st.booleans()):
        args.append("--full-exponent")
    return args


@st.composite
def _argv(draw, out_path: str) -> list[str]:
    command = draw(st.sampled_from([
        "factor", "height", "radical", "abc-check", "corollary", "yu-bound",
        "landau", "tidy", "sml", "xyz", "calibrate",
    ]))
    if command == "factor":
        field = draw(FIELDS)
        y = 0 if field == "Q" else draw(_mostly(st.integers(-50, 50)))
        return [command, "--field", field, f"--element={_element(draw(INTS), y)}"]
    if command == "height":
        if draw(st.booleans()):
            coords = draw(st.lists(INTS.map(str), min_size=1, max_size=3))
            return [command, "--field", draw(FIELDS), f"--coords={','.join(coords)}"]
        return [command, f"--num={draw(INTS)}", f"--den={draw(INTS)}"]
    if command == "radical":
        return [command] + draw(_triple_args())
    if command == "abc-check":
        return [command, f"--theorem={draw(THEOREMS)}"] + draw(_triple_args()) + \
            draw(_config_args())
    if command == "corollary":
        argv = [command, f"--id={draw(st.integers(-1, 14))}"] + draw(_triple_args())
        if draw(st.booleans()):
            argv.append(f"--alpha={draw(_floats(0, 1))}")
        if draw(st.booleans()):
            argv.append(f"--form={draw(st.integers(0, 3))}")
        return argv + draw(_config_args())
    if command == "yu-bound":
        heights = draw(st.lists(_mostly(_floats(0, 100), st.sampled_from(["abc", "", "1e"])),
                                min_size=1, max_size=3))
        n = draw(_mostly(st.just(len(heights))))
        return [command, f"--n={n}", f"--degree={draw(_mostly(st.integers(1, 4)))}",
                f"--e-p={draw(_mostly(st.integers(1, 4)))}",
                f"--norm-p={draw(_mostly(st.integers(2, 10**4)))}",
                f"--heights={','.join(heights)}", f"--B={draw(_floats(3, 1e6))}"]
    if command == "landau":
        if draw(st.integers(0, 9)) == 0:  # first_primes's sieve bound past the float range
            return [command, "--field", "Q", f"--R={draw(st.integers(10**307, 10**400))}"]
        R = draw(_mostly(st.integers(1, 50), st.integers(-10**6, 0)))
        return [command, "--field", draw(FIELDS), f"--R={R}"]
    if command == "tidy":
        return [command, f"--x={draw(_floats(0, 1e6))}"]
    if command == "sml":
        small = _mostly(st.integers(-60, 60))
        values = [draw(small) for _ in range(6)]
        if draw(st.booleans()):  # a_n = k1 r1^n + k2 r2^n + k3 r3^n: rational roots
            (r1, r2, r3), ks = values[:3], values[3:]
            values = [r1 + r2 + r3, -(r1 * r2 + r1 * r3 + r2 * r3), r1 * r2 * r3,
                      *(sum(k * r**n for k, r in zip(ks, values[:3])) for n in range(3))]
        coefficients = [f"--{name}={value}" for name, value
                        in zip(("c1", "c2", "c3", "a0", "a1", "a2"), values)]
        cap = draw(_mostly(st.integers(0, 300), st.integers(-10**6, -1)))
        return [command, "decide", *coefficients, f"--cap={cap}"] + draw(_config_args())
    if command == "xyz":
        P = draw(_mostly(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23]),
                         st.integers(-10**6, 23)))
        limit = draw(_mostly(st.integers(1, 10**4), st.integers(-10**6, 0)))
        return [command, "search", f"--P={P}", f"--limit={limit}",
                f"--phi={draw(_mostly(st.integers(1, 3), st.integers(-1, 5)))}",
                "--out", out_path, f"--workers={draw(WORKERS)}"]
    H_limit = draw(_mostly(st.integers(1, 40), st.integers(-10**6, 0)))
    return [command, f"--theorem={draw(THEOREMS)}", f"--H-limit={H_limit}"] + \
        draw(_config_args())


def test_fuzzed_argv_exits_cleanly(tmp_path_factory):
    out_path = os.fspath(tmp_path_factory.mktemp("fuzz") / "triples.csv")

    @settings(max_examples=200, deadline=None)
    @given(argv=_argv(out_path))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        if code == 0:
            assert "nan" not in out.getvalue().lower(), (argv, out.getvalue())

    check()
