import json
import random
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

from haargenus.cli import main

MOMENT_EXPR = {
    "traces": [[{"color": 1, "eps": 1, "slot": 1}, {"color": 1, "eps": -1, "slot": 2}]],
    "matrices": {"1": [["1/2", "1"], ["0", "1/3"]], "2": [["2", "1/2"], ["1", "1"]]},
}

QUAD_EXPR = {
    "traces": [[{"color": 1, "eps": 1, "slot": 1}, {"color": 1, "eps": -1, "slot": 1},
                {"color": 1, "eps": 1, "slot": 1}, {"color": 1, "eps": -1, "slot": 1}]],
    "matrices": {"1": [["1"]]},
}


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "haargenus.cli", *args],
                          capture_output=True, text=True)


@pytest.fixture
def expr_path(tmp_path):
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(MOMENT_EXPR))
    return str(path)


class TestWg:
    def test_known_strings(self, capsys):
        assert main(["wg", "--n", "8", "--lambda", "3,1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["entry"]["wg"] == "2*N^6/((N+1)*(N+2)*(N+6)*(N-1)*(N-2)*(N-3))"
        assert main(["wg", "--n", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["entries"]["1"]["Wg"] == "1/N"

    def test_eval(self, capsys):
        assert main(["wg", "--n", "4", "--eval", "10"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["entries"]["1,1"]["Wg_at_N"] == "11/1080"
        assert out["entries"]["2"]["Wg_at_N"] == "-1/1080"

    @pytest.mark.parametrize("n, code", [("-1", 2), ("0", 2), ("1", 4), ("2", 0)])
    def test_eval_dimension_exit_code(self, capsys, n, code):
        # N must be a positive integer; N = 1 is a pole of the n = 4 table
        assert main(["wg", "--n", "4", "--eval", n]) == code
        err = capsys.readouterr().err
        assert ("N must be a positive integer" in err) == (code == 2)

    def test_cap_exit_code(self):
        assert main(["wg", "--n", "12"]) == 3

    def test_validation_exit_code(self):
        assert main(["wg", "--n", "5"]) == 2

    @pytest.mark.parametrize("lam", ["3", "1", "a", "2,x", "0,2", ""])
    def test_bad_diagram_exit_code(self, capsys, lam):
        assert main(["wg", "--n", "4", "--lambda", lam]) == 2
        err = capsys.readouterr().err
        assert repr(lam) in err and "partition of n/2 = 2" in err


class TestMoment:
    def test_exact_value(self, expr_path, capsys):
        assert main(["moment", "--expr", expr_path, "--N", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == "5/8"

    def test_asymptotic(self, expr_path, capsys):
        assert main(["moment", "--expr", expr_path, "--asymptotic"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["asymptotic"] == [{"coefficient": "1", "traces": [[1], [2]]}]

    def test_odd_count_is_zero(self, tmp_path, capsys):
        odd = {**MOMENT_EXPR, "traces": [MOMENT_EXPR["traces"][0] +
                                         [{"color": 1, "eps": 1, "slot": 1}]]}
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(odd))
        for mode, value in (("exact", "0"), ("float", 0.0)):
            assert main(["moment", "--expr", str(path), "--N", "2", "--mode", mode]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["value"] == value and out["term_count"] == 0

    def test_pole_exit_code(self, tmp_path, capsys):
        path = tmp_path / "quad.json"
        path.write_text(json.dumps(QUAD_EXPR))
        assert main(["moment", "--expr", str(path), "--N", "1"]) == 4
        # a slot with no matrix is bad input, reported before the pole
        missing = json.loads(json.dumps(QUAD_EXPR))
        missing["traces"][0][2]["slot"] = 2
        path.write_text(json.dumps(missing))
        capsys.readouterr()
        assert main(["moment", "--expr", str(path), "--N", "1"]) == 2
        assert "no matrix for label 2" in capsys.readouterr().err

    def test_cap_exit_code(self, tmp_path):
        path = tmp_path / "quad.json"
        path.write_text(json.dumps(QUAD_EXPR))
        assert main(["moment", "--expr", str(path), "--N", "1", "--cap-terms", "2"]) == 3


class TestBadInput:
    NO_SLOT = {"traces": [[{"color": 1, "eps": 1}, {"color": 1, "eps": -1, "slot": 2}]]}
    NO_TRACES = {"matrices": MOMENT_EXPR["matrices"]}
    BAD_ENTRY = {"traces": MOMENT_EXPR["traces"],
                 "matrices": {"1": [["1/x", "1"], ["0", "1"]], "2": [["1", "0"], ["0", "1"]]}}
    # no field is truncated to an int: slot 1.5 is not slot 1, eps true is not +1
    FLOAT_SLOT = {**MOMENT_EXPR, "traces": [[{"color": 1, "eps": 1, "slot": 1},
                                             {"color": 1, "eps": -1, "slot": 1.5}]]}
    BOOL_EPS = {**MOMENT_EXPR, "traces": [[{"color": 1, "eps": True, "slot": 1},
                                           {"color": 1, "eps": -1, "slot": 2}]]}
    # a JSON true is not the entry 1, and Infinity is no float entry
    BOOL_ENTRY = {**MOMENT_EXPR, "matrices": {"1": [["1", "0"], ["0", "1"]],
                                              "2": [[True, 0], [0, 1]]}}
    INF_ENTRY = {**MOMENT_EXPR, "matrices": {"1": [[1.5, 0], [0, 1]],
                                             "2": [[1.0, float("inf")], [0, 1]]}}
    # an integer entry beside a float, too large for a float
    HUGE_ENTRY = {**MOMENT_EXPR, "matrices": {"1": [[1.5, 10**400], [0, 1]],
                                              "2": [[1.0, 0], [0, 1]]}}

    @pytest.mark.parametrize("payload, field", [(NO_SLOT, "'slot'"), (NO_TRACES, "'traces'"),
                                                (BAD_ENTRY, "1/x"),
                                                (FLOAT_SLOT, "position 2: slot must be an "
                                                             "integer, got 1.5"),
                                                (BOOL_EPS, "position 1: eps must be an "
                                                           "integer, got True"),
                                                (BOOL_ENTRY, "matrix 2: matrix entries must be "
                                                             "numbers, got True"),
                                                (INF_ENTRY, "matrix 2: matrix entries must be "
                                                            "finite, got inf"),
                                                (HUGE_ENTRY, "bad matrix 1")],
                             ids=["missing-slot", "missing-traces", "bad-rational", "float-slot",
                                  "bool-eps", "bool-entry", "inf-entry", "huge-entry"])
    def test_malformed_file_exit_code(self, tmp_path, capsys, payload, field):
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(payload))
        for mode in ("exact", "float"):
            assert main(["moment", "--expr", str(path), "--N", "2", "--mode", mode]) == 2
            err = capsys.readouterr().err
            assert str(path) in err and field in err

    @pytest.mark.parametrize("entry, text", [("true", "numbers, got True"),
                                             ("NaN", "finite, got nan"),
                                             ("-Infinity", "finite, got -inf")])
    def test_bad_entry_in_matrices_file(self, expr_path, tmp_path, capsys, entry, text):
        path = tmp_path / "mats.json"
        path.write_text(f'{{"matrices": {{"1": [[0.5, {entry}], [0, 1]]}}}}')
        for argv in (["moment", "--expr", expr_path, "--N", "2", "--matrices", str(path)],
                     ["verify", "--suite", "mc", "--expr", expr_path, "--N", "2",
                      "--samples", "64", "--matrices", str(path)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert f"{path}: bad matrix 1: matrix entries must be {text}" in captured.err
            assert captured.out == ""

    ENTRY = {"color": 1, "eps": 1, "slot": 1}

    @pytest.mark.parametrize("document, text", [
        ({"traces": 5}, "'traces' must be a list of traces, got 5"),
        ({"traces": [[ENTRY], 5]}, "traces[1] must be a list of entries, got 5"),
        ({"traces": [[ENTRY, 7]]}, "traces[0][1] must be an object with the keys 'color', "
                                   "'eps' and 'slot', got 7"),
        ({"traces": [[{"color": 1, "eps": 1}]]}, "traces[0][0] must be an object with the "
                                                 "keys 'color', 'eps' and 'slot', got "
                                                 "{'color': 1, 'eps': 1}"),
    ], ids=["traces-not-list", "trace-not-list", "entry-not-object", "entry-lacks-key"])
    def test_bad_expression_shape_exit_code(self, tmp_path, capsys, document, text):
        # the message names the trace, the entry and the type expected there
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(document))
        assert main(["moment", "--expr", str(path), "--N", "2"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and text in err and "Traceback" not in err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(["moment", "--expr", str(path), "--N", "2"]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_nonpositive_dimension_exit_code(self, tmp_path, capsys, n):
        # identity factors only: no matrix dimension can reject N first
        epath = tmp_path / "expr.json"
        epath.write_text(json.dumps({"traces": [[]]}))
        apath = tmp_path / "limit.json"
        apath.write_text(json.dumps({"traces": [[]], "matrices": {"1": [["1"]]}}))
        cpath = tmp_path / "exprs.json"
        cpath.write_text(json.dumps({"exprs": [{"traces": [[]]}, {"traces": [[]]}]}))
        for argv in (["moment", "--expr", str(epath), "--N", n],
                     ["moment", "--expr", str(epath), "--N", n, "--mode", "float"],
                     ["moment", "--expr", str(apath), "--N", n, "--asymptotic"],
                     ["cumulant", "--exprs", str(cpath), "--N", n],
                     ["verify", "--suite", "mc", "--expr", str(epath), "--N", n,
                      "--samples", "64"]):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert "N must be a positive integer" in captured.err and captured.out == ""

    def test_empty_trace_is_one(self, tmp_path, capsys):
        # tr(I) / N = 1 at every N, as one vertex cycle of Euler characteristic 2
        path = tmp_path / "expr.json"
        path.write_text(json.dumps({"traces": [[]]}))
        for n in ("1", "2", "5"):
            assert main(["moment", "--expr", str(path), "--N", n]) == 0
            assert json.loads(capsys.readouterr().out)["value"] == "1"
        assert main(["expand", "--expr", str(path)]) == 0
        [term] = json.loads(capsys.readouterr().out)["terms"]
        assert (term["chi"], term["exponent"], term["vertex"]) == (2, 0, [[]])

    def test_zero_dimension_no_traceback(self, tmp_path):
        path = tmp_path / "expr.json"
        path.write_text(json.dumps({"traces": [[]]}))
        result = run_cli(["moment", "--expr", str(path), "--N", "0"])
        assert result.returncode == 2
        assert "positive integer" in result.stderr and "Traceback" not in result.stderr


class TestNonFiniteFloats:
    """Finite float matrices whose traces or results overflow exit 2 with
    the cause named, and no report holds a value that JSON cannot hold.
    Every warning is an error here: the exit-2 message is the only report of
    an overflow."""

    BIG = [[1e200, 1e200], [1e200, 1e200]]
    # tr(X X^T): finite traces whose product overflows
    XXT = [{"color": 1, "eps": 1, "slot": 1}, {"color": 1, "eps": -1, "slot": -1}]
    # tr(O X) tr(O^T X): the label cycle (1, 1), X X, overflows
    SPLIT = [[{"color": 1, "eps": 1, "slot": 1}], [{"color": 1, "eps": -1, "slot": 1}]]

    @pytest.mark.parametrize("traces, extra, text", [
        ([XXT], [], "the result is not finite: inf"),
        ([XXT], ["--asymptotic"], "the result is not finite: inf"),
        (SPLIT, [], "the label cycle (1, 1) is not finite: inf")])
    def test_moment(self, tmp_path, capsys, traces, extra, text):
        path = tmp_path / "expr.json"
        path.write_text(json.dumps({"traces": traces, "matrices": {"1": self.BIG}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["moment", "--expr", str(path), "--N", "2", "--mode", "float",
                         *extra]) == 2
        captured = capsys.readouterr()
        assert text in captured.err and captured.out == ""

    def test_cumulant(self, tmp_path, capsys):
        path = tmp_path / "exprs.json"
        path.write_text(json.dumps({"exprs": [{"traces": [self.XXT]}],
                                    "matrices": {"1": self.BIG}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["cumulant", "--exprs", str(path), "--N", "2", "--mode", "float"]) == 2
        captured = capsys.readouterr()
        assert "the result is not finite: inf" in captured.err and captured.out == ""

    def test_emit_refuses_non_finite(self, capsys):
        from haargenus.cli import emit
        from haargenus.errors import ValidationError

        with pytest.raises(ValidationError, match="not finite"):
            emit({"value": float("nan")}, None)
        assert capsys.readouterr().out == ""


class TestMatricesFlag:
    def test_override_file(self, tmp_path, capsys):
        bare = {"traces": MOMENT_EXPR["traces"]}
        epath = tmp_path / "expr.json"
        epath.write_text(json.dumps(bare))
        mpath = tmp_path / "mats.json"
        mpath.write_text(json.dumps({"matrices": MOMENT_EXPR["matrices"]}))
        assert main(["moment", "--expr", str(epath), "--N", "2",
                     "--matrices", str(mpath)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == "5/8"


class TestExpand:
    def test_term_listing(self, expr_path, capsys):
        assert main(["expand", "--expr", expr_path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["term_count"] == 1
        assert out["terms"][0]["chi"] == 2
        assert out["terms"][0]["vertex"] == [[1], [2]]


class TestCumulant:
    def test_value(self, tmp_path, capsys):
        payload = {
            "exprs": [
                {"traces": [[{"color": 1, "eps": 1, "slot": 1},
                             {"color": 1, "eps": -1, "slot": 2}]]},
                {"traces": [[{"color": 1, "eps": 1, "slot": 1},
                             {"color": 1, "eps": 1, "slot": 2}]]},
            ],
            "matrices": MOMENT_EXPR["matrices"],
        }
        path = tmp_path / "exprs.json"
        path.write_text(json.dumps(payload))
        assert main(["cumulant", "--exprs", str(path), "--N", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["order"] == 2 and "/" in out["value"]

    def test_no_arguments_exit_code(self, tmp_path, capsys):
        path = tmp_path / "exprs.json"
        path.write_text(json.dumps({"exprs": [], "matrices": MOMENT_EXPR["matrices"]}))
        assert main(["cumulant", "--exprs", str(path), "--N", "2"]) == 2
        assert "at least one expression" in capsys.readouterr().err


class TestFloatIsExactRounded:
    """With entries k/4 (|k| <= 8) and N <= 5 every float trace is exact, so
    `--mode float` must report float() of the exact report's value, bit for
    bit."""

    @staticmethod
    def random_traces(rng):
        """2-3 single traces over one or two colours, each colour on 2 or 4
        positions."""
        counts = rng.choice([(2,), (4,), (2, 2), (4, 2), (2, 4)])
        colours = [c for c, m in zip((1, 2), counts) for _ in range(m)]
        rng.shuffle(colours)
        entries = [{"color": c, "eps": rng.choice((1, -1)), "slot": rng.choice((0, 1, -1, 2, -2))}
                   for c in colours]
        cuts = sorted(rng.sample(range(1, len(entries)), rng.randint(1, min(2, len(entries) - 1))))
        return [entries[a:b] for a, b in zip([0, *cuts], [*cuts, len(entries)])]

    def test_moment_and_cumulant(self, tmp_path, capsys):
        rng = random.Random(72)
        path = tmp_path / "input.json"
        for _ in range(12):
            traces = self.random_traces(rng)
            n = rng.randint(3, 5)
            matrices = {str(l): [[f"{rng.randint(-8, 8)}/4" for _ in range(n)] for _ in range(n)]
                        for l in (1, 2)}
            for command, payload in (
                    (["moment", "--expr"], {"traces": traces, "matrices": matrices}),
                    (["cumulant", "--exprs"], {"exprs": [{"traces": [t]} for t in traces],
                                               "matrices": matrices})):
                path.write_text(json.dumps(payload))
                values = []
                for mode in ("exact", "float"):
                    assert main([*command, str(path), "--N", str(n), "--mode", mode]) == 0
                    values.append(json.loads(capsys.readouterr().out)["value"])
                exact, got = values
                assert repr(got) == repr(float(Fraction(exact)))


class TestVerify:
    def test_noncross_clean(self, capsys):
        assert main(["verify", "--suite", "noncross"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["counterexamples"] == []

    def test_oracle_clean(self, capsys):
        assert main(["verify", "--suite", "oracle", "--count", "8", "--seed", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["discrepancies"] == []

    def test_mc_and_determinism(self, expr_path):
        args = ["verify", "--suite", "mc", "--expr", expr_path, "--N", "2",
                "--samples", "2000", "--seed", "42"]
        first = run_cli(args + ["--workers", "1"])
        second = run_cli(args + ["--workers", "3"])
        third = run_cli(args + ["--workers", "1"])
        assert first.returncode == 0
        assert first.stdout == second.stdout == third.stdout

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_oracle_count_exit_code(self, capsys, monkeypatch, count):
        import haargenus.verify as verify

        def battery(*args):
            raise AssertionError("cases generated")

        monkeypatch.setattr(verify, "oracle_battery", battery)
        assert main(["verify", "--suite", "oracle", "--count", count]) == 2
        assert "at least one case" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64), "1.5", "true"])
    def test_mc_seed_range_exit_code(self, expr_path, seed):
        result = run_cli(["verify", "--suite", "mc", "--expr", expr_path, "--N", "2",
                          "--samples", "100", "--seed", seed])
        assert result.returncode == 2
        assert "seed" in result.stderr and "Traceback" not in result.stderr

    def test_mc_one_sample_exit_code(self, expr_path, capsys):
        # one sample has no standard error, so no z-score to report
        assert main(["verify", "--suite", "mc", "--expr", expr_path, "--N", "2",
                     "--samples", "1"]) == 2
        captured = capsys.readouterr()
        assert "two samples" in captured.err and captured.out == ""

    def test_mc_worker_count_exit_code(self, expr_path, capsys):
        for workers in ("0", "-2"):
            assert main(["verify", "--suite", "mc", "--expr", expr_path, "--N", "2",
                         "--samples", "100", "--workers", workers]) == 2
            assert "worker" in capsys.readouterr().err

    def test_workers_only_on_verify(self, expr_path):
        # only `verify` samples; elsewhere --workers is an argparse error
        for argv in (["moment", "--expr", expr_path, "--N", "2"],
                     ["expand", "--expr", expr_path],
                     ["wg", "--n", "4"]):
            result = run_cli(argv + ["--workers", "-1"])
            assert result.returncode == 2, argv
            assert "unrecognized arguments: --workers" in result.stderr
            assert "Traceback" not in result.stderr and result.stdout == ""

    def test_out_file(self, expr_path, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--suite", "mc", "--expr", expr_path, "--N", "2",
                     "--samples", "1000", "--seed", "1", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert {"exact", "mc_mean", "mc_se", "z_score"} <= set(data)


class TestTableReuse:
    """`moment`, `expand` and `cumulant` keep their coefficients on the
    process's default tables at the default cap, and build fresh tables at
    any other cap; the reports are the same either way."""

    @pytest.fixture
    def argvs(self, tmp_path):
        mats = {"1": [["1", "1/2", "0"], ["0", "-1", "2"], ["1/3", "0", "1"]]}
        quad = tmp_path / "quad.json"
        quad.write_text(json.dumps({**QUAD_EXPR, "matrices": mats}))
        exprs = tmp_path / "exprs.json"
        exprs.write_text(json.dumps({"exprs": [{"traces": [QUAD_EXPR["traces"][0][:2]]}] * 2,
                                     "matrices": mats}))
        return [["moment", "--expr", str(quad), "--N", "3"],
                ["moment", "--expr", str(quad), "--N", "3", "--mode", "float"],
                ["moment", "--expr", str(quad), "--N", "3", "--asymptotic"],
                ["expand", "--expr", str(quad)],
                ["cumulant", "--exprs", str(exprs), "--N", "3"]]

    def test_second_run_makes_no_eval_at(self, argvs, capsys, monkeypatch):
        from haargenus import expansion
        from haargenus.ratpoly import PolyFrac

        monkeypatch.setattr(expansion, "_DEFAULT_TABLES", None)
        calls = []
        real_eval_at = PolyFrac.eval_at

        def eval_at(self, n0):
            calls.append(n0)
            return real_eval_at(self, n0)

        monkeypatch.setattr(PolyFrac, "eval_at", eval_at)
        argv = argvs[0]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert calls
        calls.clear()
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert calls == []

    def test_other_caps_build_fresh_tables(self, argvs, capsys, monkeypatch):
        from haargenus import expansion

        def report(argv):
            assert main(argv) == 0
            out = json.loads(capsys.readouterr().out)
            out["meta"].pop("cap")
            return out

        monkeypatch.setattr(expansion, "_DEFAULT_TABLES", None)
        for argv in argvs:
            shared = report(argv)
            assert report(argv + ["--cap", "12"]) == shared
        tables = expansion._DEFAULT_TABLES
        assert tables is not None and tables.cap == 10
        # a cap below the table size still fails, and leaves the default tables alone
        assert main(argvs[0] + ["--cap", "2"]) == 3
        assert expansion._DEFAULT_TABLES is tables and tables.cap == 10


class TestParserReuse:
    """`main` parses with one parser per process; reuse must not change a run."""

    def _runs(self, argvs, capsys):
        out = []
        for argv in argvs:
            code = main(argv)
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    def test_same_reports_as_fresh_parsers(self, expr_path, capsys, monkeypatch):
        from haargenus import cli

        argvs = [["moment", "--expr", expr_path, "--N", "2"],
                 ["expand", "--expr", expr_path],
                 ["wg", "--n", "4", "--eval", "5"],
                 ["moment", "--expr", expr_path, "--N", "2", "--mode", "float"],
                 ["moment", "--expr", expr_path],
                 ["wg", "--n", "4", "--lambda", "2,1"]]
        assert cli._parser() is cli._parser()
        reused = self._runs(argvs, capsys)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self._runs(argvs, capsys)
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 0, 0, 2, 2]

    def test_bad_flag_still_exits_2(self, expr_path, capsys):
        assert main(["moment", "--expr", expr_path, "--N", "2"]) == 0
        for argv in (["moment", "--expr", expr_path, "--bogus"], ["nosuchcommand"], []):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        capsys.readouterr()
        assert main(["wg", "--n", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 2
