import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from eadjoint import cli, errors
from eadjoint.cli import main
from eadjoint.invariants import MAX_SIZE, MAX_WORD_LEN, MAX_WORDS, Point, group_action
from eadjoint.linalg import RationalMatrix
from eadjoint.sampling import random_invertible
from eadjoint.verify import MAX_TRIALS
from oracles import fraction_invariants

SRC = str(Path(__file__).resolve().parents[1] / "src")

DIAG_POINT_JSON = {
    "n": 2,
    "p": 1,
    "q": 1,
    "r": 1,
    "A": [[["1", "0"], ["0", "2"]]],
    "B": [["1"], ["1"]],
    "C": [["1", "1"]],
}

R2_POINT_JSON = dict(
    DIAG_POINT_JSON, r=2, A=[DIAG_POINT_JSON["A"][0], [["0", "1"], ["0", "0"]]]
)

R2_WORDS_OUT = (
    '{"gamma":{"":[["2"]],"1":[["3"]],"1,1":[["5"]],"1,1,1":[["9"]],"1,1,2":[["1"]],'
    '"1,2":[["1"]],"1,2,1":[["2"]],"1,2,2":[["0"]],"2":[["1"]],"2,1":[["2"]],'
    '"2,1,1":[["4"]],"2,1,2":[["0"]],"2,2":[["0"]],"2,2,1":[["0"]],"2,2,2":[["0"]]},'
    '"max_len":3,"tau":{"1":"3","1,1":"5","1,1,1":"9","1,1,2":"0","1,2":"0",'
    '"1,2,2":"0","2":"0","2,2":"0","2,2,2":"0"}}\n'
)
R2_RATIONAL_POINT_JSON = {
    "n": 2,
    "p": 1,
    "q": 2,
    "r": 2,
    "A": [[["1/2", "3"], ["-2", "5/3"]], [["0", "1/4"], ["7", "-1"]]],
    "B": [["1/3"], ["2"]],
    "C": [["3/5", "-1"], ["1", "1/2"]],
}
R2_RATIONAL_WORDS_OUT = (
    '{"gamma":{"":[["-9/5"],["4/3"]],"1":[["31/30"],["15/2"]],'
    '"1,1":[["2617/180"],["257/36"]],"1,1,1":[["5279/216"],["-7729/216"]],'
    '"1,1,2":[["3041/1080"],["-503/216"]],"1,2":[["43/36"],["37/36"]],'
    '"1,2,1":[["104/15"],["1859/12"]],"1,2,2":[["221/360"],["871/72"]],'
    '"2":[["-1/30"],["2/3"]],"2,1":[["-401/10"],["251/12"]],'
    '"2,1,1":[["-7799/90"],["2935/72"]],"2,1,2":[["-1667/180"],["323/72"]],'
    '"2,2":[["-187/60"],["5/3"]],"2,2,1":[["5029/120"],["-187/24"]],'
    '"2,2,2":[["367/120"],["-1/2"]]},"max_len":3,"tau":{"1":"13/6",'
    '"1,1":"-323/36","1,1,1":"-7397/216","1,1,2":"1715/36","1,2":"113/6",'
    '"1,2,2":"-361/24","2":"-1","2,2":"9/2","2,2,2":"-25/4"}}\n'
)


def run_cli(capsys, args, stdin_obj=None, monkeypatch=None):
    if stdin_obj is not None:
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin_obj)))
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def run_fresh_process(args, stdin=""):
    """``python -m eadjoint`` in a new process that imports the package from
    this checkout's ``src``, whether or not it is installed."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "eadjoint", *args],
        input=stdin, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


class TestInvariants:
    def test_diag_example(self, capsys, monkeypatch):
        code, out = run_cli(capsys, ["invariants"], DIAG_POINT_JSON, monkeypatch)
        assert code == 0
        assert json.loads(out) == {
            "tau": ["3", "5"],
            "gamma": [[["2"]], [["3"]]],
        }

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "point.json"
        path.write_text(json.dumps(DIAG_POINT_JSON))
        code, out = run_cli(capsys, ["invariants", str(path)])
        assert code == 0
        assert json.loads(out)["tau"] == ["3", "5"]

    def test_words_mode(self, capsys, monkeypatch):
        code, out = run_cli(
            capsys, ["invariants", "--words", "--max-len", "2"],
            DIAG_POINT_JSON, monkeypatch,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["tau"]["1"] == "3"
        assert obj["gamma"][""] == [["2"]]

    def test_r2_auto_words(self, capsys, monkeypatch):
        # stdout at the default max-len 2n - 1 = 3, recorded from the
        # implementation that formed the full product of every word
        for point, expected in (
            (R2_POINT_JSON, R2_WORDS_OUT),
            (R2_RATIONAL_POINT_JSON, R2_RATIONAL_WORDS_OUT),
        ):
            code, out = run_cli(capsys, ["invariants"], point, monkeypatch)
            assert code == 0
            assert out == expected

    def test_malformed_json(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO("{not json"))
        code = main(["invariants"])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["error"] == "malformed_input"

    def test_deeply_nested_json_is_malformed(self, capsys, monkeypatch):
        # 5,000 nested arrays exceed the JSON decoder's recursion limit
        request = '{"n": 2, "B": ' + "[" * 5000 + "]" * 5000 + "}"
        monkeypatch.setattr(sys, "stdin", io.StringIO(request))
        code = main(["classify"])
        out = capsys.readouterr().out
        assert code == 2
        assert json.loads(out) == {
            "error": "malformed_input",
            "detail": "JSON input nested too deeply",
        }
        alone = run_fresh_process(["classify"], request)
        assert (alone.returncode, alone.stdout, alone.stderr) == (2, out, "")

    def test_answers_longer_than_the_int_to_str_limit(self, capsys, monkeypatch):
        # 1000-digit entries are inside the documented bounds, and tr(A^5)
        # has more digits than the interpreter's default int-to-str limit
        nines = "9" * 1000
        point = {
            "A": [[[nines] * 5 for _ in range(5)]],
            "B": [["1"] for _ in range(5)],
            "C": [["1"] * 5],
        }
        expected = fraction_invariants(Point.from_json_obj(point))
        code, out = run_cli(capsys, ["invariants"], point, monkeypatch)
        assert code == 0
        answer = json.loads(out)
        assert len(answer["tau"][-1]) > 4300
        # Decimal prints an int without the int-to-str limit
        assert answer == {
            "tau": [str(Decimal(t)) for t in expected.tau],
            "gamma": [[[str(Decimal(x))] for x in g.entries] for g in expected.gamma],
        }
        alone = run_fresh_process(["invariants"], json.dumps(point))
        assert (alone.returncode, alone.stdout) == (0, out)

    def test_word_count_above_limit_is_a_domain_error(self, capsys, monkeypatch):
        # 2 + 4 + ... + 2^13 words in two letters, and MAX_WORDS + 1 in one
        for point, max_len in ((R2_POINT_JSON, 13), (DIAG_POINT_JSON, MAX_WORDS + 1)):
            code, out = run_cli(
                capsys, ["invariants", "--max-len", str(max_len)], point, monkeypatch
            )
            assert code == 1
            assert json.loads(out)["error"] == "out_of_range"

    def test_word_length_cap(self, capsys, monkeypatch):
        # at r = 1 the words stay few but the output grows with max_len^2,
        # so the length itself is capped at the largest default 2n - 1
        assert MAX_WORD_LEN == 2 * MAX_SIZE - 1 == 63
        point = zero_point_json(MAX_SIZE, 1, 1)
        code, out = run_cli(capsys, ["invariants", "--max-len", "63"], point, monkeypatch)
        assert code == 0
        obj = json.loads(out)
        assert len(obj["tau"]) == len(obj["gamma"]) - 1 == 63
        assert out == run_cli(capsys, ["invariants", "--words"], point, monkeypatch)[1]
        code, out = run_cli(capsys, ["invariants", "--max-len", "64"], point, monkeypatch)
        assert code == 1
        err = json.loads(out)
        assert err["error"] == "out_of_range" and "0..63" in err["detail"]

    def test_negative_max_len_is_a_domain_error(self, capsys, monkeypatch):
        code, out = run_cli(
            capsys, ["invariants", "--max-len", "-1"], DIAG_POINT_JSON, monkeypatch
        )
        assert code == 1
        assert json.loads(out)["error"] == "out_of_range"

    def test_shape_mismatch(self, capsys, monkeypatch):
        bad = dict(DIAG_POINT_JSON)
        bad["B"] = [["1"]]
        code, out = run_cli(capsys, ["invariants"], bad, monkeypatch)
        assert code == 2
        assert json.loads(out)["error"] == "malformed_input"


class TestReconstructAndClassify:
    def test_reconstruct(self, capsys, monkeypatch):
        req = {"t": ["1", "2"], "gamma": [[["2"]], [["3"]]]}
        code, out = run_cli(capsys, ["reconstruct"], req, monkeypatch)
        assert code == 0
        obj = json.loads(out)
        assert obj["A"] == [[["1", "0"], ["0", "2"]]]

    def test_reconstruct_degenerate(self, capsys, monkeypatch):
        req = {"t": ["1", "1"], "gamma": [[["2"]], [["3"]]]}
        code, out = run_cli(capsys, ["reconstruct"], req, monkeypatch)
        assert code == 1
        assert json.loads(out)["error"] == "degenerate_spectrum"

    def test_reconstruct_strict(self, capsys, monkeypatch):
        req = {"t": ["1", "2"], "gamma": [[["0"]], [["0"]]]}
        code, _ = run_cli(capsys, ["reconstruct"], req, monkeypatch)
        assert code == 0
        code, out = run_cli(
            capsys, ["reconstruct", "--strict-rank1"], req, monkeypatch
        )
        assert code == 1
        assert json.loads(out)["error"] == "fiber_condition_violated"

    def test_reconstruct_errors_follow_the_summand_order(self, capsys, monkeypatch):
        # X_1 = 0 and X_2 = I_2 for t = (1, 2), the other way round for
        # t = (2, 1): the first summand that fails decides the error
        gamma = [[["1", "0"], ["0", "1"]], [["2", "0"], ["0", "2"]]]
        rank = "matrix has rank >= 2"
        zero = "rank-one condition violated: zero summand under strict mode"
        for t, strict, detail in (
            (["1", "2"], False, rank),
            (["1", "2"], True, zero),
            (["2", "1"], False, rank),
            (["2", "1"], True, rank),
        ):
            args = ["reconstruct"] + ["--strict-rank1"] * strict
            code, out = run_cli(capsys, args, {"t": t, "gamma": gamma}, monkeypatch)
            assert (code, out) == (1, json.dumps(
                {"detail": detail, "error": "fiber_condition_violated"},
                separators=(",", ":")) + "\n")

    def test_classify_zero_point(self, capsys, monkeypatch):
        zero = {
            "A": [[["0", "0"], ["0", "0"]]],
            "B": [["0"], ["0"]],
            "C": [["0", "0"]],
        }
        code, out = run_cli(capsys, ["classify"], zero, monkeypatch)
        assert code == 0
        assert json.loads(out) == {"in_null_cone": True, "d_min": 0, "d_max": 2}

    def test_decimal_and_exponent_entries_rejected(self, capsys, monkeypatch):
        for bad in ("2.5", "3e2", "1_000"):
            req = {"t": ["1", bad], "gamma": [[["2"]], [["3"]]]}
            code, out = run_cli(capsys, ["reconstruct"], req, monkeypatch)
            assert code == 2
            assert json.loads(out)["error"] == "malformed_input"

    def test_declared_sizes_must_be_json_integers(self, capsys, monkeypatch):
        # the point has n = 2, p = q = r = 1; true == 1 and 2.0 == 2 in
        # Python, so a comparison alone would accept these
        for key, bad in (("n", 2.0), ("p", True), ("q", 1.0), ("r", True), ("r", 1.0)):
            point = dict(DIAG_POINT_JSON, **{key: bad})
            code, out = run_cli(capsys, ["classify"], point, monkeypatch)
            assert (code, json.loads(out)["error"]) == (2, "malformed_input"), (key, bad)
        code, out = run_cli(capsys, ["classify"], DIAG_POINT_JSON, monkeypatch)
        assert code == 0

    def test_t_and_gamma_must_be_lists(self, capsys, monkeypatch):
        # a string or an object t would otherwise be iterated as a spectrum
        for req in (
            {"t": "123", "gamma": [[["1"]], [["2"]], [["3"]]]},
            {"t": {"1": 0, "2": 0}, "gamma": [[["1"]], [["2"]]]},
            {"t": ["1", "2", "3"], "gamma": "123"},
        ):
            code, out = run_cli(capsys, ["reconstruct"], req, monkeypatch)
            assert code == 2
            assert json.loads(out)["error"] == "malformed_input"

    def test_r2_point_is_a_domain_error(self, capsys, monkeypatch):
        for args in (["classify"], ["certify", "--k", "0"]):
            code, out = run_cli(capsys, args, R2_POINT_JSON, monkeypatch)
            assert code == 1
            assert json.loads(out)["error"] == "multiple_adjoint_copies"

    def test_classify_non_null(self, capsys, monkeypatch):
        code, out = run_cli(capsys, ["classify"], DIAG_POINT_JSON, monkeypatch)
        assert code == 0
        assert json.loads(out) == {
            "in_null_cone": False,
            "d_min": None,
            "d_max": None,
        }


class TestCertify:
    NULL_POINT = {
        "A": [[["0", "1"], ["0", "0"]]],
        "B": [["1"], ["0"]],
        "C": [["0", "1"]],
    }

    def test_valid(self, capsys, monkeypatch):
        code, out = run_cli(capsys, ["certify", "--k", "1"], self.NULL_POINT, monkeypatch)
        assert code == 0
        obj = json.loads(out)
        assert obj["k"] == 1
        assert obj["lambda"] == [1, -1]

    def test_not_member(self, capsys, monkeypatch):
        code, out = run_cli(capsys, ["certify", "--k", "0"], self.NULL_POINT, monkeypatch)
        assert code == 1
        assert json.loads(out)["error"] == "not_a_member"

    def test_k_outside_0_to_n_is_a_domain_error(self, capsys, monkeypatch):
        # out of range, not "not a member", on a null and a non-null point alike
        for point in (self.NULL_POINT, DIAG_POINT_JSON):
            for k in ("7", "3", "-1"):
                code, out = run_cli(capsys, ["certify", "--k", k], point, monkeypatch)
                assert code == 1
                err = json.loads(out)
                assert err["error"] == "out_of_range" and "0..2" in err["detail"]

    def test_not_null(self, capsys, monkeypatch):
        code, out = run_cli(capsys, ["certify", "--k", "1"], DIAG_POINT_JSON, monkeypatch)
        assert code == 1
        assert json.loads(out)["error"] == "not_in_null_cone"


class TestDimsAndSample:
    def test_dims_321(self, capsys):
        code, out = run_cli(capsys, ["dims", "--n", "3", "--p", "2", "--q", "1"])
        assert code == 0
        assert json.loads(out) == {
            "component_dims": [9, 10, 11, 12],
            "nullcone_dim": 12,
            "equidimensional": False,
        }

    def test_dims_nonpositive_is_a_domain_error(self, capsys):
        for args in (["--n", "0", "--p", "1", "--q", "1"], ["--n", "2", "--p", "0", "--q", "1"]):
            code, out = run_cli(capsys, ["dims"] + args)
            assert code == 1
            assert json.loads(out)["error"] == "out_of_range"

    def test_sample_deterministic(self, capsys):
        args = ["sample", "--n", "3", "--p", "2", "--q", "1", "--k", "1", "--seed", "7"]
        code1, out1 = run_cli(capsys, args)
        code2, out2 = run_cli(capsys, args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_sample_size_outside_limits_is_a_domain_error(self, capsys):
        too_big = str(MAX_SIZE + 1)
        sizes = ((too_big, "1", "1"), ("2", "1000000000", "1"), ("2", "1", too_big))
        for n, p, q in sizes + (("0", "1", "1"),):
            code, out = run_cli(
                capsys, ["sample", "--n", n, "--p", p, "--q", q, "--k", "0"]
            )
            assert code == 1
            assert json.loads(out)["error"] == "out_of_range"

    def test_sample_k_outside_0_to_n_is_a_domain_error(self, capsys):
        for k in ("5", "-1"):
            code, out = run_cli(
                capsys, ["sample", "--n", "3", "--p", "1", "--q", "1", "--k", k]
            )
            assert code == 1
            assert json.loads(out)["error"] == "out_of_range"

    def test_sample_is_classified(self, capsys):
        code, out = run_cli(
            capsys, ["sample", "--n", "2", "--p", "1", "--q", "1", "--k", "2"]
        )
        assert code == 0
        from eadjoint.invariants import Point
        from eadjoint.nullcone import component_interval

        w = Point.from_json_obj(json.loads(out))
        assert 2 in component_interval(w)


def zero_point_json(n, p, q, entry="0"):
    return {
        "A": [[[entry] * n for _ in range(n)]],
        "B": [[entry] * p for _ in range(n)],
        "C": [[entry] * n for _ in range(q)],
    }


class TestSizeCap:
    """n, p and q above MAX_SIZE are out_of_range on every subcommand,
    before any entry is parsed."""

    TOO_BIG = MAX_SIZE + 1
    SHAPES = ((TOO_BIG, 1, 1), (2, TOO_BIG, 1), (2, 1, TOO_BIG))

    def assert_out_of_range(self, capsys, argv, stdin_obj=None, monkeypatch=None):
        code, out = run_cli(capsys, argv, stdin_obj, monkeypatch)
        assert code == 1
        assert json.loads(out)["error"] == "out_of_range"

    def test_point_commands(self, capsys, monkeypatch):
        for argv in (["invariants"], ["classify"], ["certify", "--k", "0"]):
            for n, p, q in self.SHAPES:
                self.assert_out_of_range(
                    capsys, argv, zero_point_json(n, p, q), monkeypatch
                )
            # a malformed entry is never reached
            self.assert_out_of_range(
                capsys, argv, zero_point_json(self.TOO_BIG, 1, 1, "2.5"), monkeypatch
            )

    def test_adjoint_copies_above_the_cap(self, capsys, monkeypatch):
        argv = ["invariants", "--words", "--max-len", "0"]
        point = zero_point_json(2, 1, 1)
        point["A"] = point["A"] * self.TOO_BIG
        self.assert_out_of_range(capsys, argv, point, monkeypatch)
        # no entry is parsed first: a malformed one is never reached
        point["A"] = [[["2.5"] * 2] * 2] * self.TOO_BIG
        self.assert_out_of_range(capsys, argv, point, monkeypatch)

    def test_adjoint_copies_at_the_cap_answer(self, capsys, monkeypatch):
        point = zero_point_json(2, 1, 1)
        point["A"] = point["A"] * MAX_SIZE
        code, out = run_cli(
            capsys, ["invariants", "--words", "--max-len", "1"], point, monkeypatch
        )
        assert code == 0
        assert len(json.loads(out)["gamma"]) == MAX_SIZE + 1

    def test_reconstruct(self, capsys, monkeypatch):
        big = self.TOO_BIG
        requests = (
            {"t": [str(i) for i in range(1, big + 1)], "gamma": [[["0"]]] * big},
            {"t": ["1", "2"], "gamma": [[["0"]] * big] * 2},
            {"t": ["1", "2"], "gamma": [[["0"] * big]] * 2},
        )
        for req in requests:
            self.assert_out_of_range(capsys, ["reconstruct"], req, monkeypatch)

    def test_dims_and_sample(self, capsys):
        for n, p, q in self.SHAPES:
            sizes = ["--n", str(n), "--p", str(p), "--q", str(q)]
            self.assert_out_of_range(capsys, ["dims"] + sizes)
            self.assert_out_of_range(capsys, ["sample", "--k", "0"] + sizes)

    def test_dims_at_the_cap_answers(self, capsys):
        code, out = run_cli(capsys, ["dims", "--n", "32", "--p", "32", "--q", "32"])
        assert code == 0
        assert json.loads(out)["component_dims"] == [32 * 32 - 32 + 32 * 32] * 33


# SHA-256 of the stdout of sample, classify and certify (every k of the
# interval) over n <= 4, p, q <= 2, every k and seeds 0-2, in that order,
# recorded from the implementation that built the flag from the kernels of
# the powers of A
GOLDEN_PIPELINE_SHA256 = (
    "ac2c84229c1d856f4465ec2cdcfd7497620bf3d98e9730fbbed7063acee77d80"
)


def test_sample_classify_certify_output_is_byte_identical(capsys, monkeypatch):
    def run(args, stdin=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = main(args)
        out = capsys.readouterr().out
        assert code == 0, out
        return out

    digest = hashlib.sha256()
    for n in range(1, 5):
        for p in (1, 2):
            for q in (1, 2):
                for k in range(n + 1):
                    for seed in range(3):
                        dims = ["--n", str(n), "--p", str(p), "--q", str(q)]
                        point = run(["sample", *dims, "--k", str(k), "--seed", str(seed)])
                        interval = run(["classify"], point)
                        outs = [point, interval]
                        iv = json.loads(interval)
                        for kk in range(iv["d_min"], iv["d_max"] + 1):
                            outs.append(run(["certify", "--k", str(kk)], point))
                        digest.update("".join(outs).encode())
    assert digest.hexdigest() == GOLDEN_PIPELINE_SHA256


# SHA-256 of the stdout of classify and certify (every k of the interval) on
# the first 40 points of ``wide_interval_points(61)`` with d_max > d_min, in
# that order, recorded from the implementation that grew F with Subspace
# preimages, intersections and sums
GOLDEN_WIDE_INTERVAL_SHA256 = (
    "c743a4574ff10f3c4ed7f04e9375b6a2a2e810d9608cfc66a81dd23da39acd0c"
)


def wide_interval_points(seed):
    """Sparse U_k points (many zero entries, so often d_max > d_min) as JSON
    text; every other one moved by a random invertible g."""
    rng = random.Random(seed)
    for trial in itertools.count():
        n = rng.randint(2, 5)
        p, q, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, n)

        def pick():
            return rng.choice((0, 0, 0, 1, -1, 2))

        rm = RationalMatrix.from_rows
        w = Point(
            rm([[pick() if i < k else 0 for _ in range(p)] for i in range(n)]),
            rm([[pick() if j >= k else 0 for j in range(n)] for _ in range(q)]),
            (rm([[pick() if j > i else 0 for j in range(n)] for i in range(n)]),),
        )
        if trial % 2:
            w = group_action(random_invertible(rng, n), w)
        yield trial % 2, json.dumps(w.to_json_obj())


def test_classify_certify_on_wide_intervals_is_byte_identical(capsys, monkeypatch):
    def run(args, stdin):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = main(args)
        out = capsys.readouterr().out
        assert code == 0, out
        return out

    digest = hashlib.sha256()
    wide = moved = certs = 0
    for was_moved, point in wide_interval_points(61):
        interval = run(["classify"], point)
        iv = json.loads(interval)
        if iv["d_max"] == iv["d_min"]:
            continue
        outs = [interval]
        for kk in range(iv["d_min"], iv["d_max"] + 1):
            outs.append(run(["certify", "--k", str(kk)], point))
            certs += 1
        digest.update("".join(outs).encode())
        wide += 1
        moved += was_moved
        if wide == 40:
            break
    assert moved >= 10 and certs >= 100
    assert digest.hexdigest() == GOLDEN_WIDE_INTERVAL_SHA256


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        code, out = run_cli(capsys, ["verify", "--suite", "sl-relation", "--trials", "10", "--seed", "7"])
        assert code == 0
        obj = json.loads(out)
        assert obj["suite"] == "sl-relation"
        assert obj["passes"] == obj["cells_run"] == 4
        assert obj["failures"] == []
        assert "wall_time_s" not in obj

    def test_byte_identical_reruns(self, capsys):
        args = ["verify", "--suite", "psi", "--trials", "3", "--seed", "11"]
        _, out1 = run_cli(capsys, args)
        _, out2 = run_cli(capsys, args)
        assert out1 == out2

    def test_all_suites_smoke(self, capsys):
        code, out = run_cli(
            capsys,
            ["verify", "--suite", "all", "--trials", "2", "--seed", "3", "--jobs", "2"],
        )
        assert code == 0
        reports = json.loads(out)
        assert [r["suite"] for r in reports] == [
            "invariance",
            "jacobian",
            "stabilizer",
            "nullcone",
            "classifier",
            "certificates",
            "reconstruction",
            "sl-relation",
            "psi",
        ]
        assert all(r["failures"] == [] for r in reports)

    def test_trials_below_one_is_a_domain_error(self, capsys):
        for trials in ("-1", "0"):
            code, out = run_cli(capsys, ["verify", "--suite", "sl-relation", "--trials", trials])
            assert code == 1
            assert json.loads(out)["error"] == "out_of_range"

    def test_trials_above_cap_is_a_domain_error(self, capsys):
        code, out = run_cli(
            capsys, ["verify", "--suite", "sl-relation", "--trials", str(MAX_TRIALS + 1)]
        )
        assert code == 1
        err = json.loads(out)
        assert err["error"] == "out_of_range"
        assert str(MAX_TRIALS) in err["detail"]

    def test_trials_cap_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert f"1..{MAX_TRIALS}" in capsys.readouterr().out

    def test_jobs_below_one_is_a_domain_error(self, capsys):
        code, out = run_cli(
            capsys, ["verify", "--suite", "sl-relation", "--trials", "1", "--jobs", "0"]
        )
        assert code == 1
        assert json.loads(out)["error"] == "out_of_range"

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "bogus"])


@pytest.mark.parametrize("error, code, status", [
    (errors.ShapeError, "malformed_input", 2),
    (errors.SingularMatrixError, "malformed_input", 2),
    (errors.MultipleCopiesError, "multiple_adjoint_copies", 1),
    (errors.DegenerateSpectrumError, "degenerate_spectrum", 1),
    (errors.FiberConditionError, "fiber_condition_violated", 1),
    (errors.NotInNullConeError, "not_in_null_cone", 1),
    (errors.NotAMemberError, "not_a_member", 1),
    (errors.OutOfRangeError, "out_of_range", 1),
    (ValueError, "malformed_input", 2),
    (FileNotFoundError, "malformed_input", 2),
])
def test_every_error_class_reports_its_code(capsys, monkeypatch, error, code, status):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "_cmd_dims", fail)
    assert run_cli(capsys, ["dims", "--n", "1", "--p", "1", "--q", "1"]) == (
        status, json.dumps({"detail": "boom", "error": code}, separators=(",", ":")) + "\n")


def test_in_process_requests_answer_like_a_fresh_process(capsys, monkeypatch):
    # a request argparse rejects must leave nothing behind in the process
    # that changes the answer to a later request
    requests = [
        (["certify", "--k", "one"], DIAG_POINT_JSON),
        (["invariants", "--words", "--max-len", "2"], R2_POINT_JSON),
        (["dims", "--n", "3", "--p", "2", "--q", "1"], None),
    ]
    codes = []
    for args, stdin_obj in requests:
        stdin = json.dumps(stdin_obj) if stdin_obj is not None else ""
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        alone = run_fresh_process(args, stdin)
        assert (code, captured.out, captured.err) == (
            alone.returncode, alone.stdout, alone.stderr)
        codes.append(code)
    assert codes == [2, 0, 0]


def test_module_entry_point():
    proc = run_fresh_process(["dims", "--n", "2", "--p", "1", "--q", "1"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "component_dims": [4, 4, 4],
        "nullcone_dim": 4,
        "equidimensional": True,
    }
