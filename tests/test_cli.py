import contextlib
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from unieq import ProblemInstance, engines, iter_word_traces, make_yes_instance
from unieq.engines import BudgetExceededError
from unieq.cli import main
from unieq.fileio import (
    InstanceFormatError,
    instance_doc,
    load_instance,
    load_pair,
    matrix_doc,
    parse_instance_doc,
    save_instance,
    save_matrix,
)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(path, doc):
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


JORDAN_PAIR = {
    "mode": "float",
    "A": [
        [{"re": 0, "im": 0}, {"re": 1, "im": 0}],
        [{"re": 0, "im": 0}, {"re": 0, "im": 0}],
    ],
    "B": [
        [{"re": 0, "im": 0}, {"re": 2, "im": 0}],
        [{"re": 0, "im": 0}, {"re": 0, "im": 0}],
    ],
}


def scalar_instance(a_re, b_re, family="S2"):
    return {
        "mode": "float",
        "n": 1,
        family: [
            {"A": [[{"re": a_re, "im": 0}]], "B": [[{"re": b_re, "im": 0}]]}
        ],
    }


class TestDecide:
    def test_yes_roundtrip(self, tmp_path, capsys):
        gen = make_yes_instance(2, 1, 1, 0, 0, seed=5)
        path = tmp_path / "inst.json"
        save_instance(gen.inst, path)
        code, out, _ = run(capsys, ["decide", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] == "Equivalent"
        assert list(doc) == sorted(doc)

    def test_scalar_congruence_not_equivalent(self, tmp_path, capsys):
        path = tmp_path / "s2.json"
        write_json(path, scalar_instance(1.0, 2.0))
        code, out, _ = run(capsys, ["decide", str(path)])
        assert code == 1
        doc = json.loads(out)
        assert doc["result"] == "NotEquivalent"
        assert doc["certificate"] is not None

    def test_shape_mismatch_exit_2(self, tmp_path, capsys):
        doc = scalar_instance(1.0, 2.0)
        doc["S2"][0]["B"] = [
            [{"re": 1, "im": 0}, {"re": 0, "im": 0}],
            [{"re": 0, "im": 0}, {"re": 1, "im": 0}],
        ]
        path = tmp_path / "bad.json"
        write_json(path, doc)
        code, _, err = run(capsys, ["decide", str(path)])
        assert code == 2
        assert "S2[0].B" in err

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        doc = scalar_instance(1.0, 2.0)
        doc["S9"] = []
        path = tmp_path / "bad.json"
        write_json(path, doc)
        code, _, err = run(capsys, ["decide", str(path)])
        assert code == 2 and "S9" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, ["decide", "/nonexistent/inst.json"])
        assert code == 2

    def test_budget_exit_3(self, tmp_path, capsys):
        gen = make_yes_instance(2, 1, 0, 0, 0, seed=5)
        path = tmp_path / "inst.json"
        save_instance(gen.inst, path)
        code, _, err = run(
            capsys,
            ["decide", str(path), "--engine", "brute", "--max-length", "24",
             "--budget", "1000"],
        )
        assert code == 3 and "budget" in err

    def test_brute_length_zero_exit_2(self, tmp_path, capsys):
        path = tmp_path / "no.json"
        write_json(path, scalar_instance(1.0, 2.0))
        code, out, err = run(capsys, ["decide", str(path)])
        assert code == 1
        code, out, err = run(
            capsys, ["decide", str(path), "--engine", "brute", "--max-length", "0"]
        )
        assert code == 2 and out == "" and "max_length" in err

    @pytest.mark.parametrize(
        "exc,code,message",
        [
            (RuntimeError("span exceeded ambient dimension"), 4,
             "internal error: RuntimeError: span exceeded ambient dimension"),
            (BudgetExceededError("needs 5 words, budget is 1"), 3,
             "error: needs 5 words, budget is 1"),
        ],
    )
    def test_engine_exception_exit_code(
        self, tmp_path, capsys, monkeypatch, exc, code, message
    ):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(engines, "solve_general", fail)
        path = tmp_path / "inst.json"
        write_json(path, scalar_instance(1, 1))
        got, out, err = run(capsys, ["decide", str(path)])
        assert got == code
        assert out == ""
        assert err.rstrip().splitlines()[-1] == message

    def test_exact_instance_no_tolerance(self, tmp_path, capsys):
        doc = {
            "mode": "exact",
            "n": 1,
            "S2": [
                {"A": [[{"re": "-1", "im": "0"}]], "B": [[{"re": "1", "im": "0"}]]}
            ],
        }
        path = tmp_path / "exact.json"
        write_json(path, doc)
        code, out, _ = run(capsys, ["decide", str(path)])
        assert code == 0
        assert "tolerance" not in json.loads(out)


    @pytest.mark.parametrize("size", [1e200, 1e-200])
    @pytest.mark.parametrize("family", ["S1", "S2"])
    def test_out_of_range_magnitudes_not_equivalent(self, tmp_path, capsys, size, family):
        # the squares of these entries overflow or underflow: a norm of inf
        # would scale every matrix to 0, and a norm of 0 would leave the
        # decision to compare them at a tolerance far above their size
        def entry(z):
            return {"re": z, "im": 0}

        b = [[2 * size, 0], [0, 0]] if family == "S1" else [[0, 2 * size], [0, 0]]
        pair = {
            "A": [[entry(size), entry(0)], [entry(0), entry(0)]],
            "B": [[entry(z) for z in row] for row in b],
        }
        path, wit = tmp_path / "range.json", tmp_path / "eye.json"
        write_json(path, {"mode": "float", "n": 2, family: [pair]})
        write_json(wit, {"mode": "float", "matrix": [[entry(1), entry(0)], [entry(0), entry(1)]]})
        code, out, _ = run(capsys, ["decide", str(path)])
        assert code == 1
        assert json.loads(out)["result"] == "NotEquivalent"
        # verify scales the instance as decide does, so it refuses I too
        code, out, _ = run(capsys, ["verify", str(path), str(wit)])
        assert code == 1 and json.loads(out)["verified"] is False


class TestBound:
    @pytest.mark.parametrize(
        "m,value,floor", [(8, 36.44, 36), (12, 65.69, 65), (2, 4.74, 4)]
    )
    def test_values(self, capsys, m, value, floor):
        code, out, _ = run(capsys, ["bound", str(m)])
        assert code == 0
        doc = json.loads(out)
        assert doc["bound"] == pytest.approx(value, abs=0.01)
        assert doc["floor"] == floor

    def test_rejects_small_m(self, capsys):
        code, _, err = run(capsys, ["bound", "1"])
        assert code == 2


class TestGadgetCmd:
    def test_similarity_scalar(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        write_json(path, scalar_instance(2.0, 3.0, family="S1"))
        code, out, _ = run(capsys, ["gadget", str(path), "--which", "similarity"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["A"]) == 3
        assert doc["A"][0][2]["re"] == 2.0

    def test_k_from_matrix_file(self, tmp_path, capsys):
        path = tmp_path / "mat.json"
        write_json(
            path,
            {
                "mode": "float",
                "matrix": [
                    [{"re": 0, "im": 0}, {"re": 1, "im": 0}],
                    [{"re": 0, "im": 0}, {"re": 0, "im": 0}],
                ],
            },
        )
        code, out, _ = run(capsys, ["gadget", str(path), "--which", "K"])
        assert code == 0
        assert len(json.loads(out)["K"]) == 8

    def test_general_layout_echoes_parity(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        write_json(path, scalar_instance(1.0, 2.0))
        code, out, _ = run(capsys, ["gadget", str(path), "--which", "general"])
        assert code == 0
        layout = json.loads(out)["layout"]
        assert layout["k"] == 3
        assert layout["placements"][0]["parity"] == ["odd", "odd"]

    def test_similarity_rejects_other_families(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        write_json(path, scalar_instance(1.0, 2.0))
        code, _, err = run(capsys, ["gadget", str(path), "--which", "similarity"])
        assert code == 2


# the pair (E12, 2 E12) in exact mode
EXACT_PAIR = {
    "mode": "exact",
    "A": [
        [{"re": "0", "im": "0"}, {"re": "1", "im": "0"}],
        [{"re": "0", "im": "0"}, {"re": "0", "im": "0"}],
    ],
    "B": [
        [{"re": "0", "im": "0"}, {"re": "2", "im": "0"}],
        [{"re": "0", "im": "0"}, {"re": "0", "im": "0"}],
    ],
}


class TestWordsCmd:
    def test_jordan_pair_mismatch_row(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        write_json(path, JORDAN_PAIR)
        code, out, _ = run(capsys, ["words", str(path), "--max-length", "2"])
        assert code == 0
        rows = {r["word"]: r for r in json.loads(out)["rows"]}
        st_row = rows["s t"]
        assert st_row["match"] is False
        assert st_row["trace_a"] == [1.0, 0.0]
        assert st_row["trace_b"] == [4.0, 0.0]
        assert rows["s"]["match"] is True

    def test_exponent_zero_exit_2(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        write_json(path, JORDAN_PAIR)
        argv = ["words", str(path), "--max-length", "3", "--max-exponent", "0"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert "max_exponent must be positive" in err

    def test_over_budget_exit_3(self, tmp_path, capsys):
        # 2**41 - 2 words: refused before the walk, with _brute's message
        path = tmp_path / "pair.json"
        write_json(path, JORDAN_PAIR)
        code, out, err = run(capsys, ["words", str(path), "--max-length", "40"])
        assert code == 3 and out == ""
        budget = engines.DEFAULT_BUDGET
        assert err == (
            f"error: brute enumeration needs {2**41 - 2} words, budget is {budget}\n"
        )

    @pytest.mark.parametrize("dedup", ["none", "cyclic", "cyclic+star_reversal"])
    @pytest.mark.parametrize("pair", [JORDAN_PAIR, EXACT_PAIR], ids=["float", "exact"])
    @pytest.mark.parametrize("length", [0, 3])
    def test_streamed_table_is_one_dump(self, tmp_path, capsys, pair, dedup, length):
        """The rows go out as the walk yields them, in the bytes of one
        key-sorted, indented dump of the whole table."""
        path = tmp_path / "pair.json"
        write_json(path, pair)
        argv = ["words", str(path), "--max-length", str(length), "--dedup", dedup]
        code, out, _ = run(capsys, argv)
        a, b = load_pair(path)
        stream = iter_word_traces([[a, a.adjoint()], [b, b.adjoint()]], length, None, dedup)
        rows = [
            {
                "word": str(word),
                "trace_a": engines._scalar_json(ta),
                "trace_b": engines._scalar_json(tb),
                "match": bool(engines._close(ta, tb, engines.DEFAULT_TOL)),
            }
            for word, (ta, tb) in stream
        ]
        assert code == 0 and bool(rows) == (length > 0)
        doc = {"max_length": length, "rows": rows}
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_table_memory_does_not_grow_with_its_rows(self, tmp_path):
        """32,766 rows: the walk holds O(length) stacked levels, and no row
        is kept once written (built as one document, the table peaks near
        59 MB)."""
        path = tmp_path / "pair.json"
        write_json(path, JORDAN_PAIR)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = main(["words", str(path), "--max-length", "14"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0 and peak < 20e6, peak

    def test_budget_counts_capped_words(self, tmp_path, capsys):
        # with runs capped at 1 only the 80 alternating strings remain
        path = tmp_path / "pair.json"
        write_json(path, JORDAN_PAIR)
        argv = ["words", str(path), "--max-length", "40", "--max-exponent", "1"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert len(json.loads(out)["rows"]) == 80


class TestGenAndVerify:
    def test_gen_deterministic(self, tmp_path, capsys):
        args = [
            "gen", "--n", "2", "--m1", "1", "--seed", "5",
            "--out", str(tmp_path / "a.json"),
            "--witness-out", str(tmp_path / "aw.json"),
        ]
        code, _, _ = run(capsys, args)
        assert code == 0
        args2 = [
            "gen", "--n", "2", "--m1", "1", "--seed", "5",
            "--out", str(tmp_path / "b.json"),
            "--witness-out", str(tmp_path / "bw.json"),
        ]
        run(capsys, args2)
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()
        assert (tmp_path / "aw.json").read_text() == (tmp_path / "bw.json").read_text()

    def test_gen_then_verify_and_decide(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        wit = tmp_path / "wit.json"
        code, _, _ = run(
            capsys,
            ["gen", "--n", "2", "--m1", "1", "--m2", "1", "--seed", "8",
             "--out", str(inst), "--witness-out", str(wit)],
        )
        assert code == 0
        code, out, _ = run(capsys, ["verify", str(inst), str(wit)])
        assert code == 0 and json.loads(out)["verified"] is True
        code, _, _ = run(capsys, ["decide", str(inst)])
        assert code == 0

    def test_wrong_witness_exit_1(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        wit = tmp_path / "wit.json"
        run(
            capsys,
            ["gen", "--n", "2", "--m2", "1", "--seed", "9",
             "--out", str(inst), "--witness-out", str(wit)],
        )
        from unieq import random_unitary

        save_matrix(random_unitary(2, 12345), wit)
        code, out, _ = run(capsys, ["verify", str(inst), str(wit)])
        assert code == 1 and json.loads(out)["verified"] is False

    def test_perturbed_gen_decides_not_equivalent(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        wit = tmp_path / "wit.json"
        code, out, _ = run(
            capsys,
            ["gen", "--n", "2", "--m2", "1", "--seed", "11", "--perturb", "0.1",
             "--out", str(inst), "--witness-out", str(wit)],
        )
        assert json.loads(out)["label"] == "NO-perturbed"
        code, _, _ = run(capsys, ["decide", str(inst)])
        assert code == 1


@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), -float("inf"), 10**400],
    ids=["nan", "inf", "-inf", "huge-int"],
)
def test_non_finite_entry_exit_2(tmp_path, capsys, value):
    gen = make_yes_instance(2, 1, 0, 0, 0, seed=3)
    inst, wit = tmp_path / "inst.json", tmp_path / "wit.json"
    good_inst, good_wit = instance_doc(gen.inst), matrix_doc(gen.witness)
    bad_inst, bad_wit = instance_doc(gen.inst), matrix_doc(gen.witness)
    bad_inst["S1"][0]["A"][1][0]["re"] = value  # written as JSON NaN, Infinity
    bad_wit["matrix"][1][0]["im"] = value
    for command, inst_doc, wit_doc in (
        ("decide", bad_inst, good_wit),
        ("verify", bad_inst, good_wit),
        ("verify", good_inst, bad_wit),
    ):
        write_json(inst, inst_doc)
        write_json(wit, wit_doc)
        argv = [command, str(inst)] + ([str(wit)] if command == "verify" else [])
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "", (command, inst_doc is bad_inst)
        assert "not a finite number" in err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_tolerance_not_finite_positive_exit_2(tmp_path, capsys, tol):
    gen = make_yes_instance(3, 1, 1, 1, 1, seed=3)
    inst, wit, pair = tmp_path / "inst.json", tmp_path / "wit.json", tmp_path / "pair.json"
    save_instance(gen.inst, inst)
    save_matrix(gen.witness, wit)
    write_json(pair, JORDAN_PAIR)
    for argv in (
        ["decide", str(inst)],
        ["verify", str(inst), str(wit)],
        ["words", str(pair), "--max-length", "2"],
    ):
        code, out, err = run(capsys, argv + ["--tol", tol])
        assert code == 2 and out == ""
        assert "tol must be a finite positive number" in err


class TestFileFormat:
    def test_roundtrip_identity(self, tmp_path):
        gen = make_yes_instance(2, 1, 0, 1, 0, seed=13)
        doc = instance_doc(gen.inst)
        inst2 = parse_instance_doc(json.loads(json.dumps(doc)))
        doc2 = instance_doc(inst2)
        assert doc == doc2

    def test_exact_roundtrip(self, rng):
        from conftest import rat_matrix

        a, b = rat_matrix(rng, 2), rat_matrix(rng, 2)
        inst = ProblemInstance(2, S3=[(a, b)])
        doc = instance_doc(inst)
        inst2 = parse_instance_doc(json.loads(json.dumps(doc)))
        assert instance_doc(inst2) == doc
        a2 = inst2.S3[0][0]
        assert a2 == a

    def test_float_mode_rejects_strings(self):
        doc = scalar_instance(1.0, 2.0)
        doc["S2"][0]["A"][0][0]["re"] = "1/2"
        with pytest.raises(InstanceFormatError):
            parse_instance_doc(doc)

    def test_exact_mode_rejects_numbers(self):
        doc = {
            "mode": "exact",
            "n": 1,
            "S1": [{"A": [[{"re": 0.5, "im": "0"}]], "B": [[{"re": "1", "im": "0"}]]}],
        }
        with pytest.raises(InstanceFormatError):
            parse_instance_doc(doc)

    def test_entry_keys_strict(self):
        doc = scalar_instance(1.0, 2.0)
        doc["S2"][0]["A"][0][0]["imag"] = 0
        with pytest.raises(InstanceFormatError):
            parse_instance_doc(doc)

    def test_bool_is_not_a_number(self):
        doc = scalar_instance(1.0, 2.0)
        doc["S2"][0]["A"][0][0]["re"] = True
        with pytest.raises(InstanceFormatError):
            parse_instance_doc(doc)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "unieq.cli", "bound", "8"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["floor"] == 36
