"""Brute-engine verdicts pinned against a golden file.

``tests/data/brute_verdicts.json`` holds the verdict JSON (without
``elapsed_s``) of ``specht_brute`` below the length bound, with and without
an exponent cap, and of ``unitarily_similar(engine="brute")`` at the full
bound, on seeded float and Gaussian-rational pairs at n = 2-4: a unitarily
similar pair (YES), the same pair with one entry bumped (NO), and (B, B^T),
which agrees on every trace of length at most 5 (NO from n = 3 on, and YES
at n = 2, where every matrix is unitarily similar to its transpose).  A NO
certificate pins the first failing word of the stream, so the file checks
the walk's order as well as its traces.  Regenerate it with
``PYTHONPATH=src python tests/test_brute_verdicts.py`` only when a verdict
is meant to change.
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from unieq import (
    GaussianRational,
    Matrix,
    random_unitary,
    specht_brute,
    unitarily_similar,
)

from conftest import exact_unitary, rand_matrix, rat_matrix

GOLDEN = Path(__file__).parent / "data" / "brute_verdicts.json"

# the length specht_brute walks at each n; unitarily_similar walks the full
# bound, 4, 8 and 13
LENGTHS = {2: 3, 3: 6, 4: 9}
CAPS = (None, 1, 2)
MODES = ("float", "exact")


def _bumped(a):
    data = a.data.copy()
    half = 0.5 if a.mode == "float" else GaussianRational(Fraction(1, 2))
    data[0, 1] = data[0, 1] + half
    return Matrix(data, a.mode)


def _pairs(mode, n):
    rng = np.random.default_rng(100 * n + (mode == "exact"))
    if mode == "float":
        u, b = random_unitary(n, rng), rand_matrix(rng, n)
    else:
        u, b = exact_unitary(n), rat_matrix(rng, n)
    a = u @ b @ u.adjoint()
    return {"yes": (a, b), "bumped": (_bumped(a), b), "transpose": (b, b.transpose())}


def golden_cases():
    """``(name, call)`` for every pinned verdict, from fixed seeds."""
    cases = []
    for mode in MODES:
        for n, length in LENGTHS.items():
            for kind, (a, b) in _pairs(mode, n).items():
                name = f"{mode}-n{n}-{kind}"
                for cap in CAPS:
                    cases.append((
                        f"{name}-L{length}-cap{cap}",
                        lambda a=a, b=b, length=length, cap=cap: specht_brute(
                            a, b, length, max_exponent=cap
                        ),
                    ))
                cases.append((
                    f"{name}-similar",
                    lambda a=a, b=b: unitarily_similar(a, b, engine="brute"),
                ))
    return cases


def _verdict_doc(call):
    doc = call().to_json()
    del doc["elapsed_s"]
    return json.loads(json.dumps(doc))


def _assert_same(got, want, where):
    """Equal JSON, with floats equal to 1e-12 relative: a float trace may
    differ in its last digits between BLAS builds."""
    if isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300), where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    else:
        assert got == want, where


class TestGoldenBruteVerdicts:
    def test_verdicts_match_golden_file(self):
        golden = json.loads(GOLDEN.read_text())
        cases = golden_cases()
        assert [name for name, _ in cases] == list(golden)
        for name, call in cases:
            _assert_same(_verdict_doc(call), golden[name], name)

    def test_golden_set_covers_both_answers_and_modes(self):
        golden = json.loads(GOLDEN.read_text())
        for name, doc in golden.items():
            if "-yes-" in name or "-bumped-" in name:
                want = "Equivalent" if "-yes-" in name else "NotEquivalent"
                assert doc["result"] == want, name
            assert doc["engine"] == "brute"
            assert ("tolerance" in doc) == name.startswith("float"), name
        for mode in MODES:
            # a NO of (B, B^T) needs a word of length 6
            assert golden[f"{mode}-n4-transpose-similar"]["certificate"]["word"] == (
                "s^2 t s t^2"
            )
        # the cap changes the first failing word of some NO
        words = {}
        for name, doc in golden.items():
            if doc["certificate"] is not None and "-cap" in name:
                pair = name.rsplit("-cap", 1)[0]
                words.setdefault(pair, set()).add(doc["certificate"]["word"])
        assert any(len(ws) > 1 for ws in words.values())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    docs = {name: _verdict_doc(call) for name, call in golden_cases()}
    GOLDEN.write_text(json.dumps(docs, indent=1) + "\n")
    print(f"wrote {len(docs)} verdicts to {GOLDEN}")
