"""The analysis-strategy matrix (docs/analyses.md): size-change
unfolding as a property over the conftest corpus and the pinned 25-seed
corpus."""

import json
import os

import pytest

import repro
from repro.api import SpecOptions
from repro.genext.batch import specialise_many
from repro.genext.engine import specialise
from repro.lang.pretty import pretty_program

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_FILES = sorted(
    os.path.join(CORPUS_DIR, f)
    for f in os.listdir(CORPUS_DIR)
    if f.endswith(".json")
)


def _spec(source, goal, static, **strategies):
    opts = SpecOptions(**strategies)
    gp = repro.compile_genexts(source, opts)
    res = specialise(gp, goal, static, options=opts)
    return res, pretty_program(res.program)


# ---------------------------------------------------------------------------
# Size-change unfolding over the conftest corpus
# ---------------------------------------------------------------------------


def test_conftest_corpus_sizechange_agrees(corpus_case):
    """On every conftest corpus program the size-change residual must
    compute the same values as the default (lub) residual."""
    force = frozenset(corpus_case.get("force_residual", ()))
    lub_res, _ = _spec(
        corpus_case["source"],
        corpus_case["goal"],
        corpus_case["static"],
        force_residual=force,
    )
    sc_res, _ = _spec(
        corpus_case["source"],
        corpus_case["goal"],
        corpus_case["static"],
        force_residual=force,
        unfolding="size-change",
    )
    for vec in corpus_case["dyn_inputs"]:
        assert sc_res.run(*vec) == lub_res.run(*vec)


# ---------------------------------------------------------------------------
# The pinned 25-seed corpus under the strategy matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "corpus_file", CORPUS_FILES, ids=[os.path.basename(p) for p in CORPUS_FILES]
)
def test_pinned_corpus_strategies(corpus_file):
    """Every pinned seed: the size-change residual must compute the
    pinned values and come out byte-identical across batch widths 1
    and 4."""
    with open(corpus_file) as f:
        doc = json.load(f)

    # Size-change: pinned values, and width-independent bytes.
    sc_opts = SpecOptions(unfolding="size-change")
    sc_gp = repro.compile_genexts(doc["source"], sc_opts)
    requests = [
        (doc["goal"], dict(valuation)) for valuation in doc["static_variants"]
    ]
    texts_by_width = {}
    for width in (1, 4):
        batch = specialise_many(sc_gp, requests, sc_opts, jobs=width)
        assert not batch.failures
        texts = []
        for vi, result in enumerate(batch.results):
            texts.append(pretty_program(result.program))
            for vec, want in zip(doc["dyn_inputs"], doc["values"][vi]):
                got = result.run(*vec, fuel=600_000)
                listy = tuple(want) if isinstance(want, list) else want
                assert got == listy
        texts_by_width[width] = texts
    assert texts_by_width[1] == texts_by_width[4]
