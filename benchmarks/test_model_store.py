"""Micro-benchmarks of the subword store: model save, model load and
per-word compose, on a seeded synthetic model.

The model has a subword table built from 3,000 random words over a
10-letter alphabet (tens of thousands of subwords), a random float64
vector of dim 50 for every subword, and a 200-word query batch.  The
suite sits outside the ``testpaths`` of ``pyproject.toml``, so the tier-1
test command never collects it and timing never gates it.  Run it from
the repository root with::

    python -m pytest benchmarks/ --benchmark-only

``test_compose`` times the whole batch; divide by 200 for one word.
"""

import numpy as np
import pytest

from pbos.embedding_model import PbosModel, SubwordEmbeddings, TrainConfig
from pbos.subword_stats import build_table

SEED = 20
DIM = 50
QUERIES = 200


def _words(rng, count, low, high):
    letters = np.array(list("abcdefghij"))
    return ["".join(rng.choice(letters, size=rng.integers(low, high))) for _ in range(count)]


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(SEED)
    table = build_table({w: int(rng.integers(1, 100)) for w in _words(rng, 3000, 4, 13)})
    subwords = sorted(table.probs)
    embeddings = SubwordEmbeddings(
        DIM, matrix=rng.standard_normal((len(subwords), DIM)), subwords=subwords
    )
    return PbosModel(table=table, embeddings=embeddings, config=TrainConfig())


@pytest.fixture(scope="module")
def saved(model, tmp_path_factory):
    directory = tmp_path_factory.mktemp("model")
    model.save(directory)
    return directory


def test_save(benchmark, model, tmp_path):
    benchmark(model.save, tmp_path)


def test_load(benchmark, saved):
    loaded = benchmark(PbosModel.load, saved)
    assert len(loaded.embeddings.index) > 10_000


def test_compose(benchmark, model):
    queries = _words(np.random.default_rng(SEED + 1), QUERIES, 3, 25)
    vectors = benchmark(lambda: [model.compose(w) for w in queries])
    assert len(vectors) == QUERIES
