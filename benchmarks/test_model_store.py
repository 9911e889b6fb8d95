"""Micro-benchmarks of the subword store: building the subword table,
model save, model load, the subword table file's write and read, and
compose per word and in batch, on a seeded synthetic model.

The model has a subword table built from 3,000 random words over a
10-letter alphabet (tens of thousands of subwords), a random float64
vector of dim 50 for every other subword (so a load also reads subwords
that are only in the table), and a 200-word query batch.  The
suite sits outside the ``testpaths`` of ``pyproject.toml``, so the tier-1
test command never collects it and timing never gates it.  Run it from
the repository root with::

    python -m pytest benchmarks/ --benchmark-only

``test_build_table`` times ``build_table`` on the 3,000-word frequency
list, the work of ``pbos build-subwords`` before it writes the file.
``test_write_subwords`` and ``test_read_subwords`` time the model's table
in the text encoding of ``subwords.tsv``, in memory, beside the binary
encoding that ``test_save`` and ``test_load`` time with the vectors.
``test_compose`` composes the query batch word by word on a fresh model
each round, so every call runs the lattice (cold, as a first occurrence);
``test_compose_repeat`` composes it again on a model that has composed it
once, so every call is a lookup in the model's compose memo; and
``test_compose_many`` composes it as one batch, word by word on the
lattice without the memo.  Divide any of them by 200 for one word.
"""

import io

import numpy as np
import pytest

from pbos.embedding_model import PbosModel, SubwordEmbeddings, TrainConfig
from pbos.io_formats import read_subwords, write_subwords
from pbos.subword_stats import build_table

SEED = 20
DIM = 50
QUERIES = 200


def _words(rng, count, low, high):
    letters = np.array(list("abcdefghij"))
    return ["".join(rng.choice(letters, size=rng.integers(low, high))) for _ in range(count)]


def _freqs(rng):
    return {w: int(rng.integers(1, 100)) for w in _words(rng, 3000, 4, 13)}


@pytest.fixture(scope="module")
def freqs():
    return _freqs(np.random.default_rng(SEED))


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(SEED)
    table = build_table(_freqs(rng))
    subwords = sorted(table.probs)[::2]
    embeddings = SubwordEmbeddings(subwords, rng.standard_normal((len(subwords), DIM)))
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
    assert len(loaded.table) > len(loaded.embeddings.index)


def test_build_table(benchmark, freqs, model):
    table = benchmark(build_table, freqs)
    assert table == model.table


def test_write_subwords(benchmark, model):
    benchmark(lambda: write_subwords(model.table, io.StringIO()))


def test_read_subwords(benchmark, model):
    text = io.StringIO()
    write_subwords(model.table, text)
    table = benchmark(lambda: read_subwords(io.StringIO(text.getvalue())))
    assert table == model.table


@pytest.fixture(scope="module")
def queries():
    return _words(np.random.default_rng(SEED + 1), QUERIES, 3, 25)


def _compose_all(model, queries):
    return [model.compose(w) for w in queries]


def test_compose(benchmark, model, queries):
    def fresh_model():
        return (PbosModel(model.table, model.embeddings, model.config), queries), {}

    vectors = benchmark.pedantic(_compose_all, setup=fresh_model, rounds=50)
    assert len(vectors) == QUERIES


def test_compose_repeat(benchmark, model, queries):
    warm = PbosModel(model.table, model.embeddings, model.config)
    first = _compose_all(warm, queries)
    vectors = benchmark(_compose_all, warm, queries)
    assert all(again is vector for again, vector in zip(vectors, first))


def test_compose_many(benchmark, model, queries):
    vectors = benchmark(model.compose_many, queries)
    assert vectors.shape == (QUERIES, DIM)
