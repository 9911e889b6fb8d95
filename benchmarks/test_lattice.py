"""Micro-benchmarks of the segmentation lattice: ``subword_weights`` over
a seeded batch of long compounds, and ``weight_matrix`` over those
compounds plus 1,000 seeded short words.

The table is built from 3,000 random words of 4-12 letters over a
10-letter alphabet; the batch holds 100 compounds of 40-130 characters
made by joining such words.  The lattice stops each start at the first
span that begins no key, so long words cost far less than their n^2/2
spans.  ``test_weights_counted_table`` runs against the ``build_table``
table, which is prefix-closed and serves as its own ``stems``;
``test_weights_table_without_prefixes`` drops the two-character keys, so
``stems`` is the frozenset of key prefixes.  Both tables are used once
before timing, so the cached ``stems`` is not timed.  The suite sits
outside the ``testpaths`` of ``pyproject.toml``, so the tier-1 test
command never collects it and timing never gates it.  Run it from the
repository root with::

    python -m pytest benchmarks/ --benchmark-only

Each ``subword_weights`` test times the whole batch; divide by 100 for
one word.  ``test_weight_matrix_counted_table`` times one batch of 1,100
words, which ``weight_matrix`` passes in arrays (``lattice.weight_rows``),
with the columns found as ``train`` finds them (``extend``);
``test_weight_matrix_known_columns`` times the same batch against the
columns that pass found, without ``extend``, as ``predict`` reads a
model's columns.  ``test_weight_matrix_one_word`` times the same 1,100
words against those columns as 1,100 one-word batches, the route
``PbosModel.compose`` takes for a word it has not memoized: the scalar
pass (``composition_weights``) and ``lattice.csr_rows``; divide by 1,100
for one call.  ``test_weight_matrix_with_fallback_words`` adds 20
words of 150-300 characters over letters the table lacks: every span of
such a word has probability ``prob_eps``, so its path sums fall to or
below the least normal float, and ``weight_rows`` gives it the weights
of the scaled one-word pass.
"""

import numpy as np
import pytest

from pbos.embedding_model import TrainConfig, weight_matrix
from pbos.lattice import subword_weights
from pbos.subword_stats import SubwordTable, build_table

SEED = 30
COMPOUNDS = 100
SHORT_WORDS = 1000
FALLBACK_WORDS = 20
LETTERS = np.array(list("abcdefghij"))
ABSENT = np.array(list("klmnop"))


def _word(rng, low, high):
    return "".join(rng.choice(LETTERS, size=rng.integers(low, high)))


@pytest.fixture(scope="module")
def counted():
    rng = np.random.default_rng(SEED)
    table = build_table({_word(rng, 4, 13): int(rng.integers(1, 100)) for _ in range(3000)})
    assert table.stems is table.probs
    return table


@pytest.fixture(scope="module")
def without_prefixes(counted):
    table = SubwordTable(
        {key: prob for key, prob in counted.probs.items() if len(key) != 2},
        prob_eps=counted.prob_eps,
    )
    assert table.stems is not table.probs
    return table


@pytest.fixture(scope="module")
def compounds():
    rng = np.random.default_rng(SEED + 1)
    words = []
    while len(words) < COMPOUNDS:
        length = int(rng.integers(40, 131))
        word = ""
        while len(word) < length:
            word += _word(rng, 4, 13)
        words.append(word[:length])
    return words


def _batch(table, words):
    return [subword_weights(word, table) for word in words]


def test_weights_counted_table(benchmark, counted, compounds):
    weights = benchmark(_batch, counted, compounds)
    assert len(weights) == COMPOUNDS


def test_weights_table_without_prefixes(benchmark, without_prefixes, compounds):
    weights = benchmark(_batch, without_prefixes, compounds)
    assert len(weights) == COMPOUNDS


@pytest.fixture(scope="module")
def mixed(compounds):
    rng = np.random.default_rng(SEED + 2)
    return compounds + [_word(rng, 4, 13) for _ in range(SHORT_WORDS)]


def _matrix(table, words):
    return weight_matrix(words, table, TrainConfig(), {}, extend=True)


def test_weight_matrix_counted_table(benchmark, counted, mixed):
    indptr, _, _ = benchmark(_matrix, counted, mixed)
    assert len(indptr) == COMPOUNDS + SHORT_WORDS + 1


def test_weight_matrix_known_columns(benchmark, counted, mixed):
    columns: dict[str, int] = {}
    found = weight_matrix(mixed, counted, TrainConfig(), columns, extend=True)
    arrays = benchmark(weight_matrix, mixed, counted, TrainConfig(), columns)
    assert all(array.tobytes() == want.tobytes() for array, want in zip(arrays, found))


def _one_word_batches(table, config, words, columns):
    return [weight_matrix([word], table, config, columns) for word in words]


def test_weight_matrix_one_word(benchmark, counted, mixed):
    columns: dict[str, int] = {}
    found = weight_matrix(mixed, counted, TrainConfig(), columns, extend=True)
    rows = benchmark(_one_word_batches, counted, TrainConfig(), mixed, columns)
    assert len(rows) == COMPOUNDS + SHORT_WORDS
    for part, want in zip(([row[1] for row in rows], [row[2] for row in rows]), found[1:]):
        assert np.concatenate(part).tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def with_fallback(mixed):
    rng = np.random.default_rng(SEED + 3)
    return mixed + ["".join(rng.choice(ABSENT, size=rng.integers(150, 301))) for _ in range(FALLBACK_WORDS)]


def test_weight_matrix_with_fallback_words(benchmark, counted, with_fallback):
    indptr, _, _ = benchmark(_matrix, counted, with_fallback)
    assert len(indptr) == COMPOUNDS + SHORT_WORDS + FALLBACK_WORDS + 1
