"""Micro-benchmarks of the segmentation lattice: ``subword_weights`` over
a seeded batch of long compounds.

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

Each test times the whole batch; divide by 100 for one word.
"""

import numpy as np
import pytest

from pbos.lattice import subword_weights
from pbos.subword_stats import SubwordTable, build_table

SEED = 30
COMPOUNDS = 100
LETTERS = np.array(list("abcdefghij"))


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
    return [subword_weights(word, table).weights for word in words]


def test_weights_counted_table(benchmark, counted, compounds):
    weights = benchmark(_batch, counted, compounds)
    assert len(weights) == COMPOUNDS


def test_weights_table_without_prefixes(benchmark, without_prefixes, compounds):
    weights = benchmark(_batch, without_prefixes, compounds)
    assert len(weights) == COMPOUNDS
