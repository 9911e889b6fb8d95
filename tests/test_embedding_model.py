import copy
import gc
import io
import itertools
import json
import math
import pickle
import re
import sys
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbos import cli, embedding_model, lattice
from pbos.embedding_model import (
    BOUNDARY_END,
    BOUNDARY_START,
    PbosModel,
    SubwordEmbeddings,
    TrainConfig,
    Variant,
    bos_subword_counts,
    composition_weights,
    gradient_check,
    loss,
    train,
    weight_matrix,
)
from pbos.io_formats import TargetEmbeddings, read_subwords
from pbos.subword_stats import ReadOnlyDict, SubwordTable, build_table

UNIT = SubwordTable({"a": 1.0, "b": 1.0, "ab": 1.0})


def _matrix(vectors, dim):
    return np.array(list(vectors.values()), dtype=np.float64).reshape(len(vectors), dim)


def target_store(dim, entries):
    """The targets of a word -> vector mapping, built as (names, matrix)."""
    return TargetEmbeddings(list(entries), _matrix(entries, dim))


def make_model(table, dim=2, variant=Variant.PBOS, vectors=None, **kwargs):
    vectors = dict(vectors or {})
    embeddings = SubwordEmbeddings(list(vectors), _matrix(vectors, dim))
    return PbosModel(
        table=table,
        embeddings=embeddings,
        config=TrainConfig(variant=variant, **kwargs),
    )


# --- configuration -----------------------------------------------------------

def test_defaults_match_published_word_similarity_settings():
    config = TrainConfig()
    assert config.epochs == 50
    assert config.lr0 == 1.0
    assert config.lr_decay is True
    assert config.variant is Variant.PBOS
    assert config.bos_min_len == 3
    assert config.bos_max_len == 6
    assert SubwordTable({}).prob_eps == 0.01
    assert config.use_word_boundary is False
    assert TrainConfig(variant=Variant.BOS).use_word_boundary is True


def test_learning_rate_decay_is_inverse_square_root():
    config = TrainConfig(lr0=2.0)
    assert config.learning_rate(1) == 2.0
    assert config.learning_rate(4) == 1.0
    assert TrainConfig(lr0=2.0, lr_decay=False).learning_rate(9) == 2.0


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(lr0=0.0)
    with pytest.raises(ValueError):
        TrainConfig(bos_min_len=4, bos_max_len=3)
    with pytest.raises(ValueError):
        SubwordTable({}, prob_eps=1.5)


@pytest.mark.parametrize("setting", [
    {"epochs": 5.0}, {"epochs": True}, {"bos_min_len": 2.0}, {"bos_max_len": "6"},
    {"seed": None}, {"lr0": True}, {"lr_decay": 1}, {"bos_word_boundary": "false"},
])
def test_config_rejects_a_value_of_the_wrong_type(setting):
    with pytest.raises(ValueError, match=next(iter(setting))):
        TrainConfig(**setting)


@pytest.mark.parametrize("lr0", [math.nan, math.inf])
def test_config_rejects_a_non_finite_learning_rate(lr0):
    with pytest.raises(ValueError, match="lr0"):
        TrainConfig(lr0=lr0)


# --- composition --------------------------------------------------------------

def test_untrained_model_composes_zero():
    model = make_model(UNIT, dim=3)
    assert np.array_equal(model.compose("ab"), np.zeros(3))
    assert np.array_equal(model.compose("zzz"), np.zeros(3))


def test_singleton_weight_returns_stored_vector():
    model = make_model(SubwordTable({"a": 0.7}), vectors={"a": np.array([2.0, -1.0])})
    assert np.array_equal(model.compose("a"), np.array([2.0, -1.0]))


def test_weighted_sum_with_equal_thirds():
    vectors = {
        "a": np.array([3.0, 0.0]),
        "b": np.array([0.0, 3.0]),
        "ab": np.array([3.0, 3.0]),
    }
    model = make_model(UNIT, vectors=vectors)
    assert model.compose("ab") == pytest.approx(np.array([2.0, 2.0]), abs=1e-12)


def test_bos_counts_use_boundary_markers():
    counts = bos_subword_counts("ab", 3, 6, word_boundary=True)
    marked = BOUNDARY_START + "ab" + BOUNDARY_END
    assert set(counts) == {marked[:3], marked[1:], marked}
    assert all(count == 1 for count in counts.values())


@pytest.mark.parametrize("word", ["a⟩⟨b", "⟨a", "a⟩"])
def test_bos_counts_reject_words_holding_a_boundary_marker(word):
    with pytest.raises(ValueError, match=repr(word)):
        bos_subword_counts(word, 3, 6, word_boundary=True)
    assert bos_subword_counts(word, 1, 1, word_boundary=False)


def test_bos_counts_repeated_ngrams():
    counts = bos_subword_counts("aaaa", 3, 3, word_boundary=False)
    assert counts == {"aaa": 2}


def test_bos_compose_sums_marked_ngrams_uniformly():
    marked_front = BOUNDARY_START + "aa"
    model = make_model(
        SubwordTable({}), variant=Variant.BOS,
        vectors={marked_front: np.array([1.0, 0.0])},
    )
    assert np.array_equal(model.compose("aa"), np.array([1.0, 0.0]))


def test_bos_compose_without_any_known_ngram_is_zero():
    model = make_model(SubwordTable({}), variant=Variant.BOS)
    assert np.array_equal(model.compose("word"), np.zeros(2))


def test_bos_ignores_the_probability_table():
    pairs = composition_weights("ab", SubwordTable({}), TrainConfig(variant=Variant.BOS))
    assert pairs  # n-grams exist even though the table is empty


def test_pbos_n_normalizes_before_summing():
    model = make_model(
        SubwordTable({"a": 0.7}), variant=Variant.PBOS_N,
        vectors={"a": np.array([3.0, 4.0])},
    )
    assert model.compose("a") == pytest.approx(np.array([0.6, 0.8]), abs=1e-12)


def test_pbos_n_passes_zero_vectors_through():
    model = make_model(
        SubwordTable({"a": 0.7}), variant=Variant.PBOS_N,
        vectors={"a": np.zeros(2)},
    )
    assert np.array_equal(model.compose("a"), np.zeros(2))


def test_compose_rejects_empty_word():
    with pytest.raises(ValueError):
        make_model(UNIT).compose("")


def test_compose_is_linear_in_the_vectors():
    rng = np.random.default_rng(3)
    table = build_table({"abab": 2, "ba": 1})
    subs = list(table.probs)
    vecs1 = {s: rng.standard_normal(4) for s in subs}
    vecs2 = {s: rng.standard_normal(4) for s in subs}
    summed = {s: vecs1[s] + vecs2[s] for s in subs}
    word = "abab"
    lhs = make_model(table, dim=4, vectors=summed).compose(word)
    rhs = make_model(table, dim=4, vectors=vecs1).compose(word) + make_model(
        table, dim=4, vectors=vecs2
    ).compose(word)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_pbos_compose_norm_bounded_by_largest_subword_norm():
    rng = np.random.default_rng(8)
    table = build_table({"abc": 1, "bc": 2, "c": 3})
    vectors = {s: rng.standard_normal(5) for s in table.probs}
    model = make_model(table, dim=5, vectors=vectors)
    word = "abcbc"
    composed_norm = float(np.linalg.norm(model.compose(word)))
    largest = max(
        float(np.linalg.norm(vectors.get(s, np.zeros(5))))
        for s, _ in composition_weights(word, table, model.config)
    )
    assert composed_norm <= largest + 1e-12


# --- the weight matrix and batch compose ---------------------------------------

BATCH_WORDS = ["abcab", "cabbage", "bad", "ab", "zzq", "dcba"]


def _batch_model(variant):
    rng = np.random.default_rng(11)
    table = build_table({"abc": 4, "cab": 2, "bad": 3, "cabbage": 1})
    config = TrainConfig(variant=variant)
    subwords = sorted({sub for word in BATCH_WORDS for sub, _ in composition_weights(word, table, config)})
    # every third subword has no vector; under pbos-n some rows are zero
    kept = [sub for sub in subwords if not set(sub) & set("zq")][::3][1:] + subwords[:1]
    vectors = {sub: rng.standard_normal(4) * 10.0 ** rng.integers(-3, 4) for sub in kept}
    vectors[kept[0]] = np.zeros(4)
    return make_model(table, dim=4, variant=variant, vectors=vectors)


@pytest.mark.parametrize("variant", list(Variant))
def test_compose_many_matches_compose_word_by_word(variant):
    model = _batch_model(variant)
    batch = model.compose_many(BATCH_WORDS)
    assert batch.shape == (len(BATCH_WORDS), 4)
    for word, row in zip(BATCH_WORDS, batch):
        assert row.tobytes() == model.compose(word).tobytes(), word
    # "zzq" has no subword with a vector
    assert not batch[BATCH_WORDS.index("zzq")].any()
    assert not model.compose("zzq").any()


def _word_by_word(words, table, config, columns, extend):
    """``weight_matrix`` of ``words`` from one-word batches, which take the
    scalar lattice pass."""
    rows = [weight_matrix([word], table, config, columns, extend=extend) for word in words]
    indptr = np.cumsum([0] + [len(indices) for _, indices, _ in rows], dtype=np.int64)
    return indptr, np.concatenate([row[1] for row in rows]), np.concatenate([row[2] for row in rows])


@st.composite
def lattice_batches(draw):
    """Words of 1-300 characters, one of them repeated, and a table over
    some of their substrings with probabilities down to 1e-300; with
    ``build_table`` the table is prefix-closed, otherwise it rarely is."""
    alphabet = draw(st.sampled_from(["ab", "abc", "abcd"]))
    lengths = st.one_of(st.integers(1, 8), st.integers(9, 40), st.integers(150, 300))
    words = draw(st.lists(
        lengths.flatmap(lambda n: st.lists(st.sampled_from(alphabet), min_size=n, max_size=n)).map("".join),
        min_size=2, max_size=6,
    ))
    words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(words)))
    if draw(st.booleans()):
        return words, build_table({word: 1 for word in words})
    substrings = sorted({word[i:j] for word in words for i in range(len(word)) for j in range(i + 1, min(i + 6, len(word)) + 1)})
    keys = draw(st.lists(st.sampled_from(substrings), unique=True, max_size=40))
    probs = draw(st.lists(st.floats(1e-300, 1.0), min_size=len(keys), max_size=len(keys)))
    return words, SubwordTable(dict(zip(keys, probs)), prob_eps=draw(st.sampled_from([1e-300, 1e-8, 0.01, 0.5])))


def _assert_one_word_batches(words, table, data):
    """``weight_matrix`` of ``words`` is that of its one-word batches, byte
    for byte and in column order, with and without ``extend``, from drawn
    known columns."""
    config = TrainConfig()
    substrings = sorted({word[i:j] for word in words for i in range(len(word)) for j in range(i + 1, min(i + 3, len(word)) + 1)})
    known = data.draw(st.lists(st.sampled_from(substrings), unique=True, max_size=8))
    for extend in (True, False):
        columns = {subword: column for column, subword in enumerate(known)}
        one_by_one = dict(columns)
        arrays = weight_matrix(words, table, config, columns, extend=extend)
        expected = _word_by_word(words, table, config, one_by_one, extend)
        for array, want in zip(arrays, expected):
            assert (array.dtype, array.tobytes()) == (want.dtype, want.tobytes())
        assert list(columns.items()) == list(one_by_one.items())


@settings(max_examples=60, deadline=None)
@given(lattice_batches(), st.data())
def test_a_batch_weight_matrix_is_its_one_word_batches_byte_for_byte(batch, data):
    _assert_one_word_batches(*batch, data)


@pytest.mark.parametrize("block_spans", [1, 7, 60])
@settings(max_examples=60, deadline=None)
@given(batch=lattice_batches(), data=st.data())
def test_a_batch_passed_in_several_blocks_is_its_one_word_batches_byte_for_byte(block_spans, batch, data):
    # blocks this small are passed mid-batch, and their rows scattered back
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice, "_BLOCK_SPANS", block_spans)
        _assert_one_word_batches(*batch, data)


def test_a_subword_whose_first_spans_have_zero_mass_gets_its_column_where_it_first_has_weight():
    # in "ab" the spans "a" and "b" have mass 1e-400 next to "ab": zero as floats
    table = SubwordTable({"a": 1e-200, "b": 1e-200, "ab": 1.0})
    words = ["ab", "ba", "a"]
    columns, one_by_one = {"c": 0}, {"c": 0}
    arrays = weight_matrix(words, table, TrainConfig(), columns, extend=True)
    expected = _word_by_word(words, table, TrainConfig(), one_by_one, True)
    assert list(columns) == list(one_by_one) == ["c", "ab", "b", "a"]
    for array, want in zip(arrays, expected):
        assert array.tobytes() == want.tobytes()


@pytest.mark.parametrize("extend", [True, False])
def test_a_mass_that_is_normal_only_before_division_by_a_partition_above_1_takes_the_scaled_pass(extend):
    # the span of the whole first word has mass 2**-1000 against a partition
    # near 2**103, so its scaled mass and weight are 0.0; the plain mass is not
    table = SubwordTable({"a": 1.0, "aa": 1.0, "a" * 150: 2.0**-1000})
    words = ["a" * 150, "aa"]
    assert lattice.partition(words[0], table) > 2.0**100
    assert "a" * 150 not in lattice.subword_weights(words[0], table)
    known = {} if extend else {"a": 0, "aa": 1, "a" * 150: 2}
    columns, one_by_one = dict(known), dict(known)
    arrays = weight_matrix(words, table, TrainConfig(), columns, extend=extend)
    expected = _word_by_word(words, table, TrainConfig(), one_by_one, extend)
    for array, want in zip(arrays, expected):
        assert (array.dtype, array.tobytes()) == (want.dtype, want.tobytes())
    assert list(columns.items()) == list(one_by_one.items()) == list({"a": 0, "aa": 1, **known}.items())


def test_a_batch_takes_the_scaled_pass_only_for_the_words_whose_plain_floats_may_not_be_exact(monkeypatch):
    rng = np.random.default_rng(5)
    table = build_table({"".join(rng.choice(list("abcde"), size=8)): 1 for _ in range(200)})
    short = ["".join(rng.choice(list("abcde"), size=n)) for n in (3, 8, 12, 20, 5)]
    # no key holds "z", so each of its 300 spans has probability prob_eps: 0.01**300 underflows
    long = "z" * 300
    assert lattice.partition(long, table) == 0.0
    called: list[str] = []
    scaled_pass = lattice._scaled_pass
    monkeypatch.setattr(lattice, "_scaled_pass", lambda word, table: called.append(word) or scaled_pass(word, table))
    weight_matrix(short, table, TrainConfig(), {}, extend=True)
    assert called == []
    columns: dict[str, int] = {}
    arrays = weight_matrix([*short[:2], long, *short[2:]], table, TrainConfig(), columns, extend=True)
    assert called == [long]
    monkeypatch.setattr(lattice, "_scaled_pass", scaled_pass)
    one_by_one: dict[str, int] = {}
    for array, want in zip(arrays, _word_by_word([*short[:2], long, *short[2:]], table, TrainConfig(), one_by_one, True)):
        assert array.tobytes() == want.tobytes()
    assert list(columns) == list(one_by_one)


@pytest.mark.parametrize("variant", [Variant.PBOS, Variant.BOS])
@pytest.mark.parametrize("bad", ["", "a" * (lattice.MAX_WORD_LEN + 1)], ids=["empty", "too-long"])
def test_a_batch_with_a_word_the_lattice_rejects_raises_its_error(bad, variant):
    table = build_table({"abc": 2, "cab": 1})
    with pytest.raises(ValueError) as rejected:
        lattice.subword_weights(bad, table)
    columns: dict[str, int] = {}
    with pytest.raises(ValueError, match=f"^{re.escape(str(rejected.value))}$"):
        weight_matrix(["abc", bad, "cab"], table, TrainConfig(variant=variant), columns, extend=True)
    assert columns == {}
    model = make_model(table, variant=variant, vectors={"a": np.ones(2)})
    with pytest.raises(ValueError, match=f"^{re.escape(str(rejected.value))}$"):
        model.compose_many(["abc", bad])


def test_a_bos_batch_with_a_word_holding_a_boundary_marker_leaves_the_columns_as_they_were():
    table = build_table({"abc": 2, "cab": 1})
    columns = {"zz": 0}
    with pytest.raises(ValueError, match="reserved boundary marker"):
        weight_matrix(["abc", "a⟨b"], table, TrainConfig(variant=Variant.BOS), columns, extend=True)
    assert columns == {"zz": 0}


def test_compose_many_takes_a_one_shot_iterator():
    model = _batch_model(Variant.PBOS)
    batch = model.compose_many(iter(BATCH_WORDS))
    assert batch.tobytes() == model.compose_many(BATCH_WORDS).tobytes()


def test_a_batch_of_underflowing_words_raises_no_floating_point_warning():
    # 300-character words whose partition is far below the smallest float
    rng = np.random.default_rng(3)
    words = ["".join(rng.choice(list("abcd"), size=n)) for n in (300, 1, 150, 7, 300)]
    table = SubwordTable({"ab": 1e-300, "abc": 1e-200, "d": 5e-324, "cd": 0.5}, prob_eps=1e-300)
    assert lattice.partition(words[0], table) == 0.0
    columns: dict[str, int] = {}
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        arrays = weight_matrix(words, table, TrainConfig(), columns, extend=True)
    assert np.isfinite(arrays[2]).all() and arrays[2].all()
    one_by_one: dict[str, int] = {}
    for array, want in zip(arrays, _word_by_word(words, table, TrainConfig(), one_by_one, True)):
        assert array.tobytes() == want.tobytes()
    assert list(columns) == list(one_by_one)


# --- the compose memo and the immutable model inputs ------------------------------

@pytest.mark.parametrize("variant", list(Variant))
def test_memoized_compose_is_byte_identical_to_the_first_call(variant):
    model = _batch_model(variant)
    first = [model.compose(word) for word in BATCH_WORDS]
    again = [model.compose(word) for word in reversed(BATCH_WORDS)][::-1]
    # a model that composes the words in another order computes each once
    fresh = _batch_model(variant)
    other = [fresh.compose(word) for word in reversed(BATCH_WORDS)][::-1]
    batch = model.compose_many(BATCH_WORDS)
    for word, vector, repeat, cold, row in zip(BATCH_WORDS, first, again, other, batch):
        assert repeat.tobytes() == vector.tobytes() == cold.tobytes() == row.tobytes(), word


def test_compose_returns_a_read_only_array():
    model = make_model(UNIT, vectors={"a": np.array([1.0, 2.0])})
    for _ in range(2):  # the first call and the memoized one
        vector = model.compose("ab")
        with pytest.raises(ValueError):
            vector[0] = 5.0
    assert np.array_equal(model.compose("a"), [1.0, 2.0])


def test_the_compose_memo_stays_within_its_bound():
    # vectors of a quarter of the bound, so the memo holds four of them
    dim = embedding_model.COMPOSE_MEMO_BYTES // 8 // 4
    rng = np.random.default_rng(4)
    table = build_table({"abc": 3, "bca": 2, "cab": 1})
    vectors = {sub: rng.standard_normal(dim) for sub in ["a", "b", "c", "ab"]}
    model = make_model(table, dim=dim, vectors=vectors)
    words = ["".join(letters) for letters in itertools.product("abc", repeat=3)][:12]
    expected = model.compose_many(words)
    first = [model.compose(word) for word in words]
    assert len(model._composed) == 4
    # the last four words are still memoized; the others were evicted oldest first
    assert all(model.compose(word) is vector for word, vector in zip(words[-4:], first[-4:]))
    recomposed = model.compose(words[0])
    assert recomposed is not first[0]
    assert recomposed.tobytes() == first[0].tobytes()
    assert len(model._composed) == 4
    for word, vector, row in zip(words, first, expected):
        assert row.tobytes() == vector.tobytes(), word


def test_threads_composing_past_the_memo_bound_get_correct_vectors():
    # 16 memo slots for 81 words; a short switch interval makes threads
    # race on evictions in most runs (an eviction that raised would show)
    dim = embedding_model.COMPOSE_MEMO_BYTES // 8 // 16
    rng = np.random.default_rng(5)
    table = build_table({"abc": 3, "bca": 2, "cab": 1})
    model = make_model(table, dim=dim, vectors={sub: rng.standard_normal(dim) for sub in "abc"})
    words = ["".join(letters) for letters in itertools.product("abc", repeat=4)]
    expected = dict(zip(words, model.compose_many(words)))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda word: (word, model.compose(word)), words * 4, timeout=60))
    finally:
        sys.setswitchinterval(switch)
    for word, vector in results:
        assert expected[word].tobytes() == vector.tobytes(), word
    assert len(model._composed) <= 16


def test_the_embeddings_matrix_is_read_only():
    assert TargetEmbeddings is SubwordEmbeddings  # one store for targets and subword vectors
    given = np.ones((1, 2))
    embeddings = [
        SubwordEmbeddings(["a"], given),
        train(target_store(2, {"a": np.ones(2)}), UNIT, TrainConfig(epochs=1)).embeddings,
    ]
    for store in embeddings:
        with pytest.raises(ValueError):
            store.matrix[0, 0] = 5.0
    # the matrix is kept without a copy, so the caller's array is read-only too
    assert embeddings[0].matrix is given


# "2-d": each name's row is itself 2-D; "short"/"long": fewer/more rows than names
@pytest.mark.parametrize("names, matrix, message", [
    (["a"], np.ones((1, 2), dtype=np.float32), r"2-D float64 .* got shape \(1, 2\) of float32"),
    (["a"], np.ones((1, 2), dtype=np.int64), r"2-D float64 .* got shape \(1, 2\) of int64"),
    (["a", "b"], np.ones(2), r"2-D float64 .* got shape \(2,\) of float64"),
    (["a"], np.ones((1, 2, 1)), r"2-D float64 .* got shape \(1, 2, 1\) of float64"),
    (["a"], np.ones((1, 0)), r"at least one column, got shape \(1, 0\)"),
    ([], np.zeros((0, 0)), r"at least one column, got shape \(0, 0\)"),
    (["a", "b"], np.ones((1, 2)), r"shape \(1, 2\), expected one row for each of 2 names"),
    (["a"], np.ones((2, 2)), r"shape \(2, 2\), expected one row for each of 1 names"),
    (["a", "b", "a"], np.ones((3, 2)), "name 'a' is listed twice"),
    (["a", "b"], np.array([[1.0, 2.0], [3.0, np.nan]]), r"row 2 \('b'\) has a non-finite component"),
    (["a", "b"], np.array([[-np.inf, 2.0], [3.0, 4.0]]), r"row 1 \('a'\) has a non-finite component"),
    # the first row's sum overflows, but its components are finite
    (["a", "b"], np.array([[1e308, 1e308], [np.nan, 1.0]]), r"row 2 \('b'\) has a non-finite component"),
    ([""], np.ones((1, 2)), "a name must not be empty"),
], ids=[
    "float32", "int64", "1-d", "2-d", "dim-0", "dim-0-matrix", "short", "long", "repeated", "nan", "inf",
    "overflow-then-nan", "empty-name",
])
def test_embeddings_reject_what_no_model_can_use(names, matrix, message):
    with pytest.raises(ValueError, match=message):
        SubwordEmbeddings(names, matrix)


def test_a_row_whose_sum_overflows_is_kept():
    # the total and the first row's sum overflow; the other rows' sums do not
    matrix = np.array([[1e308, 1e308], [1e308, 0.0], [1.0, 2.0]])
    assert SubwordEmbeddings(["a", "b", "c"], matrix).matrix is matrix


def test_the_finite_check_reaches_every_row_block():
    # a row far past the first is checked too
    matrix = np.zeros((2 * 4096 + 3, 2))
    matrix[-1, 1] = np.inf
    names = [str(row) for row in range(len(matrix))]
    with pytest.raises(ValueError, match=rf"row {len(matrix)} \('{len(matrix) - 1}'\)"):
        SubwordEmbeddings(names, matrix)


def test_the_model_mappings_are_read_only():
    table = SubwordTable({"a": 0.5, "b": 0.5})
    model = make_model(table, vectors={"a": np.array([1.0, 2.0])})
    assert np.array_equal(model.compose("a"), [1.0, 2.0])
    with pytest.raises(TypeError):
        model.table.probs["a"] = 0.25
    with pytest.raises(TypeError):
        model.embeddings.index.clear()
    assert np.array_equal(model.compose("a"), [1.0, 2.0])
    # a table rebuilt from a read-only mapping keeps it as it is
    assert replace(table, prob_eps=0.25).probs is table.probs


def test_a_read_only_dict_refuses_every_edit():
    probs = ReadOnlyDict({"a": 0.5})
    edits = [
        lambda: probs.__setitem__("b", 0.5), lambda: probs.__delitem__("a"), lambda: probs.__ior__({"b": 0.5}),
        probs.clear, lambda: probs.pop("a"), probs.popitem, lambda: probs.setdefault("b", 0.5),
        lambda: probs.update(b=0.5),
    ]
    for edit in edits:
        with pytest.raises(TypeError):
            edit()
    assert probs == {"a": 0.5} and probs.get("a") == 0.5 and probs | {"b": 0.5} == {"a": 0.5, "b": 0.5}
    for twin in (copy.copy(probs), copy.deepcopy(probs), pickle.loads(pickle.dumps(probs))):
        assert type(twin) is ReadOnlyDict and twin == probs and twin is not probs


def test_a_model_survives_pickling_and_deep_copying(tmp_path):
    table = SubwordTable({"a": 0.5, "b": 0.5, "ab": 0.25})
    model = make_model(table, vectors={"a": np.array([1.0, 2.0]), "ab": np.array([3.0, 5.0])})
    model.save(tmp_path)
    for original in (model, PbosModel.load(tmp_path)):
        expected = original.compose("ab")
        for twin in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
            assert twin._composed == {} and not twin.embeddings.matrix.flags.writeable
            assert twin.table == original.table and twin.config == original.config
            assert twin.embeddings.index == original.embeddings.index
            assert twin.compose("ab").tobytes() == expected.tobytes()
            assert type(twin.table.probs) is ReadOnlyDict and type(twin.embeddings.index) is ReadOnlyDict
            with pytest.raises(TypeError):
                twin.table.probs["a"] = 0.25


def test_train_config_is_frozen():
    config = TrainConfig()
    with pytest.raises(FrozenInstanceError):
        config.epochs = 3
    assert TrainConfig(variant="bos").variant is Variant.BOS


def test_rebinding_a_model_input_drops_the_memo():
    table = SubwordTable({"a": 0.5, "b": 0.5, "ab": 0.5})
    model = make_model(table, vectors={"a": np.array([3.0, 4.0]), "b": np.array([1.0, 0.0])})
    assert np.array_equal(model.compose("a"), [3.0, 4.0])
    # the model is frozen, so no input can change under its memo
    replacements = {
        "table": SubwordTable({"a": 0.5, "b": 0.5}),
        "embeddings": SubwordEmbeddings(["a"], np.array([[6.0, 8.0]])),
        "config": TrainConfig(variant=Variant.PBOS_N),
        "loss_trace": [1.0],
    }
    for name, value in replacements.items():
        with pytest.raises(FrozenInstanceError):
            setattr(model, name, value)
    assert np.array_equal(model.compose("a"), [3.0, 4.0])


def test_a_model_that_has_composed_is_freed_without_the_cycle_collector():
    model = make_model(UNIT, vectors={"a": np.ones(2)})
    model.compose("ab")
    ref = weakref.ref(model)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del model
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_compose_many_of_no_words_is_empty():
    model = make_model(UNIT, dim=3, vectors={"a": np.ones(3)})
    assert model.compose_many([]).shape == (0, 3)


def test_compose_many_leaves_the_compose_memo_as_it_was():
    model = _batch_model(Variant.PBOS)
    first = model.compose("ab")
    model.compose_many(BATCH_WORDS)
    assert list(model._composed) == ["ab"]
    assert model.compose("ab") is first


def _dense(indptr, indices, data, columns):
    """``W`` as a dense array with ``columns`` columns, from its CSR arrays."""
    dense = np.zeros((len(indptr) - 1, columns))
    np.add.at(dense, (np.repeat(np.arange(len(indptr) - 1), np.diff(indptr)), indices), data)
    return dense


@pytest.mark.parametrize("variant", list(Variant))
def test_weight_matrix_rows_hold_the_composition_weights_in_first_seen_columns(variant):
    table = build_table({"abc": 2, "cab": 1})
    config = TrainConfig(variant=variant)
    columns: dict[str, int] = {}
    indptr, indices, data = weight_matrix(["abc", "cab"], table, config, columns, extend=True)
    assert (indptr.dtype, indices.dtype, data.dtype) == (np.int64, np.int64, np.float64)
    assert _dense(indptr, indices, data, len(columns)).shape == (2, len(columns))
    for row, word in enumerate(["abc", "cab"]):
        lo, hi = indptr[row], indptr[row + 1]
        names = [list(columns)[col] for col in indices[lo:hi]]
        assert list(zip(names, data[lo:hi].tolist())) == composition_weights(word, table, config)
    # without extend, subwords not in the columns are dropped
    expected = dict(composition_weights("abc", table, config))
    first, *_, last = expected
    known = {last: 0, first: 1, "zz": 2}
    dropped = _dense(*weight_matrix(["abc"], table, config, known), len(known))
    assert known == {last: 0, first: 1, "zz": 2}
    assert dropped.tolist() == [[expected[last], expected[first], 0.0]]


@pytest.mark.parametrize("variant", [Variant.PBOS, Variant.BOS])
def test_training_approaches_the_min_norm_least_squares_solution(variant):
    # SGD from zero stays in the row space of W, so on a consistent system
    # it converges to the minimum-norm solution of W x = targets
    rng = np.random.default_rng(5)
    words = ["abc", "bca", "cab", "abab"]
    table = build_table({"abc": 3, "bca": 2, "cab": 1, "ab": 4})
    config = TrainConfig(variant=variant, epochs=400, lr_decay=False, bos_min_len=2, bos_max_len=3)
    targets = target_store(3, {w: rng.standard_normal(3) for w in words})
    columns: dict[str, int] = {}
    arrays = weight_matrix(words, table, config, columns, extend=True)
    dense = _dense(*arrays, len(columns))
    assert np.linalg.matrix_rank(dense) == len(words)
    goal = targets.matrix
    optimum = np.linalg.lstsq(dense, goal, rcond=None)[0]
    model = train(targets, table, config)
    assert model.embeddings.index == columns
    assert model.loss_trace[-1] < 1e-20
    assert np.max(np.abs(model.embeddings.matrix - optimum)) < 1e-9


# --- training -----------------------------------------------------------------

def test_single_word_single_step_memorizes_target():
    target = np.array([1.5, -2.0])
    targets = target_store(2, {"a": target})
    model = train(targets, SubwordTable({"a": 1.0}), TrainConfig(epochs=2, seed=0))
    assert model.embeddings.vectors["a"] == pytest.approx(target, abs=1e-12)
    assert model.loss_trace[0] == pytest.approx(float(target @ target))
    assert model.loss_trace[1] == 0.0
    assert loss(model, targets) == 0.0


def test_zero_epochs_leaves_all_vectors_zero():
    targets = target_store(2, {"a": np.ones(2)})
    model = train(targets, SubwordTable({"a": 1.0}), TrainConfig(epochs=0))
    assert model.loss_trace == []
    assert np.array_equal(model.compose("a"), np.zeros(2))


def test_training_is_deterministic_given_seed():
    rng = np.random.default_rng(17)
    words = ["abc", "bca", "cab", "abca"]
    table = build_table({w: 1 for w in words})
    targets = target_store(4, {w: rng.standard_normal(4) for w in words})
    config = TrainConfig(epochs=5, seed=42)
    first = train(targets, table, config)
    second = train(targets, table, config)
    assert first.loss_trace == second.loss_trace
    for sub in first.embeddings.vectors:
        assert np.array_equal(
            first.embeddings.vectors[sub], second.embeddings.vectors[sub]
        )


def test_overfit_reduces_loss_on_toy_set():
    rng = np.random.default_rng(5)
    words = ["".join(rng.choice(list("abcdef"), size=rng.integers(3, 7))) for _ in range(20)]
    words = list(dict.fromkeys(words))
    table = build_table({w: 1 for w in words})
    targets = target_store(8, {w: rng.standard_normal(8) for w in words})
    model = train(targets, table, TrainConfig(epochs=20, seed=1))
    assert model.loss_trace[-1] < 0.1 * model.loss_trace[0]


def test_bos_training_also_converges():
    rng = np.random.default_rng(6)
    words = ["abcd", "bcda", "cdab"]
    targets = target_store(4, {w: rng.standard_normal(4) for w in words})
    model = train(
        targets, SubwordTable({}), TrainConfig(epochs=30, seed=2, variant=Variant.BOS)
    )
    assert model.loss_trace[-1] < 0.1 * model.loss_trace[0]


def test_single_word_update_contracts_when_step_is_small():
    # after one update the residual scales by (1 - lr * sum of squared weights)
    table = build_table({"ab": 1})
    target = np.array([4.0, 0.0])
    targets = target_store(2, {"ab": target})
    config = TrainConfig(epochs=1, lr0=1.0, lr_decay=False, seed=0)
    weight_sq = sum(w * w for _, w in composition_weights("ab", table, config))
    assert 0.0 < config.lr0 * weight_sq < 2.0
    model = train(targets, table, config)
    residual = model.compose("ab") - target
    expected_scale = 1.0 - config.lr0 * weight_sq
    assert float(np.linalg.norm(residual)) == pytest.approx(
        abs(expected_scale) * float(np.linalg.norm(target)), rel=1e-9
    )


def test_bos_step_is_normalized_by_the_squared_weights():
    # lr 1 over sum(w**2) removes the whole residual of a lone word in one
    # update, however large the n-gram counts are
    target = np.array([4.0, -3.0])
    targets = target_store(2, {"abcd": target})
    config = TrainConfig(epochs=1, lr_decay=False, variant=Variant.BOS)
    weight_sq = sum(w * w for _, w in composition_weights("abcd", SubwordTable({}), config))
    assert weight_sq > 2.0
    model = train(targets, SubwordTable({}), config)
    assert model.compose("abcd") == pytest.approx(target, abs=1e-12)


def test_train_rejects_non_finite_loss():
    # finite targets whose squared residual overflows
    targets = target_store(2, {"a": np.array([1e200, 0.0])})
    with warnings.catch_warnings(), pytest.raises(ValueError, match="epoch 1"):
        warnings.simplefilter("error")  # and no numpy overflow warning on the way
        train(targets, SubwordTable({"a": 1.0}), TrainConfig(epochs=3))


def test_cli_train_exits_2_and_saves_nothing_on_non_finite_loss(tmp_path, capsys):
    target = tmp_path / "target.txt"
    target.write_text("2 2\nab inf 0.5\nba 1.0 -1.0\n", encoding="utf-8")
    subwords = tmp_path / "subwords.tsv"
    subwords.write_text("a\t0.5\nb\t0.5\nab\t0.5\n", encoding="utf-8")
    out = tmp_path / "model"
    code = cli.main([
        "train", "--target", str(target), "--subwords", str(subwords),
        "--epochs", "2", "--out", str(out),
    ])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(target) in err and "non-finite" in err
    assert not out.exists()


def test_train_rejects_bad_targets():
    with pytest.raises(ValueError):
        train(target_store(2, {}), UNIT, TrainConfig())
    # a target of another length than the others cannot be built
    with pytest.raises(ValueError):
        train(TargetEmbeddings(["a"], np.zeros(3)), SubwordTable({"a": 1.0}), TrainConfig())


def test_loss_examples():
    zero = target_store(2, {"a": np.zeros(2)})
    model = make_model(SubwordTable({"a": 1.0}))
    assert loss(model, zero) == 0.0
    one = target_store(2, {"a": np.array([2.0, 0.0])})
    assert loss(model, one) == 4.0
    with pytest.raises(ValueError):
        loss(model, target_store(2, {}))
    with pytest.raises(ValueError):
        loss(model, target_store(5, {"a": np.zeros(5)}))


# --- gradient check -------------------------------------------------------------

def test_gradient_check_small_on_random_instances():
    rng = np.random.default_rng(0)
    table = build_table({"abc": 3, "bcd": 2, "cd": 5})
    for seed in range(5):
        words = ["abc", "bcdc", "da"]
        targets = target_store(4, {w: rng.standard_normal(4) for w in words})
        for variant in (Variant.PBOS, Variant.BOS):
            model = make_model(table, dim=4, variant=variant)
            assert gradient_check(model, targets, h=1e-5, seed=seed) < 1e-4


def test_gradient_check_samples_at_most_max_coords_per_word_coordinates_per_word():
    rng = np.random.default_rng(1)
    table = build_table({"abcab": 3, "bcd": 2, "cdab": 5})
    words = ["abcab", "bcdc", "dabc"]
    vectors = {sub: rng.standard_normal(6) for word in words for sub, _ in composition_weights(word, table, TrainConfig())}
    model = make_model(table, dim=6, vectors=vectors)
    targets = target_store(6, {w: rng.standard_normal(6) for w in words})
    every = gradient_check(model, targets, seed=0)
    assert 0.0 < every < 1e-4
    sampled = [gradient_check(model, targets, seed=seed, max_coords_per_word=2) for seed in range(8)]
    assert sampled == [gradient_check(model, targets, seed=seed, max_coords_per_word=2) for seed in range(8)]
    # a sample's worst error is one of the errors of all coordinates, so no larger
    assert all(0.0 < worst <= every for worst in sampled)
    assert min(sampled) < every


def test_gradient_check_zero_residual_gives_zero_analytic_gradient():
    target = np.array([1.0, 2.0])
    model = make_model(SubwordTable({"a": 1.0}), vectors={"a": target.copy()})
    targets = target_store(2, {"a": target})
    residual = model.compose("a") - target
    assert np.array_equal(residual, np.zeros(2))
    assert gradient_check(model, targets) == 0.0


@pytest.mark.parametrize("targets, message", [
    (target_store(1, {"a": np.ones(1)}), "dimension mismatch: targets 1, model 2"),
    (target_store(2, {}), "empty target vocabulary"),
], ids=["dim", "empty"])
def test_gradient_check_rejects_targets_loss_rejects(targets, message):
    model = make_model(SubwordTable({"a": 1.0}), vectors={"a": np.array([1.0, 2.0])})
    for check in (loss, gradient_check):
        with pytest.raises(ValueError, match=message):
            check(model, targets)


@pytest.mark.parametrize("h, max_coords_per_word, message", [
    (0.0, 64, "h must be positive and finite, got 0.0"),
    (-1e-5, 64, "h must be positive and finite, got -1e-05"),
    (math.nan, 64, "h must be positive and finite, got nan"),
    (math.inf, 64, "h must be positive and finite, got inf"),
    (1e-5, 0, "max_coords_per_word must be at least 1, got 0"),
], ids=["h-0", "h-negative", "h-nan", "h-inf", "no-coords"])
def test_gradient_check_rejects_arguments_that_check_nothing(h, max_coords_per_word, message):
    # the residual is not zero, so a valid call samples coordinates
    model = make_model(SubwordTable({"a": 1.0}), vectors={"a": np.array([1.0, 2.0])})
    targets = target_store(2, {"a": np.array([3.0, 5.0])})
    assert gradient_check(model, targets) < 1e-4
    with pytest.raises(ValueError, match=message):
        gradient_check(model, targets, h=h, max_coords_per_word=max_coords_per_word)


def test_gradient_check_rejects_pbos_n():
    model = make_model(SubwordTable({"a": 1.0}), variant=Variant.PBOS_N)
    targets = target_store(2, {"a": np.ones(2)})
    with pytest.raises(ValueError):
        gradient_check(model, targets)


# --- persistence -----------------------------------------------------------------

def test_model_round_trips_through_directory(tmp_path):
    rng = np.random.default_rng(9)
    words = ["abc", "cab"]
    table = build_table({w: 2 for w in words})
    targets = target_store(3, {w: rng.standard_normal(3) for w in words})
    model = train(targets, table, TrainConfig(epochs=3, seed=4))
    model.save(tmp_path / "model")
    loaded = PbosModel.load(tmp_path / "model")

    assert loaded.config == model.config
    assert loaded.table.probs == model.table.probs
    assert loaded.table.prob_eps == model.table.prob_eps
    assert loaded.table.max_len == model.table.max_len
    assert loaded.table.total_mass == model.table.total_mass
    assert loaded.loss_trace == model.loss_trace
    for word in words:
        # the float64 matrix is stored exactly: bitwise equal vectors
        assert loaded.compose(word).tobytes() == model.compose(word).tobytes()

    # re-saving the loaded model writes the same bytes
    loaded.save(tmp_path / "again")
    names = ["config.json", "probs.npy", "subwords.txt", "vectors.npy"]
    assert sorted(path.name for path in (tmp_path / "model").iterdir()) == names
    for name in names:
        assert (tmp_path / "model" / name).read_bytes() == (
            tmp_path / "again" / name
        ).read_bytes(), name


def _assert_round_trip(model, directory):
    model.save(directory)
    loaded = PbosModel.load(directory)
    assert loaded.config == model.config
    assert loaded.table == model.table
    assert list(loaded.embeddings.index) == list(model.embeddings.index)
    assert loaded.embeddings.matrix.tobytes() == model.embeddings.matrix.tobytes()
    assert loaded.loss_trace == model.loss_trace
    return loaded


def test_table_only_and_vector_only_subwords_round_trip(tmp_path):
    # "c" has a vector but no table entry; "ab" and "ba" have only an entry
    table = SubwordTable({"a": 0.5, "b": 0.25, "ab": 0.125, "ba": 1.0}, max_len=2, total_mass=8.0)
    vectors = {"c": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}
    _assert_round_trip(make_model(table, vectors=vectors), tmp_path / "model")
    lines = (tmp_path / "model" / "subwords.txt").read_text(encoding="utf-8").split("\n")
    assert lines == ["c", "b", "a", "ab", "ba", ""]
    probs = np.load(tmp_path / "model" / "probs.npy")
    assert probs.tolist() == [0.0, 0.25, 0.5, 0.125, 1.0]


def test_bos_model_round_trips(tmp_path):
    rng = np.random.default_rng(3)
    targets = target_store(3, {w: rng.standard_normal(3) for w in ["abc", "bcd"]})
    config = TrainConfig(epochs=2, variant=Variant.BOS, bos_min_len=2, bos_max_len=3)
    model = train(targets, build_table({"abc": 2, "bcd": 1}), config)
    loaded = _assert_round_trip(model, tmp_path / "model")
    assert any(BOUNDARY_START in subword for subword in loaded.embeddings.index)
    assert loaded.compose("abd").tobytes() == model.compose("abd").tobytes()


def test_a_library_built_model_saves_a_float64_matrix_that_loads(tmp_path):
    # the store takes float64 only, so no model saves a matrix load rejects
    matrix = np.array([[1.0, 2.0], [0.1, -1e-300]])
    model = PbosModel(SubwordTable({"a": 0.5, "b": 0.5}), SubwordEmbeddings(["a", "ab"], matrix), TrainConfig())
    loaded = _assert_round_trip(model, tmp_path / "model")
    assert np.load(tmp_path / "model" / "vectors.npy").dtype == np.float64
    assert loaded.embeddings.matrix.tobytes() == matrix.tobytes()


def test_a_model_with_an_empty_table_round_trips(tmp_path):
    model = make_model(SubwordTable({}, prob_eps=0.5), vectors={"a": np.ones(2)})
    loaded = _assert_round_trip(model, tmp_path / "model")
    assert np.array_equal(loaded.compose("aa"), np.ones(2))
    _assert_round_trip(make_model(SubwordTable({})), tmp_path / "empty")


def test_a_model_directory_without_config_json_names_it(tmp_path):
    make_model(SubwordTable({"a": 1.0})).save(tmp_path)
    (tmp_path / "config.json").rename(tmp_path / "config")
    with pytest.raises(OSError, match="config.json"):
        PbosModel.load(tmp_path)


def test_a_config_with_every_field_changed_round_trips(tmp_path):
    config = TrainConfig(
        epochs=3, lr0=0.25, lr_decay=False, variant=Variant.PBOS_N,
        bos_min_len=2, bos_max_len=4, bos_word_boundary=False, seed=11,
    )
    assert all(getattr(config, f.name) != f.default for f in fields(TrainConfig))
    PbosModel(SubwordTable({"a": 1.0}), SubwordEmbeddings([], np.zeros((0, 2))), config).save(tmp_path)
    assert PbosModel.load(tmp_path).config == config


def test_loss_trace_round_trips_exactly(tmp_path):
    trace = [0.1, 1.0 / 3.0, 5e-324, 1.7976931348623157e308, 0.0]
    model = PbosModel(SubwordTable({"a": 1.0}), SubwordEmbeddings([], np.zeros((0, 2))), TrainConfig(), loss_trace=trace)
    model.save(tmp_path)
    assert PbosModel.load(tmp_path).loss_trace == model.loss_trace


def test_subwords_with_spaces_and_non_ascii_round_trip(tmp_path):
    vectors = {
        "a b": np.array([1.0, -2.0]),
        "\u00e9t\u00e9": np.array([0.5, 0.25]),
        BOUNDARY_START + "x\ry\t": np.array([-0.0, 3.0]),
    }
    make_model(SubwordTable({"a": 1.0}), vectors=vectors).save(tmp_path)
    loaded = PbosModel.load(tmp_path)
    assert list(loaded.embeddings.vectors) == list(vectors)
    for subword, vector in vectors.items():
        assert loaded.embeddings.vectors[subword].tobytes() == vector.tobytes()


def test_save_rejects_a_subword_with_a_newline(tmp_path):
    model = make_model(SubwordTable({"a": 1.0}), vectors={"a\nb": np.ones(2)})
    with pytest.raises(ValueError, match="newline"):
        model.save(tmp_path / "model")
    assert not (tmp_path / "model").exists()
    # a table key is checked too, before any file is written
    model = make_model(SubwordTable({"a": 1.0, "b\nc": 0.5}), vectors={"a": np.ones(2)})
    with pytest.raises(ValueError, match="newline"):
        model.save(tmp_path / "model")
    assert not (tmp_path / "model").exists()


@pytest.mark.parametrize("prob", [0.0, -0.5, 1.5, math.nan])
def test_save_rejects_a_table_probability_outside_the_unit_interval(prob):
    # a vector's subword with probability 0.0 would read back as no entry;
    # the table rejects such a value, so no model holding it can be saved
    with pytest.raises(ValueError, match="probability"):
        SubwordTable({"a": 1.0, "b": prob})


def test_subwords_with_tabs_and_header_names_in_the_table_round_trip(tmp_path):
    table = SubwordTable({"a\tb": 0.5, "# prob_eps": 0.25})
    _assert_round_trip(make_model(table, vectors={"a\tb": np.ones(2)}), tmp_path)


def test_loaded_matrix_is_memory_mapped_read_only(tmp_path):
    make_model(SubwordTable({"a": 1.0}), vectors={"a": np.ones(2)}).save(tmp_path)
    matrix = PbosModel.load(tmp_path).embeddings.matrix
    assert type(matrix) is np.ndarray
    assert isinstance(matrix.base, np.memmap)
    assert not matrix.flags.writeable


def test_saving_over_the_loaded_directory_keeps_the_loaded_model(tmp_path):
    make_model(SubwordTable({"a": 1.0}), vectors={"a": np.array([1.0, 2.0])}).save(tmp_path)
    loaded = PbosModel.load(tmp_path)
    make_model(SubwordTable({"a": 1.0}), vectors={"a": np.array([7.0, 8.0])}).save(tmp_path)
    assert np.array_equal(loaded.compose("a"), [1.0, 2.0])
    loaded.save(tmp_path)
    assert np.array_equal(PbosModel.load(tmp_path).compose("a"), [1.0, 2.0])


def test_a_failed_save_leaves_the_earlier_model_whole(tmp_path):
    make_model(SubwordTable({"a": 0.5}), vectors={"a": np.array([1.0, 0.0])}).save(tmp_path)
    (tmp_path / "vectors.npy.partial").mkdir()
    with pytest.raises(IsADirectoryError):
        make_model(SubwordTable({"a": 0.25}), vectors={"a": np.array([5.0, 5.0])}).save(tmp_path)
    loaded = PbosModel.load(tmp_path)
    assert loaded.table.probs == {"a": 0.5}
    assert np.array_equal(loaded.compose("a"), [1.0, 0.0])
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "config.json", "probs.npy", "subwords.txt", "vectors.npy", "vectors.npy.partial",
    ]


def test_vectors_view_is_read_only():
    model = make_model(SubwordTable({"a": 1.0}), vectors={"a": np.array([1.0, 2.0])})
    view = model.embeddings.vectors
    assert view.get("zz") is None
    assert "a" in view and len(view) == 1
    with pytest.raises(TypeError):
        view["b"] = np.zeros(2)
    with pytest.raises(ValueError):
        view["a"][0] = 5.0
    assert np.array_equal(model.compose("a"), [1.0, 2.0])


def _write(name, text):
    return lambda d: (d / name).write_text(text, encoding="utf-8")


def _rewrite_config(d, edit):
    document = json.loads((d / "config.json").read_text(encoding="utf-8"))
    edit(document)
    (d / "config.json").write_text(json.dumps(document), encoding="utf-8")


def _edit_config(edit):
    return lambda d: _rewrite_config(d, edit)


def _edit_probs(edit):
    return lambda d: np.save(d / "probs.npy", edit(np.load(d / "probs.npy")))


DROP_LOSS_TRACE = _edit_config(lambda c: c.pop("loss_trace"))


# The damaged model lists "a" and "b" with vectors and "ab" in the table only.
@pytest.mark.parametrize("damage, name", [
    (lambda d: (d / "vectors.npy").unlink(), "vectors.npy"),
    (lambda d: np.save(d / "vectors.npy", np.zeros((2, 2), dtype=np.float32)), "vectors.npy"),
    (lambda d: np.save(d / "vectors.npy", np.zeros(4)), "vectors.npy"),
    # more rows than subwords.txt has lines
    (lambda d: np.save(d / "vectors.npy", np.zeros((4, 2))), "vectors.npy"),
    (lambda d: np.save(d / "vectors.npy", np.array([[1.0, 2.0], [np.inf, 0.0]])), "vectors.npy"),
    (lambda d: (d / "vectors.npy").write_bytes(b"not an array"), "vectors.npy"),
    (_write("config.json", '{"train": {"epochs" 3}, "table": {}, "loss_trace": []}\n'), "config.json"),
    (_edit_config(lambda c: c["train"].update(epochs="many")), "config.json"),
    (_edit_config(lambda c: c["train"].update(variant="cbow")), "config.json"),
    (_edit_config(lambda c: c["train"].update(epoch=5)), "config.json"),
    (_edit_config(lambda c: c["train"].update(lr_decay="True")), "config.json"),
    (_edit_config(lambda c: c["train"].update(bos_word_boundary="auto")), "config.json"),
    (_edit_config(lambda c: c["train"].update(prob_eps=0.01)), "config.json"),
    (_write("config.json", '{"train": {"epochs": 1, "epochs": 2}, "table": {}, "loss_trace": []}\n'),
     "config.json"),
    (_edit_config(lambda c: c["table"].update(max_len=0)), "config.json"),
    (_edit_config(lambda c: c["table"].update(prob_eps="x")), "config.json"),
    (_edit_config(lambda c: c["table"].update(total_mass=math.nan)), "config.json"),
    (_edit_config(lambda c: c["table"].update(probs={})), "config.json"),
    (_edit_config(lambda c: c.update(loss_trace=[0.5, "low"])), "config.json"),
    (_edit_config(lambda c: c.update(loss_trace=[0.5, math.nan])), "config.json"),
    (_edit_config(lambda c: c.update(loss_trace=[math.inf])), "config.json"),
    (_write("subwords.txt", "a\nb\n\n"), "subwords.txt"),
    (DROP_LOSS_TRACE, "config.json"),
    (_write("config.json", "[]\n"), "config.json"),
    (_write("subwords.txt", "a\nb\na\n"), "subwords.txt"),
    (_write("subwords.txt", "a\nb\nab"), "subwords.txt"),
    (_write("subwords.txt", "a\na\nab\n"), "subwords.txt"),
    (_write("subwords.txt", "ab\nb\nab\n"), "subwords.txt"),
    (_edit_probs(lambda p: np.array([0.5, 2.0, 0.25])), "probs.npy"),
    (_edit_probs(lambda p: np.array([-0.5, 0.5, 0.25])), "probs.npy"),
    (_edit_probs(lambda p: np.array([0.5, np.nan, 0.25])), "probs.npy"),
    (_edit_probs(lambda p: p.astype(np.float32)), "probs.npy"),
    (_edit_probs(lambda p: p[:2]), "probs.npy"),
    (_edit_probs(lambda p: np.array([0.5, 0.5, 0.0])), "probs.npy"),
    # an empty first line whose 0.0 keeps it out of the table
    (lambda d: (_write("subwords.txt", "\nb\nab\n")(d), _edit_probs(lambda p: np.array([0.0, 0.5, 0.25]))(d)),
     "subwords.txt"),
    (lambda d: (d / "probs.npy").unlink(), "probs.npy"),
])
def test_load_errors_name_the_file(tmp_path, damage, name):
    vectors = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
    make_model(SubwordTable({"a": 0.5, "b": 0.5, "ab": 0.25}), vectors=vectors).save(tmp_path)
    damage(tmp_path)
    with pytest.raises((ValueError, OSError)) as caught:
        PbosModel.load(tmp_path)
    assert str(tmp_path / name) in str(caught.value)
    assert ("missing key 'loss_trace'" in str(caught.value)) is (damage is DROP_LOSS_TRACE)


@pytest.mark.parametrize("value", [math.nan, math.inf, np.float64(-math.inf)])
def test_save_refuses_a_non_finite_loss_trace_before_replacing_a_file(tmp_path, value):
    vectors = {"a": np.array([1.0, 0.0])}
    make_model(SubwordTable({"a": 0.5}), vectors=vectors).save(tmp_path)
    saved = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    model = replace(make_model(SubwordTable({"b": 0.5}), vectors={"b": np.array([0.0, 1.0])}), loss_trace=[0.5, value])
    with pytest.raises(ValueError, match="JSON compliant"):
        model.save(tmp_path)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == saved


@pytest.mark.parametrize("subwords_text", ["c\nb\nc\n", "c\nc\na\n", "c\nb\nb\n"])
def test_load_rejects_a_subword_listed_twice_beside_one_without_a_table_entry(tmp_path, subwords_text):
    # "c" has a vector but no table entry, so the table leaves it out
    table = SubwordTable({"b": 0.25, "a": 0.5})
    make_model(table, vectors={"c": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}).save(tmp_path)
    (tmp_path / "subwords.txt").write_text(subwords_text, encoding="utf-8")
    with pytest.raises(ValueError, match="listed twice") as caught:
        PbosModel.load(tmp_path)
    assert str(tmp_path / "subwords.txt") in str(caught.value)


# The same bad table given to both readers: the subword file and a model.
@pytest.mark.parametrize("subwords_tsv, damage, message", [
    ("a\t0.5\nb\t0.5\na\t0.25\n", _write("subwords.txt", "a\nb\na\n"), "subword 'a' is listed twice"),
    ("a\t0.5\nb\t1.5\nab\t0.25\n", _edit_probs(lambda p: np.array([0.5, 1.5, 0.25])),
     "subword 'b' has probability 1.5; it must be in (0, 1]"),
    ('#\t{"max_len": 0}\na\t0.5\nb\t0.5\nab\t0.25\n', _edit_config(lambda c: c["table"].update(max_len=0)),
     "max_len must be None or an int >= 1, got 0"),
], ids=["repeated", "probability", "max_len"])
def test_both_table_readers_reject_a_bad_table_with_one_message(tmp_path, subwords_tsv, damage, message):
    with pytest.raises(ValueError) as from_file:
        read_subwords(io.StringIO(subwords_tsv))
    vectors = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
    make_model(SubwordTable({"a": 0.5, "b": 0.5, "ab": 0.25}), vectors=vectors).save(tmp_path)
    damage(tmp_path)
    with pytest.raises(ValueError) as from_model:
        PbosModel.load(tmp_path)
    assert str(from_file.value) == message
    assert str(from_model.value).endswith(f": {message}")
