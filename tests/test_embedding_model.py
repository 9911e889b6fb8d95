import math
from dataclasses import fields

import numpy as np
import pytest

from pbos import cli
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
)
from pbos.io_formats import TargetEmbeddings
from pbos.subword_stats import SubwordTable, build_table

UNIT = SubwordTable({"a": 1.0, "b": 1.0, "ab": 1.0})


def make_model(table, dim=2, variant=Variant.PBOS, vectors=None, **kwargs):
    embeddings = SubwordEmbeddings(dim=dim, vectors=dict(vectors or {}))
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


# --- training -----------------------------------------------------------------

def test_single_word_single_step_memorizes_target():
    target = np.array([1.5, -2.0])
    targets = TargetEmbeddings(dim=2, entries={"a": target})
    model = train(targets, SubwordTable({"a": 1.0}), TrainConfig(epochs=2, seed=0))
    assert model.embeddings.vectors["a"] == pytest.approx(target, abs=1e-12)
    assert model.loss_trace[0] == pytest.approx(float(target @ target))
    assert model.loss_trace[1] == 0.0
    assert loss(model, targets) == 0.0


def test_zero_epochs_leaves_all_vectors_zero():
    targets = TargetEmbeddings(dim=2, entries={"a": np.ones(2)})
    model = train(targets, SubwordTable({"a": 1.0}), TrainConfig(epochs=0))
    assert model.loss_trace == []
    assert np.array_equal(model.compose("a"), np.zeros(2))


def test_training_is_deterministic_given_seed():
    rng = np.random.default_rng(17)
    words = ["abc", "bca", "cab", "abca"]
    table = build_table({w: 1 for w in words})
    targets = TargetEmbeddings(
        dim=4, entries={w: rng.standard_normal(4) for w in words}
    )
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
    targets = TargetEmbeddings(dim=8, entries={w: rng.standard_normal(8) for w in words})
    model = train(targets, table, TrainConfig(epochs=20, seed=1))
    assert model.loss_trace[-1] < 0.1 * model.loss_trace[0]


def test_bos_training_also_converges():
    rng = np.random.default_rng(6)
    words = ["abcd", "bcda", "cdab"]
    targets = TargetEmbeddings(dim=4, entries={w: rng.standard_normal(4) for w in words})
    model = train(
        targets, SubwordTable({}), TrainConfig(epochs=30, seed=2, variant=Variant.BOS)
    )
    assert model.loss_trace[-1] < 0.1 * model.loss_trace[0]


def test_single_word_update_contracts_when_step_is_small():
    # after one update the residual scales by (1 - lr * sum of squared weights)
    table = build_table({"ab": 1})
    target = np.array([4.0, 0.0])
    targets = TargetEmbeddings(dim=2, entries={"ab": target})
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
    targets = TargetEmbeddings(dim=2, entries={"abcd": target})
    config = TrainConfig(epochs=1, lr_decay=False, variant=Variant.BOS)
    weight_sq = sum(w * w for _, w in composition_weights("abcd", SubwordTable({}), config))
    assert weight_sq > 2.0
    model = train(targets, SubwordTable({}), config)
    assert model.compose("abcd") == pytest.approx(target, abs=1e-12)


def test_train_rejects_non_finite_loss():
    targets = TargetEmbeddings(dim=2, entries={"a": np.array([np.inf, 0.0])})
    with pytest.raises(ValueError, match="epoch 1"):
        train(targets, SubwordTable({"a": 1.0}), TrainConfig(epochs=3))


# numpy warns about inf - inf in the epoch's updates before train raises
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
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
    assert "epoch 1" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_bad_targets():
    with pytest.raises(ValueError):
        train(TargetEmbeddings(dim=2, entries={}), UNIT, TrainConfig())
    bad = TargetEmbeddings(dim=2, entries={"a": np.zeros(3)})
    with pytest.raises(ValueError):
        train(bad, SubwordTable({"a": 1.0}), TrainConfig())


def test_loss_examples():
    zero = TargetEmbeddings(dim=2, entries={"a": np.zeros(2)})
    model = make_model(SubwordTable({"a": 1.0}))
    assert loss(model, zero) == 0.0
    one = TargetEmbeddings(dim=2, entries={"a": np.array([2.0, 0.0])})
    assert loss(model, one) == 4.0
    with pytest.raises(ValueError):
        loss(model, TargetEmbeddings(dim=2, entries={}))
    with pytest.raises(ValueError):
        loss(model, TargetEmbeddings(dim=5, entries={"a": np.zeros(5)}))


# --- gradient check -------------------------------------------------------------

def test_gradient_check_small_on_random_instances():
    rng = np.random.default_rng(0)
    table = build_table({"abc": 3, "bcd": 2, "cd": 5})
    for seed in range(5):
        words = ["abc", "bcdc", "da"]
        targets = TargetEmbeddings(
            dim=4, entries={w: rng.standard_normal(4) for w in words}
        )
        for variant in (Variant.PBOS, Variant.BOS):
            model = make_model(table, dim=4, variant=variant)
            assert gradient_check(model, targets, h=1e-5, seed=seed) < 1e-4


def test_gradient_check_zero_residual_gives_zero_analytic_gradient():
    target = np.array([1.0, 2.0])
    model = make_model(SubwordTable({"a": 1.0}), vectors={"a": target.copy()})
    targets = TargetEmbeddings(dim=2, entries={"a": target})
    residual = model.compose("a") - target
    assert np.array_equal(residual, np.zeros(2))
    assert gradient_check(model, targets) == 0.0


def test_gradient_check_rejects_pbos_n():
    model = make_model(SubwordTable({"a": 1.0}), variant=Variant.PBOS_N)
    targets = TargetEmbeddings(dim=2, entries={"a": np.ones(2)})
    with pytest.raises(ValueError):
        gradient_check(model, targets)


# --- persistence -----------------------------------------------------------------

def test_model_round_trips_through_directory(tmp_path):
    rng = np.random.default_rng(9)
    words = ["abc", "cab"]
    table = build_table({w: 2 for w in words})
    targets = TargetEmbeddings(dim=3, entries={w: rng.standard_normal(3) for w in words})
    model = train(targets, table, TrainConfig(epochs=3, seed=4))
    model.save(tmp_path / "model")
    loaded = PbosModel.load(tmp_path / "model")

    assert loaded.config == model.config
    assert loaded.table.probs == model.table.probs
    assert loaded.table.prob_eps == model.table.prob_eps
    assert loaded.loss_trace == model.loss_trace
    for word in words:
        # the float64 matrix is stored exactly: bitwise equal vectors
        assert loaded.compose(word).tobytes() == model.compose(word).tobytes()

    # re-saving the loaded model writes the same bytes
    loaded.save(tmp_path / "again")
    for name in ("vectors.npy", "rows.txt", "config", "subwords.tsv", "loss_trace.txt"):
        assert (tmp_path / "model" / name).read_bytes() == (
            tmp_path / "again" / name
        ).read_bytes(), name


def test_a_config_with_every_field_changed_round_trips(tmp_path):
    config = TrainConfig(
        epochs=3, lr0=0.25, lr_decay=False, variant=Variant.PBOS_N,
        bos_min_len=2, bos_max_len=4, bos_word_boundary=False, seed=11,
    )
    assert all(getattr(config, f.name) != f.default for f in fields(TrainConfig))
    PbosModel(SubwordTable({"a": 1.0}), SubwordEmbeddings(2), config).save(tmp_path)
    assert PbosModel.load(tmp_path).config == config


def test_loss_trace_round_trips_exactly(tmp_path):
    model = make_model(SubwordTable({"a": 1.0}))
    model.loss_trace = [0.1, 1.0 / 3.0, 5e-324, 1.7976931348623157e308, 0.0]
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


@pytest.mark.parametrize("damage, name", [
    (lambda d: (d / "vectors.npy").unlink(), "vectors.npy"),
    (lambda d: (d / "loss_trace.txt").unlink(), "loss_trace.txt"),
    (_write("config", "epochs 3\n"), "config"),
    (_write("config", "epochs\tmany\n"), "config"),
    (_write("config", "variant\tcbow\n"), "config"),
    (_write("config", "epoch\t5\n"), "config"),
    (_write("config", "lr_decay\tTrue\n"), "config"),
    (_write("config", "bos_word_boundary\tauto\n"), "config"),
    (_write("config", "prob_eps\t0.01\n"), "config"),
    (_write("subwords.tsv", "a\t2.0\n"), "subwords.tsv"),
    (_write("subwords.tsv", "a 0.5\n"), "subwords.tsv"),
    (lambda d: np.save(d / "vectors.npy", np.zeros((2, 2), dtype=np.float32)), "vectors.npy"),
    (lambda d: np.save(d / "vectors.npy", np.zeros(4)), "vectors.npy"),
    (lambda d: np.save(d / "vectors.npy", np.zeros((3, 2))), "vectors.npy"),
    (lambda d: np.save(d / "vectors.npy", np.array([[1.0, 2.0], [np.inf, 0.0]])), "vectors.npy"),
    (lambda d: (d / "vectors.npy").write_bytes(b"not an array"), "vectors.npy"),
    (_write("rows.txt", "a\na\n"), "rows.txt"),
    (_write("rows.txt", "a\nb"), "rows.txt"),
    (_write("loss_trace.txt", "0.5\nlow\n"), "loss_trace.txt"),
])
def test_load_errors_name_the_file(tmp_path, damage, name):
    vectors = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
    make_model(SubwordTable({"a": 0.5, "b": 0.5}), vectors=vectors).save(tmp_path)
    damage(tmp_path)
    with pytest.raises((ValueError, OSError)) as caught:
        PbosModel.load(tmp_path)
    assert str(tmp_path / name) in str(caught.value)
