import argparse
import errno
import os
import stat
import subprocess
import sys
import threading
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from pbos import cli, io_formats
from pbos.embedding_model import PbosModel, SubwordEmbeddings, TrainConfig, Variant, bos_subword_counts
from pbos.evaluation import evaluate_affix_dataset, filter_affix_dataset, word_similarity
from pbos.lattice import MAX_TOP_K, MAX_WORD_LEN
from pbos.subword_stats import SubwordTable, build_table


def test_segment_exits_2_on_a_nan_probability(tmp_path, capsys):
    subwords = tmp_path / "subwords.tsv"
    subwords.write_text("a\t0.5\nb\tnan\nab\t0.25\n", encoding="utf-8")
    code = cli.main(["segment", "--subwords", str(subwords), "ab"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert f"{subwords}: subword 'b' has probability nan" in captured.err
    assert captured.out == ""


def test_train_rejects_a_non_finite_target_before_epoch_1(tmp_path, capsys):
    target = tmp_path / "target.txt"
    target.write_text("2 2\nba 1.0 -1.0\nab inf 0.5\n", encoding="utf-8")
    subwords = tmp_path / "subwords.tsv"
    subwords.write_text("a\t0.5\nb\t0.5\nab\t0.5\n", encoding="utf-8")
    out = tmp_path / "model"
    code = cli.main([
        "train", "--target", str(target), "--subwords", str(subwords),
        "--epochs", "2", "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert "record 2 ('ab')" in captured.err
    assert captured.out == ""  # no epoch ran
    assert not out.exists()


def test_predict_exits_2_on_a_nan_model_vector(tmp_path, capsys):
    model = PbosModel(
        table=SubwordTable({"a": 0.5, "b": 0.5}),
        embeddings=SubwordEmbeddings(["a", "b"], np.array([[1.0, 0.0], [0.0, 1.0]])),
        config=TrainConfig(),
    )
    model.save(tmp_path / "model")
    matrix_path = tmp_path / "model" / "vectors.npy"
    rows = (tmp_path / "model" / "subwords.txt").read_text(encoding="utf-8").split("\n")
    matrix = np.load(matrix_path)
    assert np.array_equal(matrix[rows.index("b")], [0.0, 1.0])
    matrix[rows.index("b"), 1] = np.nan
    np.save(matrix_path, matrix)
    words = tmp_path / "words.txt"
    words.write_text("ab\n", encoding="utf-8")
    code = cli.main(["predict", "--model", str(tmp_path / "model"), "--words", str(words)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert "('b')" in captured.err
    assert str(matrix_path) in captured.err
    assert captured.out == ""


def test_predict_exits_2_on_a_vector_that_overflows_and_keeps_the_out_file(tmp_path, capsys):
    # the six n-grams of ⟨abc⟩ each hold 1e308, so their sum overflows to inf
    ngrams = list(bos_subword_counts("abc", 3, 6, word_boundary=True))
    model = PbosModel(
        table=SubwordTable({}),
        embeddings=SubwordEmbeddings(ngrams, np.tile([1e308, 1.0], (len(ngrams), 1))),
        config=TrainConfig(variant=Variant.BOS),
    )
    model.save(tmp_path / "model")
    words = tmp_path / "words.txt"
    words.write_text("abc\n", encoding="utf-8")
    out = tmp_path / "vectors.txt"
    out.write_bytes(b"1 2\nab 0.5 0.5\n")
    command = ["predict", "--model", str(tmp_path / "model"), "--words", str(words)]
    for destination in (["--out", str(out)], []):
        code = cli.main(command + destination)
        captured = capsys.readouterr()
        assert code == cli.EXIT_DATA
        assert "row 1 ('abc') has a non-finite component" in captured.err
        assert captured.out == ""
    assert out.read_bytes() == b"1 2\nab 0.5 0.5\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["model", "vectors.txt", "words.txt"]


def test_commands_that_overflow_exit_2_without_a_numpy_warning(tmp_path, capsys):
    ngrams = list(bos_subword_counts("abc", 3, 6, word_boundary=True))
    model = PbosModel(
        table=SubwordTable({}),
        embeddings=SubwordEmbeddings(ngrams, np.tile([1e308, 1.0], (len(ngrams), 1))),
        config=TrainConfig(variant=Variant.BOS),
    )
    model.save(tmp_path / "model")
    words = tmp_path / "words.txt"
    words.write_text("abc\n", encoding="utf-8")
    # a finite target whose squared residual overflows
    target = tmp_path / "target.txt"
    target.write_text("1 2\na 1e200 0.0\n", encoding="utf-8")
    subwords = tmp_path / "subwords.tsv"
    subwords.write_text("a\t1.0\n", encoding="utf-8")
    commands = [
        ["predict", "--model", str(tmp_path / "model"), "--words", str(words)],
        ["train", "--target", str(target), "--subwords", str(subwords), "--out", str(tmp_path / "fit")],
    ]
    for command in commands:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(command)
        assert code == cli.EXIT_DATA
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert capsys.readouterr().err.startswith("pbos: ")


@pytest.mark.parametrize("command", ["predict", "eval-ws"])
def test_model_commands_exit_2_when_the_row_count_mismatches(tmp_path, capsys, command):
    model = PbosModel(
        table=SubwordTable({"a": 0.5, "b": 0.5}),
        embeddings=SubwordEmbeddings(["a", "b"], np.array([[1.0, 0.0], [0.0, 1.0]])),
        config=TrainConfig(),
    )
    model.save(tmp_path / "model")
    # one row more than subwords.txt has lines
    np.save(tmp_path / "model" / "vectors.npy", np.zeros((3, 2)))
    inputs = tmp_path / "inputs.txt"
    if command == "predict":  # query words are checked before the model is read
        inputs.write_text("a\nab\n", encoding="utf-8")
    else:
        inputs.write_text("a\tb\t1.0\nab\tb\t2.0\n", encoding="utf-8")
    flag = "--words" if command == "predict" else "--pairs"
    code = cli.main([command, "--model", str(tmp_path / "model"), flag, str(inputs)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert str(tmp_path / "model" / "vectors.npy") in captured.err
    assert "has 3 rows" in captured.err and "2 subwords" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("name", ["vectors.npy", "probs.npy"])
def test_predict_exits_2_on_an_empty_model_array_file_and_names_it(tmp_path, capsys, name):
    model = _save_model(tmp_path / "model")
    (tmp_path / "model" / name).write_bytes(b"")
    words = tmp_path / "words.txt"
    words.write_text("ab\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    code = cli.main(["predict", "--model", model, "--words", str(words), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert str(tmp_path / "model" / name) in captured.err
    assert not out.exists()


def _train_inputs(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("2 2\nab 1.0 -1.0\nba 0.5 0.5\n", encoding="utf-8")
    subwords = tmp_path / "subwords.tsv"
    subwords.write_text("a\t0.5\nb\t0.5\nab\t0.25\n", encoding="utf-8")
    return ["train", "--target", str(target), "--subwords", str(subwords)]


def test_train_with_the_required_flags_saves_the_default_config(tmp_path):
    out = tmp_path / "model"
    assert cli.main([*_train_inputs(tmp_path), "--out", str(out)]) == cli.EXIT_OK
    assert PbosModel.load(out).config == TrainConfig(seed=0)


def test_train_saves_every_flag_it_was_given(tmp_path):
    expected = TrainConfig(
        epochs=3, lr0=0.5, lr_decay=False, variant=Variant.BOS,
        bos_min_len=2, bos_max_len=4, bos_word_boundary=False, seed=7,
    )
    assert all(getattr(expected, f.name) != f.default for f in fields(TrainConfig))
    out = tmp_path / "model"
    code = cli.main([
        *_train_inputs(tmp_path), "--epochs", "3", "--lr", "0.5", "--no-lr-decay",
        "--variant", "bos", "--bos-min-len", "2", "--bos-max-len", "4",
        "--no-bos-word-boundary", "--seed", "7", "--out", str(out),
    ])
    assert code == cli.EXIT_OK
    loaded = PbosModel.load(out)
    assert loaded.config == expected
    with open(tmp_path / "subwords.tsv", encoding="utf-8") as fh:
        assert loaded.table == io_formats.read_subwords(fh)


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_train_checks_the_learning_rate_before_reading_any_file(tmp_path, capsys, lr):
    missing = str(tmp_path / "missing")
    code = cli.main(["train", "--target", missing, "--subwords", missing, "--lr", lr, "--out", missing])
    assert code == cli.EXIT_DATA
    assert "lr0" in capsys.readouterr().err


def _fail(*args):
    pytest.fail("read the table or composed a batch")


def test_bos_train_exits_2_on_a_word_holding_a_boundary_marker(tmp_path, capsys, monkeypatch):
    target = tmp_path / "target.txt"
    target.write_text("2 2\nab 1.0 -1.0\na⟩⟨b 0.5 0.5\n", encoding="utf-8")
    subwords = tmp_path / "subwords.tsv"
    subwords.write_text("a\t0.5\nb\t0.5\n", encoding="utf-8")
    out = tmp_path / "model"
    monkeypatch.setattr(io_formats, "read_subwords", _fail)
    code = cli.main([
        "train", "--target", str(target), "--subwords", str(subwords), "--variant", "bos",
        "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert captured.err == f"pbos: {target}: word 'a⟩⟨b' contains a reserved boundary marker\n"
    assert captured.out == ""
    assert not out.exists()


def _bos_model(directory):
    PbosModel(
        table=SubwordTable({"a": 0.5}),
        embeddings=SubwordEmbeddings(["⟨a⟩"], np.array([[1.0, 0.0]])),
        config=TrainConfig(variant=Variant.BOS, bos_min_len=1),
    ).save(directory)
    return str(directory)


def test_bos_predict_exits_2_on_a_word_holding_a_boundary_marker(tmp_path, capsys, monkeypatch):
    model = _bos_model(tmp_path / "model")
    words = tmp_path / "words.txt"
    words.write_text("a\na⟩⟨b\n", encoding="utf-8")
    monkeypatch.setattr(PbosModel, "compose_many", _fail)
    code = cli.main(["predict", "--model", model, "--words", str(words)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert captured.err == f"pbos: {words}: word 'a⟩⟨b' contains a reserved boundary marker\n"
    assert captured.out == ""


def test_bos_eval_ws_exits_2_on_a_word_holding_a_boundary_marker(tmp_path, capsys, monkeypatch):
    model = _bos_model(tmp_path / "model")
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("a\tab\t1.0\nb\ta⟨c\t2.0\n", encoding="utf-8")
    monkeypatch.setattr(PbosModel, "compose_many", _fail)
    code = cli.main(["eval-ws", "--model", model, "--pairs", str(pairs)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert captured.err == f"pbos: {pairs}: word 'a⟨c' contains a reserved boundary marker\n"
    assert captured.out == ""


@pytest.mark.parametrize("flags", [
    ["--variant", "pbos"], ["--variant", "pbos-n"], ["--variant", "bos", "--no-bos-word-boundary"],
], ids=["pbos", "pbos-n", "bos-no-boundary"])
def test_a_boundary_marker_is_an_ordinary_character_without_word_boundaries(tmp_path, capsys, flags):
    target = tmp_path / "target.txt"
    target.write_text("2 2\nab 1.0 -1.0\na⟨b⟩ 0.5 0.5\n", encoding="utf-8")
    subwords = tmp_path / "subwords.tsv"
    subwords.write_text("a\t0.5\nb\t0.5\nab\t0.25\n", encoding="utf-8")
    model = tmp_path / "model"
    argv = ["train", "--target", str(target), "--subwords", str(subwords), "--epochs", "1", *flags, "--out", str(model)]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    words = tmp_path / "words.txt"
    words.write_text("a⟩c\n", encoding="utf-8")
    assert cli.main(["predict", "--model", str(model), "--words", str(words)]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("1 2\na⟩c ")


def test_python_m_pbos_help_exits_0():
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "pbos", "--help"], env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("usage: pbos ")


def test_train_bos_ends_with_a_max_len_far_past_every_word(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("2 2\nab 1.0 0.0\nbc 0.0 1.0\n", encoding="utf-8")
    subwords = tmp_path / "subwords.tsv"
    subwords.write_text("a\t0.5\n", encoding="utf-8")
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "pbos", "train", "--target", str(target), "--subwords", str(subwords),
         "--variant", "bos", "--bos-max-len", "1000000000000", "--epochs", "1", "--out", str(tmp_path / "model")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == cli.EXIT_OK, result.stderr
    assert PbosModel.load(tmp_path / "model").config.bos_max_len == 10**12


def test_every_subcommand_help_exits_0(capsys):
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ["--help", *(f"{name} --help" for name in subparsers.choices)]:
        assert cli.main(command.split()) == cli.EXIT_OK
        assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("earlier", [None, "# prob_eps\t0.25\nab\t0.5\n"])
def test_build_subwords_leaves_no_partial_table(tmp_path, capsys, monkeypatch, earlier):
    freqs = tmp_path / "freqs.csv"
    freqs.write_text("abc,3\n", encoding="utf-8")
    out = tmp_path / "subwords.tsv"
    if earlier is not None:
        out.write_text(earlier, encoding="utf-8")

    write_subwords = io_formats.write_subwords

    def write_then_fail(table, stream):  # a disk that fills up after the whole table
        write_subwords(table, stream)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(io_formats, "write_subwords", write_then_fail)
    code = cli.main(["build-subwords", "--freqs", str(freqs), "--out", str(out)])
    assert code == cli.EXIT_DATA
    assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
    if earlier is None:
        assert not out.exists()
    else:
        assert out.read_text(encoding="utf-8") == earlier
    assert [path.name for path in tmp_path.iterdir() if path != out] == ["freqs.csv"]


def test_build_subwords_exits_2_on_a_count_total_beyond_float_range(tmp_path, capsys):
    freqs = tmp_path / "freqs.tsv"
    freqs.write_text(f"a\t1\nb\t{'9' * 400}\n", encoding="utf-8")
    code = cli.main(["build-subwords", "--freqs", str(freqs), "--out", str(tmp_path / "subwords.tsv")])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert captured.err == f"pbos: {freqs}: the count total is too large for a float\n"
    assert [path.name for path in tmp_path.iterdir()] == ["freqs.tsv"]


def test_build_subwords_names_the_frequency_file_when_no_count_is_left(tmp_path, capsys):
    freqs = tmp_path / "freqs.csv"
    freqs.write_text("abc,-3\n", encoding="utf-8")
    code = cli.main(["build-subwords", "--freqs", str(freqs), "--out", str(tmp_path / "subwords.tsv")])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err.splitlines()[-1] == f"pbos: {freqs}: empty frequency list"
    assert [path.name for path in tmp_path.iterdir()] == ["freqs.csv"]


def test_build_subwords_writes_the_table_that_read_subwords_and_a_model_give_back(tmp_path, capsys):
    freqs = tmp_path / "freqs.tsv"
    freqs.write_text("banana\t3\nbandana\t7\nnab,2\n", encoding="utf-8")
    subwords = tmp_path / "subwords.tsv"
    assert cli.main(["build-subwords", "--freqs", str(freqs), "--max-len", "4", "--out", str(subwords)]) == cli.EXIT_OK
    built = build_table({"banana": 3, "bandana": 7, "nab": 2}, max_len=4)
    with open(subwords, encoding="utf-8") as fh:  # as the benchmark's segment check reads it
        table = io_formats.read_subwords(fh)
    assert table == built
    assert (table.max_len, table.total_mass) == (4, built.total_mass)  # the settings compare too
    PbosModel(table, SubwordEmbeddings(["ban"], np.ones((1, 2))), TrainConfig()).save(tmp_path / "model")
    assert PbosModel.load(tmp_path / "model").table == table


def _save_model(directory):
    PbosModel(
        table=SubwordTable({"a": 0.5, "b": 0.5}),
        embeddings=SubwordEmbeddings(["a", "b"], np.array([[1.0, 0.0], [0.0, 1.0]])),
        config=TrainConfig(),
    ).save(directory)
    return str(directory)


def test_predict_leaves_an_existing_out_file_as_it_was_when_it_fails(tmp_path, capsys):
    model = _save_model(tmp_path / "model")
    words = tmp_path / "words.txt"
    out = tmp_path / "vectors.txt"
    words.write_text("ab\n", encoding="utf-8")
    assert cli.main(["predict", "--model", model, "--words", str(words), "--out", str(out)]) == cli.EXIT_OK
    written = out.read_bytes()
    assert written == b"1 2\nab 0.5 0.5\n"
    words.write_text("ab\na b\n", encoding="utf-8")  # "a b" cannot be a token
    code = cli.main(["predict", "--model", model, "--words", str(words), "--out", str(out)])
    assert code == cli.EXIT_DATA
    assert "'a b'" in capsys.readouterr().err
    assert out.read_bytes() == written
    assert sorted(path.name for path in tmp_path.iterdir()) == ["model", "vectors.txt", "words.txt"]


@pytest.mark.parametrize("line_break", ["\u2028", "\x85"])
def test_predict_splits_query_words_at_newlines_only(tmp_path, capsys, line_break):
    model = _save_model(tmp_path / "model")
    words = tmp_path / "words.txt"
    out = tmp_path / "vectors.txt"
    out.write_bytes(b"1 2\nab 0.5 0.5\n")
    words.write_text(f"ab\nab{line_break}b\n", encoding="utf-8")
    code = cli.main(["predict", "--model", model, "--words", str(words), "--out", str(out)])
    assert code == cli.EXIT_DATA
    assert repr(f"ab{line_break}b") in capsys.readouterr().err
    assert out.read_bytes() == b"1 2\nab 0.5 0.5\n"


def test_predict_checks_the_words_file_before_it_reads_the_model(tmp_path, capsys):
    words = tmp_path / "words.txt"
    words.write_text("ab\na b\n", encoding="utf-8")
    code = cli.main(["predict", "--model", str(tmp_path / "missing"), "--words", str(words)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert f"{words}: token is empty or contains whitespace: 'a b'" in captured.err
    assert str(tmp_path / "missing") not in captured.err
    assert captured.out == ""


def test_predict_rejects_an_over_long_word_by_file_and_line_before_it_reads_the_model(tmp_path, capsys):
    words = tmp_path / "words.txt"
    words.write_text(f"ab\n{'a' * MAX_WORD_LEN}\n\n{'b' * (MAX_WORD_LEN + 1)}\n", encoding="utf-8")
    code = cli.main(["predict", "--model", str(tmp_path / "missing"), "--words", str(words)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert captured.err == (
        f"pbos: {words}: line 4: word of length {MAX_WORD_LEN + 1} exceeds the guard of {MAX_WORD_LEN}\n"
    )
    assert captured.out == ""


def test_eval_ws_rejects_an_over_long_word_by_file_and_line_before_it_reads_the_model(tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(f"# words\na\tb\t1.0\nab\t{'a' * (MAX_WORD_LEN + 1)}\t2.0\n", encoding="utf-8")
    code = cli.main(["eval-ws", "--model", str(tmp_path / "missing"), "--pairs", str(pairs)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert captured.err == (
        f"pbos: {pairs}: line 3: word of length {MAX_WORD_LEN + 1} exceeds the guard of {MAX_WORD_LEN}\n"
    )
    assert captured.out == ""


def _over_long(path, line):
    return f"pbos: {path}: {line}: word of length {MAX_WORD_LEN + 1} exceeds the guard of {MAX_WORD_LEN}\n"


def test_eval_ws_rejects_a_word_whose_lowercase_is_over_long_before_it_reads_the_model(tmp_path, capsys):
    # "İ" lowercases to two characters, and word_similarity composes the lowercase
    word = "İ" * (MAX_WORD_LEN // 2) + "a"
    assert len(word) <= MAX_WORD_LEN < len(word.lower()) == MAX_WORD_LEN + 1
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(f"a\tb\t1.0\nab\t{word}\t2.0\n", encoding="utf-8")
    code = cli.main(["eval-ws", "--model", str(tmp_path / "missing"), "--pairs", str(pairs)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert captured.err == _over_long(pairs, "line 2")
    assert captured.out == ""


@pytest.mark.parametrize("lowercase", [False, True])
def test_build_subwords_rejects_an_over_long_word_by_file_and_line_before_it_builds_the_table(
    tmp_path, capsys, monkeypatch, lowercase
):
    # with --lowercase the word counted is the lowercase, one character longer here
    word = "İ" + "a" * (MAX_WORD_LEN - 1) if lowercase else "a" * (MAX_WORD_LEN + 1)
    freqs = tmp_path / "freqs.tsv"
    freqs.write_text(f"ab\t3\nnot a line\n\n{word}\t2\n", encoding="utf-8")
    out = tmp_path / "subwords.tsv"
    monkeypatch.setattr(cli, "build_table", lambda *args, **kwargs: pytest.fail("the table was built"))
    code = cli.main(["build-subwords", "--freqs", str(freqs), "--out", str(out), *(["--lowercase"] * lowercase)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert captured.err == _over_long(freqs, "line 4")
    assert not out.exists()


def test_train_rejects_an_over_long_target_by_file_and_record_before_it_reads_the_table(tmp_path, capsys):
    target = tmp_path / "target.txt"
    target.write_text(f"2 2\nab 1.0 -1.0\n{'a' * (MAX_WORD_LEN + 1)} 0.5 0.5\n", encoding="utf-8")
    out = tmp_path / "model"
    code = cli.main([
        "train", "--target", str(target), "--subwords", str(tmp_path / "missing"), "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert captured.err == _over_long(target, "record 2")
    assert captured.out == ""
    assert not out.exists()


def test_eval_affix_rejects_an_over_long_word_by_file_and_line_before_it_reads_the_table(tmp_path, capsys):
    _, inventory, data = _affix_inputs(tmp_path)
    data.write_text(f"regravely\tre\n# comment\n{'re' + 'a' * (MAX_WORD_LEN - 1)}\tre\n", encoding="utf-8")
    code = cli.main([
        "eval-affix", "--subwords", str(tmp_path / "missing"), "--inventory", str(inventory), "--data", str(data),
    ])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert captured.err == _over_long(data, "line 3")
    assert captured.out == ""


def test_predict_out_through_a_symlink_replaces_its_target(tmp_path):
    model = _save_model(tmp_path / "model")
    words = tmp_path / "words.txt"
    words.write_text("ab\n", encoding="utf-8")
    target = tmp_path / "vectors.txt"
    target.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    code = cli.main(["predict", "--model", model, "--words", str(words), "--out", str(link)])
    assert code == cli.EXIT_OK
    assert link.is_symlink()
    assert target.read_bytes() == b"1 2\nab 0.5 0.5\n"


def test_predict_out_to_a_pipe_writes_into_it(tmp_path):
    model = _save_model(tmp_path / "model")
    words = tmp_path / "words.txt"
    words.write_text("ab\n", encoding="utf-8")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code = cli.main(["predict", "--model", model, "--words", str(words), "--out", str(fifo)])
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert code == cli.EXIT_OK
    assert received == [b"1 2\nab 0.5 0.5\n"]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


@pytest.mark.parametrize("command", ["segment", "train", "eval-affix"])
def test_a_malformed_subwords_file_is_named_with_its_line(tmp_path, capsys, command):
    subwords = tmp_path / "subwords.tsv"
    subwords.write_text("a\t0.5\nb 0.5\n", encoding="utf-8")
    target = tmp_path / "target.txt"
    target.write_text("1 2\nab 1.0 -1.0\n", encoding="utf-8")
    data = tmp_path / "data.txt"
    data.write_text("rebaked\tre\n", encoding="utf-8")
    inventory = tmp_path / "inventory.txt"
    inventory.write_text("re\tprefix\ned\tsuffix\n", encoding="utf-8")
    argv = {
        "segment": ["ab"],
        "train": ["--target", str(target), "--out", str(tmp_path / "model")],
        "eval-affix": ["--data", str(data), "--inventory", str(inventory)],
    }[command]
    code = cli.main([command, "--subwords", str(subwords), *argv])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert f"{subwords}: line 2" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["predict", "build-subwords"])
def test_a_non_utf8_input_file_is_named(tmp_path, capsys, command):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("café,3\n".encode("latin-1"))
    out = tmp_path / "out.txt"
    if command == "predict":
        argv = ["--model", _save_model(tmp_path / "model"), "--words", str(latin1)]
    else:
        argv = ["--freqs", str(latin1)]
    code = cli.main([command, *argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert str(latin1) in captured.err
    assert not out.exists()


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.sparse"])
def test_importing_the_cli_leaves_scipy_stats_unloaded(module):
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", f"import sys, pbos.cli; print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert result.stdout == "False\n"


def test_predict_leaves_scipy_sparse_unloaded(tmp_path):
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    words = tmp_path / "words.txt"
    words.write_text("ab\nba\n", encoding="utf-8")
    argv = ["predict", "--model", _save_model(tmp_path / "model"), "--words", str(words), "--out", str(tmp_path / "out")]
    program = "import sys; from pbos import cli; print(cli.main(sys.argv[1:]), 'scipy.sparse' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", program, *argv], env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert result.stdout == "0 False\n"


@pytest.mark.parametrize("command", ["train", "predict", "eval-ws"])
def test_a_command_leaves_scipy_unloaded(tmp_path, command):
    # and every other third-party package: a command imports only the stdlib, numpy and pbos
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    words = tmp_path / "words.txt"
    words.write_text("ab\nba\n", encoding="utf-8")
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("a\tb\t1.0\na\tab\t5.0\nb\tab\t4.0\n", encoding="utf-8")
    model = _save_model(tmp_path / "model")
    argv = {
        "train": [*_train_inputs(tmp_path), "--epochs", "1", "--out", str(tmp_path / "trained")],
        "predict": ["predict", "--model", model, "--words", str(words), "--out", str(tmp_path / "out")],
        "eval-ws": ["eval-ws", "--model", model, "--pairs", str(pairs)],
    }[command]
    # a module without a __file__ is built in, such as numpy's Cython shims
    program = (
        "import sys; before = set(sys.modules); from pbos import cli; code = cli.main(sys.argv[1:]); "
        "new = {name.split('.')[0] for name in set(sys.modules) - before}; "
        "print(code, sorted(name for name in new if name not in sys.stdlib_module_names "
        "and name not in ('numpy', 'pbos') and getattr(sys.modules.get(name), '__file__', None)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", program, *argv], env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert result.stdout.splitlines()[-1] == "0 []"


def test_segment_exits_2_on_a_k_above_the_bound(tmp_path, capsys):
    missing = tmp_path / "subwords.tsv"  # --k is checked before the table is read
    code = cli.main(["segment", "--subwords", str(missing), "--k", str(MAX_TOP_K + 1), "ab"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert captured.err == f"pbos: --k must be in 1..{MAX_TOP_K}, got {MAX_TOP_K + 1}\n"
    assert captured.out == ""


@pytest.mark.parametrize("k", [-1, 0])
def test_segment_exits_2_on_a_k_below_1(tmp_path, capsys, k):
    missing = tmp_path / "subwords.tsv"  # --k is checked before the table is read
    code = cli.main(["segment", "--subwords", str(missing), "--k", str(k), "ab"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert captured.err == f"pbos: --k must be in 1..{MAX_TOP_K}, got {k}\n"
    assert captured.out == ""


@pytest.mark.parametrize("max_len", [-1, 0])
def test_build_subwords_checks_max_len_before_reading_the_frequencies(tmp_path, capsys, max_len):
    missing = tmp_path / "freqs.csv"  # --max-len is checked before the list is read
    code = cli.main(["build-subwords", "--freqs", str(missing), "--max-len", str(max_len), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert captured.err == f"pbos: --max-len must be at least 1, got {max_len}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == []


@pytest.mark.parametrize("m", [-1, 0])
def test_segment_exits_2_on_an_m_below_1(tmp_path, capsys, m):
    subwords = tmp_path / "subwords.tsv"
    subwords.write_text("a\t0.5\nb\t0.5\n", encoding="utf-8")
    code = cli.main(["segment", "--subwords", str(subwords), "--m", str(m), "ab"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert "--m" in captured.err
    assert captured.out == ""


def test_segment_prints_the_top_segmentations_and_subword_weights(tmp_path, capsys):
    subwords = tmp_path / "subwords.tsv"
    subwords.write_text("a\t0.3\nb\t0.3\nab\t0.2\nba\t0.2\n", encoding="utf-8")
    code = cli.main(["segment", "--subwords", str(subwords), "--k", "2", "--m", "5", "abab"])
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out == (
        "abab\tab/ab (0.392), a/b/ab (0.176)\tab (0.423), a (0.256), b (0.256), ba (0.066)\n"
    )


def test_an_unknown_flag_exits_1(capsys):
    # no command takes an ε or a norm floor
    for argv, unknown in [
        (["segment", "--subwords", "subwords.tsv", "ab"], ["--bogus"]),
        (["build-subwords", "--freqs", "freqs.tsv", "--out", "subwords.tsv"], ["--prob-eps", "0.25"]),
        (["train", "--target", "target.txt", "--subwords", "subwords.tsv", "--out", "model"], ["--prob-eps", "0.25"]),
        (["eval-ws", "--model", "model", "--pairs", "pairs.txt"], ["--norm-floor", "0"]),
    ]:
        assert cli.main([*argv, *unknown]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {' '.join(unknown)}" in captured.err
        assert captured.out == ""


def test_build_subwords_lowercase_merges_case_variants_and_counts_malformed_lines(tmp_path, capsys):
    freqs = tmp_path / "freqs.csv"
    freqs.write_text("Ab,3\nab,2\nAB,1\nno count here\nba\t4\n", encoding="utf-8")
    out = tmp_path / "subwords.tsv"
    code = cli.main(["build-subwords", "--freqs", str(freqs), "--lowercase", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK
    assert "skipped 1 malformed frequency lines" in captured.err
    expected = build_table({"ab": 6, "ba": 4})
    assert f"wrote {len(expected)} subwords to {out}" in captured.err
    with open(out, encoding="utf-8") as fh:
        assert io_formats.read_subwords(fh) == expected


def test_train_reports_skipped_duplicate_targets(tmp_path, capsys):
    argv = _train_inputs(tmp_path)
    (tmp_path / "target.txt").write_text("3 2\nab 1.0 -1.0\nba 0.5 0.5\nab 2.0 2.0\n", encoding="utf-8")
    code = cli.main([*argv, "--epochs", "2", "--out", str(tmp_path / "model")])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK
    assert "skipped 1 duplicate target tokens" in captured.err
    assert [line.split("\t")[0] for line in captured.out.splitlines()] == ["1", "2"]


def test_predict_to_stdout_writes_what_out_writes(tmp_path, capsys):
    model = _save_model(tmp_path / "model")
    words = tmp_path / "words.txt"
    words.write_text("ab\nba\n\n ab \nb\n", encoding="utf-8")
    assert cli.main(["predict", "--model", model, "--words", str(words)]) == cli.EXIT_OK
    printed = capsys.readouterr().out
    out = tmp_path / "vectors.txt"
    assert cli.main(["predict", "--model", model, "--words", str(words), "--out", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == printed.encode("utf-8")
    assert printed.startswith("3 2\nab ")


def test_predict_exits_2_on_no_query_words(tmp_path, capsys):
    model = _save_model(tmp_path / "model")
    words = tmp_path / "words.txt"
    words.write_text("\n  \n", encoding="utf-8")
    out = tmp_path / "vectors.txt"
    code = cli.main(["predict", "--model", model, "--words", str(words), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert "empty query word list" in captured.err
    assert not out.exists()


def test_train_checks_the_seed_before_reading_any_file(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    code = cli.main(["train", "--target", missing, "--subwords", missing, "--seed", "-1", "--out", missing])
    assert code == cli.EXIT_DATA
    assert "seed must be >= 0, got -1" in capsys.readouterr().err  # not a file error


def test_eval_ws_prints_the_pairs_skipped_lines_and_spearman(tmp_path, capsys):
    model = _save_model(tmp_path / "model")
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("A\tb\t1.0\na\tab\t5.0\nb\tab\t4.0\naab\tb\t6.0\nnot a pair\n", encoding="utf-8")
    assert cli.main(["eval-ws", "--model", model, "--pairs", str(pairs)]) == cli.EXIT_OK
    with open(pairs, encoding="utf-8") as fh:
        read, skipped = io_formats.read_similarity_pairs(fh)
    rho = word_similarity(PbosModel.load(model), read)
    assert (len(read), skipped) == (4, 1)
    assert capsys.readouterr().out == f"pairs\t4\nskipped_lines\t1\nspearman\t{rho:.6f}\n"


def _affix_inputs(tmp_path):
    subwords = tmp_path / "subwords.tsv"
    with open(subwords, "w", encoding="utf-8") as fh:
        io_formats.write_subwords(build_table({"grave": 50, "able": 80, "re": 40, "un": 40, "ly": 60, "kind": 30}), fh)
    inventory = tmp_path / "inventory.txt"
    inventory.write_text("re\tprefix\nun\tprefix\nable\tsuffix\nness\tsuffix\nly\tsuffix\n", encoding="utf-8")
    data = tmp_path / "data.txt"
    data.write_text(
        "regravely\tre\nungraveable\table\nunkindness\tness\nunkindly\tun\nreable\tre\n"
        "kindly\tly\nmystery\tunknown\n",
        encoding="utf-8",
    )
    return subwords, inventory, data


@pytest.mark.parametrize("case", ["no-pairs", "no-affixes", "none-kept"])
def test_an_evaluation_with_nothing_to_score_exits_2_before_it_reads_the_model_or_table(tmp_path, capsys, case):
    _, inventory, data = _affix_inputs(tmp_path)
    missing = str(tmp_path / "missing")
    if case == "no-pairs":
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("# only a comment\na\tb\nc\td\tnan\n", encoding="utf-8")
        argv, message = ["eval-ws", "--model", missing, "--pairs", str(pairs)], f"no usable pairs in {pairs}"
    else:
        if case == "no-affixes":
            inventory.write_text("# affixes\nre\tinfix\nly\n", encoding="utf-8")
            message = f"no usable affixes in {inventory}"
        else:
            data.write_text("kindly\tly\nregrave\tre\n", encoding="utf-8")  # one possible affix each
            message = "no instances remain after filtering"
        argv = ["eval-affix", "--subwords", missing, "--inventory", str(inventory), "--data", str(data)]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert (captured.err, captured.out) == (f"pbos: {message}\n", "")


@pytest.mark.parametrize("predictor", ["pbos", "random"])
def test_eval_affix_prints_the_counts_and_scores(tmp_path, capsys, predictor):
    subwords, inventory, data = _affix_inputs(tmp_path)
    code = cli.main([
        "eval-affix", "--subwords", str(subwords), "--inventory", str(inventory),
        "--data", str(data), "--predictor", predictor, "--seed", "3",
    ])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK
    with open(subwords, encoding="utf-8") as fh:
        table = io_formats.read_subwords(fh)
    with open(inventory, encoding="utf-8") as fh:
        affixes, _ = io_formats.read_affix_inventory(fh)
    with open(data, encoding="utf-8") as fh:
        instances, _ = io_formats.read_affix_instances(fh, affixes)
    kept = filter_affix_dataset(instances, affixes)
    assert len(kept) == 5  # "kindly" admits only -ly
    precision, recall, f1 = evaluate_affix_dataset(kept, affixes, predictor=predictor, table=table, seed=3)
    assert captured.out == (
        f"instances\t5\nfiltered_out\t1\nprecision\t{precision:.6f}\n"
        f"recall\t{recall:.6f}\nf1\t{f1:.6f}\n"
    )
    assert "(1 filtered, 1 lines skipped)" in captured.err


@pytest.mark.parametrize("subwords", [["--subwords", "missing.tsv"], []], ids=["missing-file", "no-flag"])
def test_eval_affix_with_the_random_predictor_reads_no_subword_table(tmp_path, capsys, subwords):
    _, inventory, data = _affix_inputs(tmp_path)
    code = cli.main([
        "eval-affix", *subwords, "--inventory", str(inventory), "--data", str(data),
        "--predictor", "random", "--seed", "3",
    ])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK
    with open(inventory, encoding="utf-8") as fh:
        affixes, _ = io_formats.read_affix_inventory(fh)
    with open(data, encoding="utf-8") as fh:
        kept = filter_affix_dataset(io_formats.read_affix_instances(fh, affixes)[0], affixes)
    precision, recall, f1 = evaluate_affix_dataset(kept, affixes, predictor="random", seed=3)
    assert captured.out == (
        f"instances\t5\nfiltered_out\t1\nprecision\t{precision:.6f}\n"
        f"recall\t{recall:.6f}\nf1\t{f1:.6f}\n"
    )


def test_eval_affix_with_the_pbos_predictor_and_no_subwords_is_a_usage_error_before_any_file_is_read(
    tmp_path, capsys
):
    missing = str(tmp_path / "missing")
    code = cli.main(["eval-affix", "--inventory", missing, "--data", missing])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.err.startswith("usage: pbos eval-affix ")
    assert captured.err.endswith("pbos eval-affix: error: the pbos predictor needs --subwords\n")
    assert captured.out == ""
