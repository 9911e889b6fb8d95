import numpy as np
import pytest

from pbos import cli
from pbos.embedding_model import PbosModel, SubwordEmbeddings, TrainConfig
from pbos.subword_stats import SubwordTable


def test_segment_exits_2_on_a_nan_probability(tmp_path, capsys):
    subwords = tmp_path / "subwords.tsv"
    subwords.write_text("a\t0.5\nb\tnan\nab\t0.25\n", encoding="utf-8")
    code = cli.main(["segment", "--subwords", str(subwords), "ab"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert "line 2" in captured.err
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
        embeddings=SubwordEmbeddings(
            dim=2, vectors={"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        ),
        config=TrainConfig(),
    )
    model.save(tmp_path / "model")
    matrix_path = tmp_path / "model" / "vectors.npy"
    rows = (tmp_path / "model" / "rows.txt").read_text(encoding="utf-8").split("\n")
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


@pytest.mark.parametrize("command", ["predict", "eval-ws"])
def test_model_commands_exit_2_when_the_row_count_mismatches(tmp_path, capsys, command):
    model = PbosModel(
        table=SubwordTable({"a": 0.5, "b": 0.5}),
        embeddings=SubwordEmbeddings(
            dim=2, vectors={"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        ),
        config=TrainConfig(),
    )
    model.save(tmp_path / "model")
    with open(tmp_path / "model" / "rows.txt", "a", encoding="utf-8") as fh:
        fh.write("ab\n")
    inputs = tmp_path / "inputs.txt"
    inputs.write_text("a\tb\t1.0\nab\tb\t2.0\n", encoding="utf-8")
    flag = "--words" if command == "predict" else "--pairs"
    code = cli.main([command, "--model", str(tmp_path / "model"), flag, str(inputs)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert str(tmp_path / "model" / "vectors.npy") in captured.err
    assert "3 subwords" in captured.err
    assert captured.out == ""
