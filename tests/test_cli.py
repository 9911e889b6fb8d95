import numpy as np

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
    vectors = tmp_path / "model" / "vectors.txt"
    text = vectors.read_text(encoding="utf-8")
    assert "b 0 1\n" in text
    vectors.write_text(text.replace("b 0 1\n", "b 0 nan\n"), encoding="utf-8")
    words = tmp_path / "words.txt"
    words.write_text("ab\n", encoding="utf-8")
    code = cli.main(["predict", "--model", str(tmp_path / "model"), "--words", str(words)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert "('b')" in captured.err
    assert captured.out == ""
