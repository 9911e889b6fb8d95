"""Output checks, run after the timed region.

Each check returns a list of failure messages (empty when the output is
right).  Oracles enumerate every segmentation with
``lattice.enumerate_all_segmentations`` and accumulate mass segmentation
by segmentation, so they stay valid whatever the lattice DP does.
"""

from __future__ import annotations

import math

import numpy as np

from pbos import lattice

COMPOSE_ORACLE_MAX_LEN = 12
TOP_K_ORACLE_MAX_LEN = 14


def _product(segments, table) -> float:
    product = 1.0
    for segment in segments:
        product *= table.lookup(segment)
    return product


def oracle_weights(word: str, table) -> dict[str, float]:
    acc: dict[str, float] = {}
    for segments in lattice.enumerate_all_segmentations(word):
        mass = _product(segments, table)
        if mass == 0.0:
            continue
        for segment in segments:
            acc[segment] = acc.get(segment, 0.0) + mass
    total = sum(acc.values())
    return {sub: value / total for sub, value in acc.items()}


def subword_vector(model, subword: str):
    """The trained vector of ``subword``, or None when it has none.  The
    only place the checks read the model's vector store."""
    return model.embeddings.vectors.get(subword)


def check_compose(word: str, got, model) -> list[str]:
    """``got`` equals the weighted sum of subword vectors under oracle
    weights (pbos variant)."""
    expected = np.zeros(len(got))
    for sub, weight in oracle_weights(word, model.table).items():
        vec = subword_vector(model, sub)
        if vec is not None:
            expected += weight * np.asarray(vec, dtype=np.float64)
    err = float(np.max(np.abs(np.asarray(got, dtype=np.float64) - expected)))
    if not err <= 1e-8 * (1.0 + float(np.max(np.abs(expected)))):
        return [f"compose({word!r}) differs from the oracle by {err:.3g}"]
    return []


def check_vector(word: str, got, dim: int) -> list[str]:
    if isinstance(got, BaseException):
        return [f"compose({word!r}) raised {got!r}"]
    arr = np.asarray(got)
    if arr.shape != (dim,) or not np.all(np.isfinite(arr)):
        return [f"compose({word!r}) gave shape {arr.shape} or non-finite values"]
    return []


def parse_embeddings(path) -> tuple[int, dict[str, np.ndarray], list[str]]:
    """Parse a word2vec text file without the program's reader."""
    failures: list[str] = []
    rows: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            return 0, rows, [f"bad header {header!r} in {path}"]
        count, dim = int(header[0]), int(header[1])
        for line in fh:
            fields = line.rstrip("\n").split(" ")
            try:
                vec = np.array([float(x) for x in fields[1:]])
            except ValueError:
                failures.append(f"non-numeric row for {fields[0]!r}")
                continue
            if vec.shape != (dim,) or not np.all(np.isfinite(vec)):
                failures.append(f"row for {fields[0]!r} has a wrong size or non-finite values")
            if fields[0] in rows:
                failures.append(f"duplicate row for {fields[0]!r}")
            rows[fields[0]] = vec
    if count != len(rows):
        failures.append(f"header declares {count} rows, file has {len(rows)}")
    return dim, rows, failures


def check_predict_output(path, words: list[str], composed: dict) -> list[str]:
    """One finite row per distinct query word, each equal (to the text
    precision) to the in-process composition of that word."""
    dim, rows, failures = parse_embeddings(path)
    missing = [w for w in words if w not in rows]
    extra = len(set(rows) - set(words))
    if missing or extra:
        failures.append(f"predict output lacks {len(missing)} query words and has {extra} others")
    for word in words:
        if word in rows and word in composed:
            if not np.allclose(rows[word], composed[word], rtol=1e-7, atol=1e-9):
                failures.append(f"predict row for {word!r} differs from compose")
    return failures


def check_train_losses(losses: list[float], min_epochs: int) -> list[str]:
    if len(losses) < min_epochs:
        return [f"train printed {len(losses)} epoch losses, expected {min_epochs}"]
    if not all(math.isfinite(x) for x in losses):
        return ["train printed a non-finite loss"]
    if len(losses) > 1 and not losses[-1] < losses[0]:
        return [f"final loss {losses[-1]} is not below the epoch-1 loss {losses[0]}"]
    return []


def parse_losses(stdout: str) -> list[float]:
    losses = []
    for line in stdout.splitlines():
        epoch, _, value = line.partition("\t")
        if epoch.strip().isdigit():
            losses.append(float(value))
    return losses


def _ranked(word: str, table) -> list[tuple[tuple[str, ...], float]]:
    scored = [(seg, _product(seg, table)) for seg in lattice.enumerate_all_segmentations(word)]
    total = sum(p for _, p in scored)
    scored = [(seg, p / total) for seg, p in scored]
    scored.sort(key=lambda item: (-item[1], len(item[0]), item[0]))
    return scored


def parse_segment_line(line: str) -> tuple[str, list[tuple[tuple[str, ...], float]]]:
    word, seg_text, _ = line.split("\t")
    segs = []
    for item in seg_text.split(", "):
        body, _, prob = item.rpartition(" (")
        segs.append((tuple(body.split("/")), float(prob.rstrip(")"))))
    return word, segs


def check_top_k(word: str, printed, table, k: int) -> list[str]:
    """The printed segmentations are the ``k`` best by brute force; ties
    (equal likelihood to 1e-9) may come in either order."""
    ranked = _ranked(word, table)
    likelihood = dict(ranked)
    if len(printed) != min(k, len(ranked)):
        return [f"segment {word!r}: printed {len(printed)} segmentations, expected {min(k, len(ranked))}"]
    for i, (seg, prob) in enumerate(printed):
        true = likelihood.get(seg)
        if true is None or "".join(seg) != word:
            return [f"segment {word!r}: {seg!r} does not spell the word"]
        if not math.isclose(true, ranked[i][1], rel_tol=1e-9, abs_tol=1e-300):
            return [f"segment {word!r}: rank {i + 1} is {seg!r}, brute force has {ranked[i][0]!r}"]
        if abs(prob - true) > 5e-4 + 1e-12:
            return [f"segment {word!r}: printed likelihood {prob} for {seg!r}, brute force {true:.6f}"]
    return []
