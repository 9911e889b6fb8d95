"""Subword vector composition and SGD fitting against target embeddings.

Three composition variants share one trainable lookup table of subword
vectors:

* ``pbos``   - weighted sum of subword vectors, weights from the
  segmentation lattice (they sum to 1 per word);
* ``bos``    - uniform sum over boundary-marked character n-grams of
  bounded length, one unit of weight per occurrence;
* ``pbos-n`` - like ``pbos`` but every stored vector is L2-normalized
  before the weighted sum (zero vectors pass through).

Training runs per-word SGD on the mean-square loss against the target
vectors, with an optional inverse-square-root learning-rate decay.  Each
word's step is ``lr / max(1, sum(w**2))`` over its weights ``w``: one
update scales that word's residual by ``1 - step * sum(w**2)``, and with
the plain ``lr`` the bos n-gram counts (``sum(w**2) >= 3``) make that
factor exceed 1 in size, so training diverges.  The pbos and pbos-n
weights sum to 1, so their step is the plain ``lr``.  Subword vectors start
at zero, and a subword without a vector composes as zero, so an untrained
model composes the zero vector for every word.

All subword vectors live in one float64 matrix, one row per subword, with
a subword-to-row index: the named-vector store :class:`SubwordEmbeddings`
of :mod:`pbos.io_formats`, which checks its matrix when it is built.
Training, composition, saving and loading share it, and the same store
holds the target vectors ``train``, :func:`loss` and
:func:`gradient_check` read and the vectors ``predict`` writes.

A model composes words one way: :func:`weight_matrix`, the only caller
of :func:`composition_weights` and :func:`lattice.weight_rows`, reads
their weights into the word x subword weight matrix ``W``; a word's
vector is ``_weighted_sum`` of its row and the matrix rows it indexes.
:meth:`PbosModel.compose_many` reads ``W`` of a batch (``predict``,
``eval-ws``, :func:`loss`) without touching the memo, and
:meth:`PbosModel.compose` memoizes the row of a one-word batch.  ``train``
and ``gradient_check`` read ``W`` of the targets.  A batch of more than
one word takes its lattice weights from :func:`lattice.weight_rows`, all
words at once in arrays; one word, and every ``bos`` batch, reads
:func:`composition_weights`, whose rows :func:`lattice.csr_rows` writes.
Both give the same bits, so a word's row of ``W`` does not depend on the
batch it is in.  ``csr_rows`` is the one scalar row writer and holds the
one column rule, which ``weight_rows`` follows too: new subwords are
numbered in first-seen order and reach ``columns`` only once the batch
is done, so a batch that raises leaves ``columns`` as it was.

A word's vector is a pure function of its spelling and the model, so
``compose`` memoizes it in a dict field of the model, word -> vector,
that holds at most ``COMPOSE_MEMO_BYTES`` of vectors and evicts the
oldest entry first.  The dict holds no reference to its model, so a
dropped model is freed at once.  No memoized vector goes stale, because
nothing ``compose`` reads can change: :class:`PbosModel`,
:class:`TrainConfig` and :class:`SubwordTable` are frozen, the table's
``probs``, the embeddings' ``index`` and matrix and the arrays ``compose``
returns are read-only.  A pickled or deep-copied model keeps its matrix
read-only and starts with an empty memo.

A model directory stores each subword once:

* ``config.json``  - the :class:`TrainConfig` fields under ``"train"``,
  :func:`io_formats.table_settings` under ``"table"``, and ``"loss_trace"``;
* ``subwords.txt`` - one subword per line (split at ``\\n`` only): those
  with a vector, in matrix row order, then those only in the table;
* ``probs.npy``    - their table probabilities, float64; 0.0 means no
  table entry, which only a subword with a vector may lack;
* ``vectors.npy``  - the matrix, written by ``np.save`` as float64.

Floats are stored exactly, so a loaded model composes bit for bit the
vectors the saved one did, and saving it again writes the same bytes.
``save`` writes four partial files (:func:`io_formats.replaced`), then
replaces the four model files together, ``config.json`` last.
``load`` memory-maps ``vectors.npy`` read-only, checks that the matrix has
no more rows than there are subwords, builds the table as ``read_subwords``
does (:func:`io_formats.subword_table`), leaves the rest to the checks of
the store, :class:`TrainConfig` and :class:`SubwordTable`, and names the
files behind every error it raises.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import compress
from pathlib import Path

import numpy as np

from . import lattice
from .io_formats import (
    SubwordEmbeddings, TargetEmbeddings, _unique_keys, naming, replaced, subword_table, table_settings,
)
from .subword_stats import SubwordTable

# Reserved boundary markers, assumed absent from the data alphabet.
BOUNDARY_START = "⟨"  # ⟨
BOUNDARY_END = "⟩"    # ⟩

MODEL_CONFIG_FILE = "config.json"
MODEL_SUBWORDS_FILE = "subwords.txt"
MODEL_PROBS_FILE = "probs.npy"
MODEL_MATRIX_FILE = "vectors.npy"

# Bound on the vector bytes each model's compose memo holds: 20,971
# vectors of dim 50, 3,495 of dim 300.
COMPOSE_MEMO_BYTES = 8 * 2**20


class Variant(str, Enum):
    PBOS = "pbos"
    BOS = "bos"
    PBOS_N = "pbos-n"


@dataclass(frozen=True)
class TrainConfig:
    """Training settings; the defaults are the word-similarity settings.
    The fallback probability for unknown characters belongs to the
    subword table (``SubwordTable.prob_eps``), not to training."""

    epochs: int = 50
    lr0: float = 1.0
    lr_decay: bool = True
    variant: Variant = Variant.PBOS
    bos_min_len: int = 3
    bos_max_len: int = 6
    bos_word_boundary: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        # each field takes the type of its default (a float field also an
        # int); bool is a subclass of int, so it is told apart explicitly
        for setting in fields(self):
            kind = type(setting.default)
            value = getattr(self, setting.name)
            if kind is Variant:
                continue
            allowed = (int, float) if kind is float else kind
            if isinstance(value, bool) is not (kind is bool) or not isinstance(value, allowed):
                raise ValueError(f"{setting.name} must be of type {kind.__name__}, got {value!r}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.lr0 < math.inf:
            raise ValueError(f"lr0 must be positive and finite, got {self.lr0}")
        if not 1 <= self.bos_min_len <= self.bos_max_len:
            raise ValueError(
                f"need 1 <= bos_min_len <= bos_max_len, got "
                f"{self.bos_min_len}..{self.bos_max_len}"
            )
        if not isinstance(self.variant, Variant):
            object.__setattr__(self, "variant", Variant(self.variant))

    @property
    def use_word_boundary(self) -> bool:
        return self.variant is Variant.BOS and self.bos_word_boundary

    def learning_rate(self, epoch: int) -> float:
        """Learning rate for 1-based epoch ``epoch``."""
        return self.lr0 / math.sqrt(epoch) if self.lr_decay else self.lr0


def reject_boundary_markers(words: Iterable[str], word_boundary: bool) -> None:
    """With ``word_boundary``, raise ``ValueError`` for the first of
    ``words`` that holds a reserved boundary marker: a marker inside a
    word would make its n-grams another word's.  Without it the markers
    are ordinary characters."""
    if word_boundary:
        for word in words:
            if BOUNDARY_START in word or BOUNDARY_END in word:
                raise ValueError(f"word {word!r} contains a reserved boundary marker")


def bos_subword_counts(
    word: str, min_len: int, max_len: int, word_boundary: bool
) -> Counter[str]:
    """Occurrence counts of character n-grams with lengths in
    [min_len, max_len], over the boundary-marked word when requested
    (:func:`reject_boundary_markers`)."""
    reject_boundary_markers((word,), word_boundary)
    marked = BOUNDARY_START + word + BOUNDARY_END if word_boundary else word
    counts: Counter[str] = Counter()
    n = len(marked)
    for size in range(min_len, min(max_len, n) + 1):
        for i in range(n - size + 1):
            counts[marked[i : i + size]] += 1
    return counts


def composition_weights(
    word: str, table: SubwordTable, config: TrainConfig
) -> list[tuple[str, float]]:
    """Per-subword composition weights for one word under a variant.

    ``bos`` gives one unit of weight per n-gram occurrence and ignores the
    probability table; the lattice weights are used otherwise.  Every
    variant rejects the words the lattice rejects: an empty word, and one
    longer than ``lattice.MAX_WORD_LEN``.
    """
    lattice._check_word(word)
    if config.variant is Variant.BOS:
        counts = bos_subword_counts(
            word, config.bos_min_len, config.bos_max_len, config.use_word_boundary
        )
        return [(sub, float(count)) for sub, count in counts.items()]
    return list(lattice.subword_weights(word, table).items())


def weight_matrix(
    words: Iterable[str],
    table: SubwordTable,
    config: TrainConfig,
    columns: dict[str, int],
    *,
    extend: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR arrays ``(indptr, indices, data)`` of the word x subword
    weight matrix ``W`` of ``words``, int64, int64 and float64: row i holds
    the composition weights of the i-th word at the columns ``columns``
    assigns their subwords, and ``extend`` (``train``, ``gradient_check``)
    numbers new subwords in it rather than dropping them
    (:func:`lattice.csr_rows`).  Every composition reads its weights here.

    A lattice batch of more than one word goes to
    :func:`lattice.weight_rows`; any other batch goes to
    :func:`lattice.csr_rows` over :func:`composition_weights`.
    """
    words = list(words)
    if len(words) > 1 and config.variant is not Variant.BOS:
        return lattice.weight_rows(words, table, columns, extend=extend)
    return lattice.csr_rows((composition_weights(word, table, config) for word in words), columns, extend=extend)


def _weighted_sum(weights: np.ndarray, gathered: np.ndarray, normalize: bool) -> np.ndarray:
    """``weights @ gathered``; with ``normalize`` each row is first scaled
    to unit length (zero rows stay zero)."""
    if normalize:
        norms = np.linalg.norm(gathered, axis=1)
        weights = weights / np.where(norms > 0.0, norms, 1.0)
    return weights @ gathered


@dataclass(frozen=True)
class PbosModel:
    """A frozen subword table plus trained subword vectors."""

    table: SubwordTable
    embeddings: SubwordEmbeddings
    config: TrainConfig
    loss_trace: list[float] = field(default_factory=list)
    _composed: dict[str, np.ndarray] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __reduce__(self):
        # a pickled or copied model starts with an empty memo
        return type(self), (self.table, self.embeddings, self.config, self.loss_trace)

    def compose(self, word: str) -> np.ndarray:
        """Compose the vector for any word from its subword vectors.

        The result is read-only and memoized per model (see the module
        docstring), so a repeated word costs one dict lookup.  Evictions
        do not raise when threads call ``compose`` at the same time.
        """
        memo = self._composed
        vector = memo.get(word)
        if vector is None:
            vector = self.compose_many([word])[0].copy()  # holds no 1-row base array
            vector.flags.writeable = False
            memo[word] = vector
            while len(memo) * vector.nbytes > COMPOSE_MEMO_BYTES:
                try:
                    del memo[next(iter(memo))]
                except (KeyError, RuntimeError, StopIteration):
                    pass  # another thread evicted or inserted meanwhile
        return vector

    def compose_many(self, words: Iterable[str]) -> np.ndarray:
        """Row i is ``compose`` of the i-th word, bit for bit, read from the
        batch's ``W`` (:func:`weight_matrix`); the memo is neither read nor
        filled, so a batch evicts nothing from it."""
        indptr, indices, data = weight_matrix(words, self.table, self.config, self.embeddings.index)
        matrix, normalize = self.embeddings.matrix, self.config.variant is Variant.PBOS_N
        bounds = indptr.tolist()
        vectors = np.empty((len(bounds) - 1, self.embeddings.dim))
        # gathered per word: per batch, 5,000 query words of dim 50 took 68 MB
        for row, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            vectors[row] = _weighted_sum(data[lo:hi], matrix.take(indices[lo:hi], axis=0), normalize)
        return vectors

    def save(self, directory: str | Path) -> None:
        """Write the model directory laid out in the module docstring.

        A subword containing a newline, or a non-finite loss trace value,
        which JSON cannot hold, raises ``ValueError`` before any file is
        written.
        """
        index, probs = self.embeddings.index, self.table.probs
        subwords = [*index, *(subword for subword in probs if subword not in index)]
        text = "\n".join([*subwords, ""])  # no per-subword copies
        if text.count("\n") != len(subwords):
            bad = next(subword for subword in subwords if "\n" in subword)
            raise ValueError(f"subword contains a newline: {bad!r}")
        values = np.fromiter((probs.get(s, 0.0) for s in subwords), np.float64, len(subwords))
        document = {
            "train": {f.name: getattr(self.config, f.name) for f in fields(TrainConfig)},
            "table": table_settings(self.table),
            "loss_trace": [float(value) for value in self.loss_trace],
        }
        config_text = json.dumps(document, indent=1, allow_nan=False) + "\n"
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        with (
            replaced(path / MODEL_CONFIG_FILE) as config_fh,
            replaced(path / MODEL_SUBWORDS_FILE, "wb") as subwords_fh,
            replaced(path / MODEL_PROBS_FILE, "wb") as probs_fh,
            replaced(path / MODEL_MATRIX_FILE, "wb") as matrix_fh,
        ):
            config_fh.write(config_text)
            subwords_fh.write(text.encode("utf-8"))
            np.save(probs_fh, values, allow_pickle=False)
            np.save(matrix_fh, self.embeddings.matrix, allow_pickle=False)

    @classmethod
    def load(cls, directory: str | Path) -> "PbosModel":
        """Read a directory written by :meth:`save`, checked as the module
        docstring says."""
        path = Path(directory)
        with naming(path / MODEL_CONFIG_FILE) as config_path:
            document = json.loads(config_path.read_bytes(), object_pairs_hook=_unique_keys)
            config = TrainConfig(**document["train"])
            SubwordTable({}, **document["table"])  # the table checks its fields, so an error names this file
            loss_trace = document["loss_trace"]
            if not isinstance(loss_trace, list) or not all(type(v) is float and math.isfinite(v) for v in loss_trace):
                raise ValueError(f"loss_trace must be a list of finite floats, got {loss_trace!r}")
        with naming(path / MODEL_SUBWORDS_FILE) as subwords_path:
            subwords = subwords_path.read_bytes().decode("utf-8").split("\n")
            if subwords.pop():
                raise ValueError("the last line does not end in a newline")
        with naming(path / MODEL_PROBS_FILE) as probs_path:
            probs = np.load(probs_path, allow_pickle=False)
            if probs.dtype != np.float64 or probs.shape != (len(subwords),):
                raise ValueError(
                    f"expected {len(subwords)} float64 values, got {probs.shape} of {probs.dtype}"
                )
        with naming(path / MODEL_MATRIX_FILE) as matrix_path:
            # np.asarray drops the np.memmap subclass, whose per-operation
            # overhead compose would pay, and keeps the mapping alive
            matrix = np.asarray(np.load(matrix_path, mmap_mode="r", allow_pickle=False))
            rows = len(matrix) if matrix.ndim == 2 else 0  # the store rejects any other shape
            if rows > len(subwords):
                raise ValueError(f"has {rows} rows but {subwords_path} lists {len(subwords)} subwords")
        names, values, left_out = subwords, probs.tolist(), []
        if not probs[:rows].all():  # 0.0: a vector subword without a table entry
            kept = ((probs != 0.0) | (np.arange(len(subwords)) >= rows)).tolist()
            names, values = list(compress(subwords, kept)), list(compress(values, kept))
            left_out = [name for name, keep in zip(subwords, kept) if not keep]
        with naming(subwords_path), naming(probs_path):
            table = subword_table(names, values, document["table"])
            # the table rejects an empty subword; one it leaves out is rejected
            # here, so that the error names this file and not the matrix
            if "" in left_out:
                raise ValueError("a subword must not be empty")
            # a subword the table leaves out must not be listed again after the vectors
            twice = next(filter(table.probs.__contains__, left_out), None)
            if twice is not None:
                raise ValueError(f"subword {twice!r} is listed twice")
        with naming(matrix_path):
            embeddings = SubwordEmbeddings(subwords[:rows], matrix)
        return cls(table=table, embeddings=embeddings, config=config, loss_trace=loss_trace)


def train(
    targets: TargetEmbeddings,
    table: SubwordTable,
    config: TrainConfig,
    on_epoch: Callable[[int, float], None] | None = None,
) -> PbosModel:
    """Fit subword vectors to ``targets`` by per-word SGD.

    The word order is reshuffled every epoch with the seeded generator, so
    runs are deterministic given the seed.  For each visited word the
    residual (composed minus target) is scaled by each subword's weight
    and by the step ``lr / max(1, sum(w**2))``, and subtracted from that
    subword's vector; the factor 2 of the exact squared-error gradient is
    absorbed into the learning rate.  The division keeps an update from
    growing the residual when the weights are bos n-gram counts; weights
    that sum to 1 keep the plain ``lr``.  A word's target is its row of
    ``targets.matrix``, which the store has checked finite and of the
    targets' ``dim``.  The reported per-epoch loss is the mean of squared
    residuals as visited; a non-finite epoch loss (the residuals of finite
    targets may still overflow) raises ``ValueError`` naming the epoch,
    without numpy's overflow ``RuntimeWarning``.

    Composition weights depend only on the frozen table, so the weight
    matrix ``W`` of the targets is built once up front; its columns, in
    first-seen order, are the rows of the trained matrix.  Each word's
    step scale is computed once, before the first epoch; its rows and
    weights are sliced out of ``W`` at each visit.  The trained matrix is
    handed to the store (which checks it and marks it read-only) only
    after the last.
    """
    if not targets.index:
        raise ValueError("empty target vocabulary")
    goals = targets.matrix
    subword_rows: dict[str, int] = {}
    indptr, indices, data = weight_matrix(targets.index, table, config, subword_rows, extend=True)
    bounds = indptr.tolist()
    word_weights = (data[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
    scales = [1.0 / max(1.0, float(weights @ weights)) for weights in word_weights]

    matrix = np.zeros((len(subword_rows), targets.dim))
    rng = np.random.default_rng(config.seed)
    normalize = config.variant is Variant.PBOS_N
    trace: list[float] = []
    for epoch in range(1, config.epochs + 1):
        lr = config.learning_rate(epoch)
        order = rng.permutation(len(goals))
        squared_sum = 0.0
        # an overflow ends in the loss check below or the store's, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            for index in order.tolist():
                lo, hi = bounds[index], bounds[index + 1]
                rows, weights = indices[lo:hi], data[lo:hi]
                gathered = matrix.take(rows, axis=0)
                residual = _weighted_sum(weights, gathered, normalize)
                residual -= goals[index]
                squared_sum += float(residual @ residual)
                gathered -= (lr * scales[index]) * weights[:, None] * residual
                matrix[rows] = gathered
        trace.append(squared_sum / len(goals))
        if not math.isfinite(trace[-1]):
            raise ValueError(f"training loss is not finite in epoch {epoch}: {trace[-1]}")
        if on_epoch is not None:
            on_epoch(epoch, trace[-1])

    return PbosModel(table, SubwordEmbeddings(subword_rows, matrix), config, trace)


def _check_targets(model: PbosModel, targets: TargetEmbeddings) -> None:
    """Reject an empty target vocabulary or one of another dimension."""
    if not targets.index:
        raise ValueError("empty target vocabulary")
    if targets.dim != model.embeddings.dim:
        raise ValueError(
            f"dimension mismatch: targets {targets.dim}, model {model.embeddings.dim}"
        )


def loss(model: PbosModel, targets: TargetEmbeddings) -> float:
    """Mean squared L2 error of composed vectors against the rows of
    ``targets.matrix``."""
    _check_targets(model, targets)
    diff = model.compose_many(targets.index) - targets.matrix
    return float(np.einsum("ij,ij->", diff, diff)) / len(diff)


def gradient_check(
    model: PbosModel,
    targets: TargetEmbeddings,
    h: float = 1e-5,
    seed: int = 0,
    max_coords_per_word: int = 64,
) -> float:
    """Max relative error between the analytic per-word gradient
    (2 * weight * residual) and central finite differences of the squared
    error, over sampled coordinates.

    Coordinates are sampled among subwords carrying non-negligible weight
    and where the analytic gradient is non-negligible; elsewhere the
    finite-difference signal drowns in floating-point roundoff.  Intended
    for small models (a few words, small dimension).  ``h`` must be finite
    and positive, and ``max_coords_per_word`` at least 1.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    if max_coords_per_word < 1:
        raise ValueError(f"max_coords_per_word must be at least 1, got {max_coords_per_word}")
    if model.config.variant is Variant.PBOS_N:
        raise ValueError(
            "gradient check covers the pbos and bos variants; the pbos-n "
            "update deliberately does not differentiate through the norm"
        )
    _check_targets(model, targets)
    rng = np.random.default_rng(seed)
    stored = model.embeddings
    # perturb a private copy of the matrix, widened with zero rows for the
    # subwords of W that have no vector yet
    columns = dict(stored.index)
    indptr, indices, data = weight_matrix(targets.index, model.table, model.config, columns, extend=True)
    matrix = np.concatenate([stored.matrix, np.zeros((len(columns) - len(stored.index), stored.dim))])
    bounds = indptr.tolist()
    worst = 0.0
    for word_row, target in enumerate(targets.matrix):
        lo, hi = bounds[word_row], bounds[word_row + 1]
        rows, weights = indices[lo:hi], data[lo:hi]

        def residual() -> np.ndarray:
            return _weighted_sum(weights, matrix.take(rows, axis=0), normalize=False) - target

        stored_residual = residual()
        coords = [
            (row, weight, col)
            for row, weight in zip(rows.tolist(), weights.tolist())
            if weight >= 1e-3
            for col in range(stored.dim)
            if abs(2.0 * weight * stored_residual[col]) >= 1e-4
        ]
        if len(coords) > max_coords_per_word:
            picked = rng.choice(len(coords), size=max_coords_per_word, replace=False)
            coords = [coords[i] for i in picked]
        for row, weight, col in coords:
            analytic = 2.0 * weight * stored_residual[col]
            original = matrix[row, col]
            squared_errors = []
            for shifted in (original + h, original - h):
                matrix[row, col] = shifted
                diff = residual()
                squared_errors.append(float(diff @ diff))
            matrix[row, col] = original
            numeric = (squared_errors[0] - squared_errors[1]) / (2.0 * h)
            error = abs(analytic - numeric) / max(1e-8, abs(numeric))
            worst = max(worst, error)
    return worst
