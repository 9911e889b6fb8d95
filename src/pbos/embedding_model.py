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
a subword-to-row index (:class:`SubwordEmbeddings`); training, composition,
saving and loading share it.  A model directory holds:

* ``config``       - one ``name<TAB>value`` line per :class:`TrainConfig`
  field (int, ``repr`` float, ``true``/``false``, variant value);
* ``subwords.tsv`` - the subword probability table (``write_subwords``);
* ``vectors.npy``  - the matrix, written by ``np.save`` as float64;
* ``rows.txt``     - the subword of each matrix row, one per line, in order;
* ``loss_trace.txt`` - the per-epoch training losses, one ``repr`` float
  per line.

The matrix and the losses are stored exactly, so a loaded model composes
bit for bit the vectors the saved one did, and saving it again writes the
same bytes.  ``load`` memory-maps ``vectors.npy`` read-only instead of
reading it, checks it (a 2-D float64 matrix with one row per listed
subword, no subword listed twice, every value finite) and names the file
in every error it raises.  An unknown or repeated ``config`` name, or a
value outside its field's encoding, is such an error, so models whose
``config`` holds the retired ``prob_eps`` or ``auto`` values do not load.
"""

from __future__ import annotations

import contextlib
import math
import os
from collections import Counter
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from . import io_formats, lattice
from .io_formats import FormatError, TargetEmbeddings
from .subword_stats import SubwordTable

# Reserved boundary markers, assumed absent from the data alphabet.
BOUNDARY_START = "⟨"  # ⟨
BOUNDARY_END = "⟩"    # ⟩

MODEL_CONFIG_FILE = "config"
MODEL_SUBWORDS_FILE = "subwords.tsv"
MODEL_MATRIX_FILE = "vectors.npy"
MODEL_ROWS_FILE = "rows.txt"
MODEL_LOSS_FILE = "loss_trace.txt"


class Variant(str, Enum):
    PBOS = "pbos"
    BOS = "bos"
    PBOS_N = "pbos-n"


@dataclass
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
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 < self.lr0 < math.inf:
            raise ValueError(f"lr0 must be positive and finite, got {self.lr0}")
        if not 1 <= self.bos_min_len <= self.bos_max_len:
            raise ValueError(
                f"need 1 <= bos_min_len <= bos_max_len, got "
                f"{self.bos_min_len}..{self.bos_max_len}"
            )
        if not isinstance(self.variant, Variant):
            self.variant = Variant(self.variant)

    @property
    def use_word_boundary(self) -> bool:
        return self.variant is Variant.BOS and self.bos_word_boundary

    def learning_rate(self, epoch: int) -> float:
        """Learning rate for 1-based epoch ``epoch``."""
        return self.lr0 / math.sqrt(epoch) if self.lr_decay else self.lr0


class SubwordEmbeddings:
    """Subword vectors as one float64 matrix with a subword-to-row index.

    Built either from a ``vectors`` mapping (copied into a new matrix) or
    from a ``matrix`` whose rows belong, in order, to ``subwords``, which
    it keeps without copying.  Absent subwords compose as the zero vector.
    """

    def __init__(
        self,
        dim: int,
        vectors: Mapping[str, np.ndarray] | None = None,
        *,
        matrix: np.ndarray | None = None,
        subwords: Sequence[str] = (),
    ) -> None:
        if matrix is None:
            vectors = vectors or {}
            subwords = list(vectors)
            matrix = np.zeros((len(subwords), dim))
            for row, subword in enumerate(subwords):
                matrix[row] = vectors[subword]
        index = {subword: row for row, subword in enumerate(subwords)}
        if len(index) != len(subwords):
            duplicate = next(s for s, c in Counter(subwords).items() if c > 1)
            raise ValueError(f"subword {duplicate!r} is listed twice")
        if matrix.shape != (len(index), dim):
            raise ValueError(
                f"matrix has shape {matrix.shape}, expected ({len(index)}, {dim})"
            )
        self.dim = dim
        self.matrix = matrix
        self.index = index  # in row order

    @property
    def vectors(self) -> Mapping[str, np.ndarray]:
        """Read-only view: subword -> its row of the matrix."""
        return _RowView(self)


class _RowView(Mapping):
    def __init__(self, embeddings: SubwordEmbeddings) -> None:
        self._embeddings = embeddings

    def __getitem__(self, subword: str) -> np.ndarray:
        row = self._embeddings.matrix[self._embeddings.index[subword]]
        row.flags.writeable = False
        return row

    def __iter__(self) -> Iterator[str]:
        return iter(self._embeddings.index)

    def __len__(self) -> int:
        return len(self._embeddings.index)


def bos_subword_counts(
    word: str, min_len: int, max_len: int, word_boundary: bool
) -> Counter[str]:
    """Occurrence counts of character n-grams with lengths in
    [min_len, max_len], over the boundary-marked word when requested;
    a marker inside the word would make its n-grams another word's."""
    if word_boundary and (BOUNDARY_START in word or BOUNDARY_END in word):
        raise ValueError(f"word {word!r} contains a reserved boundary marker")
    marked = BOUNDARY_START + word + BOUNDARY_END if word_boundary else word
    counts: Counter[str] = Counter()
    n = len(marked)
    for size in range(min_len, max_len + 1):
        for i in range(n - size + 1):
            counts[marked[i : i + size]] += 1
    return counts


def composition_weights(
    word: str, table: SubwordTable, config: TrainConfig
) -> list[tuple[str, float]]:
    """Per-subword composition weights for one word under a variant.

    ``bos`` gives one unit of weight per n-gram occurrence and ignores the
    probability table; the lattice weights are used otherwise.
    """
    if not word:
        raise ValueError("empty word")
    if config.variant is Variant.BOS:
        counts = bos_subword_counts(
            word, config.bos_min_len, config.bos_max_len, config.use_word_boundary
        )
        return [(sub, float(count)) for sub, count in counts.items()]
    return list(lattice.subword_weights(word, table).weights.items())


def _weighted_sum(weights: np.ndarray, gathered: np.ndarray, normalize: bool) -> np.ndarray:
    """``weights @ gathered``; with ``normalize`` each row is first scaled
    to unit length (zero rows stay zero)."""
    if normalize:
        norms = np.linalg.norm(gathered, axis=1)
        weights = weights / np.where(norms > 0.0, norms, 1.0)
    return weights @ gathered


@contextlib.contextmanager
def _naming(path: Path) -> Iterator[None]:
    """Re-raise a ``ValueError`` as a :class:`FormatError` naming ``path``."""
    try:
        yield
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _read_lines(path: Path) -> list[str]:
    """The lines of a UTF-8 file, split at ``\\n`` only, so that a line
    may hold any other character; the last line must end in ``\\n``."""
    lines = path.read_bytes().decode("utf-8").split("\n")
    if lines.pop():
        raise FormatError("the last line does not end in a newline")
    return lines


@dataclass
class PbosModel:
    """A frozen subword table plus trained subword vectors."""

    table: SubwordTable
    embeddings: SubwordEmbeddings
    config: TrainConfig
    loss_trace: list[float] = field(default_factory=list)

    def compose(self, word: str) -> np.ndarray:
        """Compose the vector for any word from its subword vectors."""
        index = self.embeddings.index
        rows: list[int] = []
        weights: list[float] = []
        for subword, weight in composition_weights(word, self.table, self.config):
            row = index.get(subword)
            if row is not None:
                rows.append(row)
                weights.append(weight)
        return _weighted_sum(
            np.array(weights, dtype=np.float64),
            self.embeddings.matrix[rows],
            normalize=self.config.variant is Variant.PBOS_N,
        )

    def save(self, directory: str | Path) -> None:
        """Write the model directory laid out in the module docstring.

        A vector's subword containing a newline raises ``ValueError``
        before any file is written.
        """
        subwords = self.embeddings.index
        bad = next((subword for subword in subwords if "\n" in subword), None)
        if bad is not None:
            raise ValueError(f"subword contains a newline: {bad!r}")
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        with open(path / MODEL_CONFIG_FILE, "w", encoding="utf-8") as fh:
            for setting in fields(TrainConfig):
                fh.write(f"{setting.name}\t{_encode(getattr(self.config, setting.name))}\n")
        with open(path / MODEL_SUBWORDS_FILE, "w", encoding="utf-8") as fh:
            io_formats.write_subwords(self.table, fh)
        # A loaded model maps vectors.npy.  Replacing the file keeps such a
        # mapping valid (it holds the old file); rewriting it in place
        # would truncate the pages under it.
        partial = path / (MODEL_MATRIX_FILE + ".partial")
        with open(partial, "wb") as fh:
            np.save(fh, self.embeddings.matrix, allow_pickle=False)
        os.replace(partial, path / MODEL_MATRIX_FILE)
        (path / MODEL_ROWS_FILE).write_bytes(
            "".join(subword + "\n" for subword in subwords).encode("utf-8")
        )
        (path / MODEL_LOSS_FILE).write_bytes(
            "".join(f"{float(value)!r}\n" for value in self.loss_trace).encode("utf-8")
        )

    @classmethod
    def load(cls, directory: str | Path) -> "PbosModel":
        """Read a directory written by :meth:`save`.

        ``vectors.npy`` is memory-mapped read-only rather than copied into
        memory.  Every error raised names the file it concerns.
        """
        path = Path(directory)
        config_path = path / MODEL_CONFIG_FILE
        with _naming(config_path):
            config = _config_from_lines(config_path.read_text(encoding="utf-8").splitlines())
        subwords_path = path / MODEL_SUBWORDS_FILE
        with _naming(subwords_path), open(subwords_path, encoding="utf-8") as fh:
            table = io_formats.read_subwords(fh)
        rows_path = path / MODEL_ROWS_FILE
        with _naming(rows_path):
            subwords = _read_lines(rows_path)
        matrix_path = path / MODEL_MATRIX_FILE
        with _naming(matrix_path):
            # np.asarray drops the np.memmap subclass, whose per-operation
            # overhead compose would pay, and keeps the mapping alive
            matrix = np.asarray(np.load(matrix_path, mmap_mode="r", allow_pickle=False))
            if matrix.ndim != 2 or matrix.dtype != np.float64 or matrix.shape[1] < 1:
                raise FormatError(
                    f"expected a 2-D float64 matrix with at least one column, "
                    f"got shape {matrix.shape} of {matrix.dtype}"
                )
            if matrix.shape[0] != len(subwords):
                raise FormatError(
                    f"has {matrix.shape[0]} rows but {rows_path} lists {len(subwords)} subwords"
                )
            finite = np.isfinite(matrix).all(axis=1)
            if not finite.all():
                row = int(np.argmin(finite))
                raise FormatError(
                    f"row {row + 1} ({subwords[row]!r}) has a non-finite component"
                )
        with _naming(rows_path):
            embeddings = SubwordEmbeddings(matrix.shape[1], matrix=matrix, subwords=subwords)
        loss_path = path / MODEL_LOSS_FILE
        with _naming(loss_path):
            loss_trace = [float(line) for line in _read_lines(loss_path)]
        return cls(table=table, embeddings=embeddings, config=config, loss_trace=loss_trace)


_BOOLS = {"true": True, "false": False}


def _encode(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return value.value if isinstance(value, Variant) else repr(value)


def _config_from_lines(lines: list[str]) -> TrainConfig:
    """Parse the ``name<TAB>value`` lines :meth:`PbosModel.save` writes;
    blank lines are skipped and an absent field takes its default."""
    # every field's default has the field's type
    kinds = {setting.name: type(setting.default) for setting in fields(TrainConfig)}
    values: dict[str, object] = {}
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        name, sep, text = line.partition("\t")
        if not sep or name not in kinds or name in values:
            raise FormatError(f"line {number}: malformed, unknown or repeated setting: {line!r}")
        kind = kinds[name]
        try:
            values[name] = _BOOLS[text] if kind is bool else kind(text)
        except (KeyError, ValueError):
            raise FormatError(f"line {number}: bad value for {name}: {text!r}") from None
    return TrainConfig(**values)


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
    that sum to 1 keep the plain ``lr``.  The reported per-epoch loss is
    the mean of squared residuals as visited; a non-finite epoch loss
    raises ``ValueError`` naming the epoch.

    Composition weights depend only on the frozen table, so they are
    computed once up front, with each word's step scale, and cached for
    all epochs.
    """
    if not targets.entries:
        raise ValueError("empty target vocabulary")
    dim = targets.dim

    subword_rows: dict[str, int] = {}
    cached: list[tuple[np.ndarray, np.ndarray, float, np.ndarray]] = []
    for word, target in targets.entries.items():
        target = np.asarray(target, dtype=np.float64)
        if target.shape != (dim,):
            raise ValueError(
                f"target vector for {word!r} has shape {target.shape}, expected ({dim},)"
            )
        pairs = composition_weights(word, table, config)
        rows = np.empty(len(pairs), dtype=np.intp)
        weights = np.empty(len(pairs), dtype=np.float64)
        for pos, (subword, weight) in enumerate(pairs):
            row = subword_rows.setdefault(subword, len(subword_rows))
            rows[pos] = row
            weights[pos] = weight
        step_scale = 1.0 / max(1.0, float(weights @ weights))
        cached.append((rows, weights, step_scale, target))

    matrix = np.zeros((len(subword_rows), dim))
    rng = np.random.default_rng(config.seed)
    normalize = config.variant is Variant.PBOS_N
    trace: list[float] = []
    for epoch in range(1, config.epochs + 1):
        lr = config.learning_rate(epoch)
        order = rng.permutation(len(cached))
        squared_sum = 0.0
        for index in order:
            rows, weights, step_scale, target = cached[index]
            gathered = matrix[rows]
            residual = _weighted_sum(weights, gathered, normalize) - target
            squared_sum += float(residual @ residual)
            matrix[rows] = gathered - np.outer(lr * step_scale * weights, residual)
        trace.append(squared_sum / len(cached))
        if not math.isfinite(trace[-1]):
            raise ValueError(f"training loss is not finite in epoch {epoch}: {trace[-1]}")
        if on_epoch is not None:
            on_epoch(epoch, trace[-1])

    embeddings = SubwordEmbeddings(dim, matrix=matrix, subwords=list(subword_rows))
    return PbosModel(table=table, embeddings=embeddings, config=config, loss_trace=trace)


def loss(model: PbosModel, targets: TargetEmbeddings) -> float:
    """Mean squared L2 error of composed vectors against the targets."""
    if not targets.entries:
        raise ValueError("empty target vocabulary")
    if targets.dim != model.embeddings.dim:
        raise ValueError(
            f"dimension mismatch: targets {targets.dim}, model {model.embeddings.dim}"
        )
    total = 0.0
    for word, target in targets.entries.items():
        diff = model.compose(word) - np.asarray(target, dtype=np.float64)
        total += float(diff @ diff)
    return total / len(targets.entries)


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
    for small models (a few words, small dimension).
    """
    if model.config.variant is Variant.PBOS_N:
        raise ValueError(
            "gradient check covers the pbos and bos variants; the pbos-n "
            "update deliberately does not differentiate through the norm"
        )
    rng = np.random.default_rng(seed)
    dim = model.embeddings.dim
    weighted = {
        word: [
            (sub, weight)
            for sub, weight in composition_weights(word, model.table, model.config)
            if weight >= 1e-3
        ]
        for word in targets.entries
    }
    # perturb a private copy of the matrix, widened with zero rows for the
    # weighted subwords that have no vector yet
    stored = model.embeddings
    fresh = dict.fromkeys(
        sub for pairs in weighted.values() for sub, _ in pairs if sub not in stored.index
    )
    matrix = np.concatenate([stored.matrix, np.zeros((len(fresh), dim))])
    probe = PbosModel(
        table=model.table,
        embeddings=SubwordEmbeddings(dim, matrix=matrix, subwords=[*stored.index, *fresh]),
        config=model.config,
    )
    index = probe.embeddings.index
    worst = 0.0
    for word, target in targets.entries.items():
        target = np.asarray(target, dtype=np.float64)
        pairs = weighted[word]
        if not pairs:
            continue
        residual = probe.compose(word) - target
        coords = [
            (sub, weight, col)
            for sub, weight in pairs
            for col in range(dim)
            if abs(2.0 * weight * residual[col]) >= 1e-4
        ]
        if len(coords) > max_coords_per_word:
            picked = rng.choice(len(coords), size=max_coords_per_word, replace=False)
            coords = [coords[i] for i in picked]
        for subword, weight, col in coords:
            analytic = 2.0 * weight * residual[col]
            row = index[subword]
            original = matrix[row, col]
            matrix[row, col] = original + h
            diff = probe.compose(word) - target
            f_plus = float(diff @ diff)
            matrix[row, col] = original - h
            diff = probe.compose(word) - target
            f_minus = float(diff @ diff)
            matrix[row, col] = original
            numeric = (f_plus - f_minus) / (2.0 * h)
            error = abs(analytic - numeric) / max(1e-8, abs(numeric))
            worst = max(worst, error)
    return worst
