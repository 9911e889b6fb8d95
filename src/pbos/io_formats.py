"""Readers and writers for the toolkit's text formats.

All files are UTF-8.  Embedding files use the word2vec text layout
(``N d`` header, then ``token v1 ... vd`` per line, single-space
separated) written at 9 significant digits.  Reading such a file back
gives each value to within 5e-9 relative (half a unit in the ninth
digit), exactly for float32 data, and writing what was read reproduces
the file byte for byte.  The text layout serves one type, the
named-vector store :class:`SubwordEmbeddings`: :func:`read_embeddings`
gives the targets ``train`` reads as one, and :func:`write_embeddings`
writes the one ``predict`` composes.  The table text ``subwords.tsv``
serves ``build-subwords``, ``train``, ``segment`` and ``eval-affix``.  A
model keeps neither: it stores its table and the same store in binary,
exactly (see :mod:`pbos.embedding_model`).  Both files of a table carry
one settings object, :func:`table_settings`, and both readers build the
table with :func:`subword_table`.
The frequency list, the word-similarity and affix files and ``predict``'s
word list share one line rule, :func:`_lines`: lines are numbered from 1,
lose their ``\\r\\n``, and a line holding only whitespace is skipped.  The
three evaluation readers also skip ``#`` comment lines (:func:`_records`);
in the frequency list and the word list a ``#`` line is data.  The
frequency and evaluation readers skip malformed lines and count them.  A
word longer than the lattice takes, in any file a command reads words
from, is an error naming its line or record, found while the file is
read, before any table is built or model read.
Embedding and subword files keep their own loops and abort with
:class:`FormatError` on a structural problem or a value no model can use:
a non-finite vector component, a probability outside (0, 1] or a repeated
subword.  In them a line of whitespace is damage, not a line to skip: a
subword line without its tab, or an embedding record without its token.

Two helpers hold the file policy: :func:`naming` makes an error in reading
a file name it, and :func:`replaced` writes a file whole or not at all.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from array import array
from collections import Counter
from collections.abc import Collection, Iterable, Iterator, Mapping
from dataclasses import fields
from itertools import islice
from typing import IO

import numpy as np

from .evaluation import Affix, AffixInstance, SimilarityPair
from .lattice import MAX_WORD_LEN
from .subword_stats import ReadOnlyDict, SubwordTable


class FormatError(ValueError):
    """Structural problem in an input file."""


@contextlib.contextmanager
def naming(path: str | os.PathLike) -> Iterator[str | os.PathLike]:
    """Yield ``path``; re-raise the errors of reading it as a :class:`FormatError` naming it."""
    try:
        yield path
    except KeyError as exc:
        raise FormatError(f"{path}: missing key {exc}") from exc
    except (EOFError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


@contextlib.contextmanager
def replaced(path: str | os.PathLike, mode: str = "w") -> Iterator[IO]:
    """Yield ``<path>.partial`` opened with ``mode`` (text is UTF-8), and
    ``os.replace`` it over ``path``, or a symlink's target, if the block
    succeeds; else delete it.  Replacing keeps a map of the old file valid
    (``load`` maps ``vectors.npy``).  A pipe or a device such as
    ``/dev/stdout`` has no old bytes to keep, and is written in place."""
    encoding = None if "b" in mode else "utf-8"
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, encoding=encoding) as fh:
            yield fh
        return
    path = os.path.realpath(path)
    partial = f"{path}.partial"
    try:
        with open(partial, mode, encoding=encoding) as fh:
            yield fh
        os.replace(partial, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(partial)


def _duplicate(items: Iterable[str]) -> str:
    """The first item of ``items`` that occurs in it more than once."""
    return next(item for item, count in Counter(items).items() if count > 1)


class SubwordEmbeddings:
    """Named vectors: a float64 matrix whose rows belong, in order, to
    ``names``, with a name-to-row ``index``.

    The one store of every set of named vectors: a model's subword
    vectors, the targets ``train`` fits and the vectors ``predict``
    writes (``TargetEmbeddings`` is the same class).  The constructor
    checks its input once: a 2-D float64 ndarray with at least one column,
    one row per name, and names that are neither empty nor listed twice.
    Every row must be finite; as in :func:`read_embeddings`, a finite sum
    clears the values it adds up.  When the sum of the whole matrix is not
    finite, only the rows whose sum is not finite are checked component by
    component.  It keeps the matrix without copying and marks it
    read-only, like ``index``.
    """

    def __init__(self, names: Collection[str], matrix: np.ndarray) -> None:
        if not (
            isinstance(matrix, np.ndarray) and matrix.dtype == np.float64
            and matrix.ndim == 2 and matrix.shape[1] >= 1
        ):
            raise ValueError(
                f"expected a 2-D float64 matrix with at least one column, "
                f"got shape {np.shape(matrix)} of {getattr(matrix, 'dtype', type(matrix).__name__)}"
            )
        if len(matrix) != len(names):
            raise ValueError(f"matrix has shape {matrix.shape}, expected one row for each of {len(names)} names")
        index = ReadOnlyDict(zip(names, range(len(names))))  # in row order
        if len(index) != len(names):
            raise ValueError(f"name {_duplicate(names)!r} is listed twice")
        if "" in index:
            raise ValueError("a name must not be empty")
        # an inf or nan component makes every sum it enters non-finite: a
        # finite total clears every row with no array of row sums (freeing
        # one of 0.7 MB raises glibc's mmap threshold, and a train-and-predict
        # run's peak RSS rose 3 MB with it), and a finite row sum its row
        with np.errstate(over="ignore", invalid="ignore"):
            finite_sums = np.isfinite(matrix.sum()) or np.isfinite(matrix.sum(axis=1))
        suspect = np.flatnonzero(~finite_sums)
        bad = suspect[~np.isfinite(matrix[suspect]).all(axis=1)]
        if len(bad):
            row = int(bad[0])
            raise ValueError(f"row {row + 1} ({next(islice(index, row, None))!r}) has a non-finite component")
        matrix.flags.writeable = False
        self.dim = matrix.shape[1]
        self.matrix = matrix
        self.index = index

    def __setstate__(self, state: dict) -> None:
        # numpy does not keep the writeable flag through pickle or deepcopy
        self.__dict__.update(state)
        self.matrix.flags.writeable = False

    @property
    def vectors(self) -> Mapping[str, np.ndarray]:
        """Read-only view: name -> its row of the matrix."""
        return _RowView(self)


TargetEmbeddings = SubwordEmbeddings


class _RowView(Mapping):
    def __init__(self, embeddings: SubwordEmbeddings) -> None:
        self._embeddings = embeddings

    def __getitem__(self, name: str) -> np.ndarray:
        return self._embeddings.matrix[self._embeddings.index[name]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._embeddings.index)

    def __len__(self) -> int:
        return len(self._embeddings.index)


def read_embeddings(stream: IO[str]) -> tuple[SubwordEmbeddings, int]:
    """Parse a word2vec text file into the store and the count of
    duplicate tokens skipped; a duplicate keeps the first occurrence."""
    header = stream.readline()
    parts = header.split()
    if len(parts) != 2:
        raise FormatError(f"malformed embedding header: {header!r}")
    try:
        declared, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"malformed embedding header: {header!r}") from None
    if declared < 1 or dim < 1:
        raise FormatError(f"embedding header must declare positive sizes: {header!r}")

    # filled as read: the header may declare any count
    names: dict[str, None] = {}
    values = array("d")
    duplicates = 0
    for record in range(declared):
        line = stream.readline()
        if not line:
            raise FormatError(
                f"header declares {declared} records but file has {record}"
            )
        fields = line.rstrip("\n").split(" ")
        if len(fields) != dim + 1:
            raise FormatError(
                f"record {record + 1} has {len(fields) - 1} components, expected {dim}"
            )
        token = fields[0]
        if not token:
            raise FormatError(f"record {record + 1} has an empty token")
        check_query_word(token, record + 1, "record")
        try:
            row = [float(x) for x in fields[1:]]
        except ValueError:
            raise FormatError(
                f"record {record + 1} has a non-numeric component"
            ) from None
        # an inf or nan component makes the sum non-finite, so a finite
        # sum clears the record without a per-component test
        if not math.isfinite(sum(row)) and not all(map(math.isfinite, row)):
            raise FormatError(
                f"record {record + 1} ({token!r}) has a non-finite component"
            )
        if token in names:
            duplicates += 1
            continue
        names[token] = None
        values.extend(row)
    trailing = stream.readline()
    if trailing.strip():
        raise FormatError(f"more records than the header declares ({declared})")
    return SubwordEmbeddings(names, np.frombuffer(values, np.float64).reshape(-1, dim)), duplicates


def check_token(token: str) -> None:
    """Reject a token that cannot head a word2vec text record: an empty
    one or one that contains whitespace."""
    if not token or any(ch.isspace() for ch in token):
        raise ValueError(f"token is empty or contains whitespace: {token!r}")


def check_query_word(word: str, number: int, unit: str = "line") -> None:
    """Reject a word longer than the lattice takes
    (``lattice.MAX_WORD_LEN``), naming its line (or other ``unit``)."""
    if len(word) > MAX_WORD_LEN:
        raise ValueError(f"{unit} {number}: word of length {len(word)} exceeds the guard of {MAX_WORD_LEN}")


def write_embeddings(vectors: SubwordEmbeddings, stream: IO[str]) -> None:
    """Write word2vec text format at 9 significant digits (``predict``
    output; models are saved in binary).

    A value read back differs from the written float64 by at most 5e-9
    relative (half a unit in the ninth digit; exact for float32 data),
    and rewriting the values read back gives the same bytes.  An empty
    store or a name :func:`check_token` rejects raises ``ValueError``
    before anything is written.
    """
    if not vectors.index:
        raise ValueError("refusing to write an empty embedding file")
    for token in vectors.index:
        check_token(token)
    stream.write(f"{len(vectors.index)} {vectors.dim}\n")
    # one % per row formats each value as format(value, ".9g") does
    template = "%s" + " %.9g" * vectors.dim + "\n"
    for token, row in zip(vectors.index, vectors.matrix):
        stream.write(template % (token, *row.tolist()))


def _lines(stream: IO[str]) -> Iterator[tuple[int, str]]:
    """``(number, line)`` for each line of ``stream`` that holds more than
    whitespace, numbered from 1, without its ``\\r\\n``."""
    for number, raw in enumerate(stream, 1):
        line = raw.rstrip("\r\n")
        if line.strip():
            yield number, line


def _records(stream: IO[str]) -> Iterator[tuple[int, str]]:
    """:func:`_lines` without the ``#`` comment lines."""
    return ((number, line) for number, line in _lines(stream) if not line.lstrip().startswith("#"))


def read_words(stream: IO[str]) -> list[str]:
    """The distinct words of ``stream``, one per line and stripped, in
    first-seen order: ``predict``'s query words.  A word longer than the
    lattice takes raises ``ValueError`` naming its line; then an empty list
    or a word :func:`check_token` rejects (one holding whitespace) raises
    it, so every word can head a record of :func:`write_embeddings`."""
    words: dict[str, None] = {}
    for number, line in _lines(stream):
        word = line.strip()
        check_query_word(word, number)
        words[word] = None
    if not words:
        raise ValueError("empty query word list")
    for word in words:
        check_token(word)
    return list(words)


def read_freqs(stream: IO[str], *, lowercase: bool = False) -> tuple[list[tuple[str, int]], int]:
    """Parse ``word,count`` or tab-separated frequency lines, with
    ``lowercase`` lowercasing each word.

    Returns the entries plus a count of malformed lines skipped.  Blank
    lines are ignored without counting.  A word longer than the lattice
    takes raises ``ValueError`` naming its line.
    """
    entries: list[tuple[str, int]] = []
    skipped = 0
    for number, line in _lines(stream):
        if "\t" in line:
            word, _, count_text = line.partition("\t")
        elif "," in line:
            word, _, count_text = line.rpartition(",")
        else:
            skipped += 1
            continue
        if not word:
            skipped += 1
            continue
        try:
            count = int(count_text.strip())
        except ValueError:
            skipped += 1
            continue
        if count < 0:
            skipped += 1
            continue
        if lowercase:
            word = word.lower()
        check_query_word(word, number)
        entries.append((word, count))
    return entries, skipped


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object that holds no key twice."""
    if len({key for key, _ in pairs}) != len(pairs):
        raise ValueError(f"key {_duplicate([key for key, _ in pairs])!r} is repeated")
    return dict(pairs)


def table_settings(table: SubwordTable) -> dict[str, object]:
    """The fields of ``table`` other than ``probs``: the settings line of a
    subword file and the ``"table"`` object of a model's ``config.json``."""
    return {f.name: getattr(table, f.name) for f in fields(SubwordTable) if f.name != "probs"}


def subword_table(names: Collection[str], probs: Iterable[float], settings: Mapping[str, object]) -> SubwordTable:
    """The table that gives the i-th name the i-th probability, with the
    fields ``settings`` holds (:func:`table_settings`); a name listed twice
    raises ``ValueError``, as do the values the table rejects."""
    entries = ReadOnlyDict(zip(names, probs))
    if len(entries) != len(names):
        raise ValueError(f"subword {_duplicate(names)!r} is listed twice")
    return SubwordTable(entries, **settings)


def write_subwords(table: SubwordTable, stream: IO[str]) -> None:
    """Write the settings line ``#<TAB>`` + the JSON object of
    :func:`table_settings`, then ``subword<TAB>probability`` lines, so a
    table round-trips exactly.

    A subword that holds a tab, ``\\n`` or ``\\r`` (which a file opened
    with universal newlines reads as a line break) raises ``ValueError``
    before anything is written.  Each probability is written as the
    ``repr`` of its ``float``, whatever number type the table holds.
    """
    subwords = sorted(table.probs)
    for subword in subwords:
        if "\t" in subword or "\n" in subword or "\r" in subword:
            raise ValueError(f"subword contains a tab or newline: {subword!r}")
    stream.write(f"#\t{json.dumps(table_settings(table))}\n")
    probs = table.probs
    for subword in subwords:
        stream.write(f"{subword}\t{float(probs[subword])!r}\n")


def read_subwords(stream: IO[str]) -> SubwordTable:
    """Parse a file written by :func:`write_subwords` into the table of
    :func:`subword_table`; a file without the settings line takes the
    :class:`SubwordTable` defaults.

    Only line 1 can be the settings line; a subword line holds a number,
    which never starts with ``{``.  A malformed line or a value that is not
    a number raises :class:`FormatError` naming the line, and what
    :func:`subword_table` rejects raises it naming the subword or setting.
    """
    settings: dict[str, object] = {}
    names: list[str] = []
    probs: list[float] = []
    for number, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        if number == 1 and line.startswith("#\t{"):
            try:
                settings = json.loads(line[2:], object_pairs_hook=_unique_keys)
            except ValueError as exc:
                raise FormatError(f"line 1: {exc}") from None
            continue
        subword, sep, value = line.partition("\t")
        if not sep or not subword:
            raise FormatError(f"line {number}: malformed subword line: {line!r}")
        try:
            probs.append(float(value))
        except ValueError:
            raise FormatError(f"line {number}: not a number: {value!r}") from None
        names.append(subword)
    if not names:
        raise FormatError("subword file contains no subwords")
    try:
        return subword_table(names, probs, settings)
    except (TypeError, ValueError) as exc:
        raise FormatError(str(exc)) from None


def read_similarity_pairs(stream: IO[str]) -> tuple[list[SimilarityPair], int]:
    """Parse ``word1<TAB>word2<TAB>score`` lines; ``#`` comments and blank
    lines are skipped, malformed lines and non-finite scores skipped and
    counted.  A word whose lowercase, which ``word_similarity`` composes,
    the lattice would reject for its length raises ``ValueError`` naming
    its line."""
    pairs: list[SimilarityPair] = []
    skipped = 0
    for number, line in _records(stream):
        fields = line.split("\t")
        if len(fields) != 3 or not fields[0] or not fields[1]:
            skipped += 1
            continue
        try:
            score = float(fields[2])
        except ValueError:
            score = math.nan
        if not math.isfinite(score):
            skipped += 1
            continue
        check_query_word(fields[0].lower(), number)
        check_query_word(fields[1].lower(), number)
        pairs.append(SimilarityPair(word1=fields[0], word2=fields[1], human_score=score))
    return pairs, skipped


def read_affix_inventory(stream: IO[str]) -> tuple[list[Affix], int]:
    """Parse ``text<TAB>prefix|suffix`` lines into the affix inventory;
    ``#`` comments and blank lines are skipped, malformed lines and a
    text listed again skipped and counted."""
    inventory: dict[str, Affix] = {}
    skipped = 0
    for _, line in _records(stream):
        text, sep, kind = line.partition("\t")
        kind = kind.strip().lower()
        if not sep or not text or kind not in ("prefix", "suffix") or text in inventory:
            skipped += 1
            continue
        inventory[text] = Affix(text=text, kind=kind)
    return list(inventory.values()), skipped


def read_affix_instances(
    stream: IO[str], inventory: Iterable[Affix]
) -> tuple[list[AffixInstance], int]:
    """Parse ``word<TAB>label`` lines, resolving labels against the
    inventory; ``#`` comments and blank lines are skipped, lines with
    unknown labels skipped and counted.  A word longer than the lattice
    takes raises ``ValueError`` naming its line."""
    by_text = {affix.text: affix for affix in inventory}
    instances: list[AffixInstance] = []
    skipped = 0
    for number, line in _records(stream):
        word, sep, label = line.partition("\t")
        label = label.strip()
        if not sep or not word or label not in by_text:
            skipped += 1
            continue
        check_query_word(word, number)
        instances.append(AffixInstance(word=word, gold=by_text[label]))
    return instances, skipped
