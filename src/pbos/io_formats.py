"""Readers and writers for the toolkit's text formats.

All files are UTF-8.  Embedding files use the word2vec text layout
(``N d`` header, then ``token v1 ... vd`` per line, single-space
separated) written at 9 significant digits.  Reading such a file back
gives each value to within 5e-9 relative (half a unit in the ninth
digit), exactly for float32 data, and writing what was read reproduces
the file byte for byte.  The text layout serves the target embeddings
``train`` reads and the vectors ``predict`` writes, nothing else: a model
keeps its subword vectors in a binary float64 file, stored exactly (see
:mod:`pbos.embedding_model`).
Frequency and benchmark readers skip malformed lines and count them.
Embedding and subword files abort with :class:`FormatError` on a
structural problem or a value no model can use: a non-finite vector
component, or a probability outside (0, 1].
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import IO

import numpy as np

from .evaluation import Affix, AffixInstance, SimilarityPair
from .subword_stats import SubwordTable


class FormatError(ValueError):
    """Structural problem in an input file."""


@dataclass
class TargetEmbeddings:
    """Fixed pre-trained word vectors a model is fitted against."""

    dim: int
    entries: dict[str, np.ndarray]
    duplicates_skipped: int = 0


def read_embeddings(stream: IO[str]) -> TargetEmbeddings:
    """Parse a word2vec text file; duplicate tokens keep the first
    occurrence and are counted in ``duplicates_skipped``."""
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

    entries: dict[str, np.ndarray] = {}
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
        try:
            values = [float(x) for x in fields[1:]]
        except ValueError:
            raise FormatError(
                f"record {record + 1} has a non-numeric component"
            ) from None
        # an inf or nan component makes the sum non-finite, so a finite
        # sum clears the record without a per-component test
        if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
            raise FormatError(
                f"record {record + 1} ({token!r}) has a non-finite component"
            )
        vector = np.array(values, dtype=np.float64)
        if token in entries:
            duplicates += 1
            continue
        entries[token] = vector
    trailing = stream.readline()
    if trailing.strip():
        raise FormatError(f"more records than the header declares ({declared})")
    return TargetEmbeddings(dim=dim, entries=entries, duplicates_skipped=duplicates)


def write_embeddings(
    entries: Mapping[str, np.ndarray] | Iterable[tuple[str, np.ndarray]],
    stream: IO[str],
) -> None:
    """Write word2vec text format at 9 significant digits (``predict``
    output; models are saved in binary).

    A value read back differs from the written float64 by at most 5e-9
    relative (half a unit in the ninth digit; exact for float32 data),
    and rewriting the values read back gives the same bytes.
    """
    items = entries.items() if isinstance(entries, Mapping) else list(entries)
    records = []
    dim: int | None = None
    for token, vector in items:
        if not token or any(ch.isspace() for ch in token):
            raise ValueError(f"token is empty or contains whitespace: {token!r}")
        arr = np.asarray(vector, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"vector for {token!r} is not one-dimensional")
        if dim is None:
            dim = arr.shape[0]
        elif arr.shape[0] != dim:
            raise ValueError(
                f"inconsistent dimension for {token!r}: {arr.shape[0]} != {dim}"
            )
        records.append((token, arr))
    if not records:
        raise ValueError("refusing to write an empty embedding file")
    stream.write(f"{len(records)} {dim}\n")
    for token, arr in records:
        stream.write(token)
        for value in arr:
            stream.write(" " + format(value, ".9g"))
        stream.write("\n")


def read_freqs(stream: IO[str]) -> tuple[list[tuple[str, int]], int]:
    """Parse ``word,count`` or tab-separated frequency lines.

    Returns the entries plus a count of malformed lines skipped.  Blank
    lines are ignored without counting.
    """
    entries: list[tuple[str, int]] = []
    skipped = 0
    for raw in stream:
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
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
        entries.append((word, count))
    return entries, skipped


# A line is a table header only when it starts with one of these; any
# other line, one that starts with ``#`` included, holds a subword.
_HEADERS = ("# prob_eps\t", "# max_len\t", "# total_mass\t")
_HEADER_SUBWORDS = frozenset(header[:-1] for header in _HEADERS)


def write_subwords(table: SubwordTable, stream: IO[str]) -> None:
    """Write ``subword<TAB>probability`` lines after three header lines
    holding the table's other fields, so a table round-trips exactly.

    A subword that holds a tab or newline, or that would read back as a
    header line, raises ``ValueError``.
    """
    stream.write(f"# prob_eps\t{table.prob_eps!r}\n")
    stream.write(f"# max_len\t{'none' if table.max_len is None else table.max_len}\n")
    stream.write(f"# total_mass\t{table.total_mass!r}\n")
    for subword in sorted(table.probs):
        if "\t" in subword or "\n" in subword:
            raise ValueError(f"subword contains a tab or newline: {subword!r}")
        if subword in _HEADER_SUBWORDS:
            raise ValueError(f"subword would read back as a header line: {subword!r}")
        stream.write(f"{subword}\t{table.probs[subword]!r}\n")


def read_subwords(stream: IO[str]) -> SubwordTable:
    """Parse a file written by :func:`write_subwords`; an absent header
    takes the :class:`SubwordTable` default.

    A probability outside (0, 1] (nan and inf included), or a header
    value that is malformed or that :class:`SubwordTable` rejects (a
    ``prob_eps`` outside (0, 1), a ``max_len`` below 1), raises
    :class:`FormatError` naming the line.
    """
    header: dict[str, float | int | None] = {}
    probs: dict[str, float] = {}
    for number, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        if line.startswith("#") and line.startswith(_HEADERS):
            key, _, value = line[2:].partition("\t")
            if key == "max_len":
                header[key] = None if value == "none" else _parse_int(value, number)
            else:
                header[key] = _parse_float(value, number)
            try:
                SubwordTable({}, **{key: header[key]})  # the table checks its fields
            except ValueError as exc:
                raise FormatError(f"line {number}: {exc}") from None
            continue
        subword, sep, value = line.partition("\t")
        if not sep or not subword:
            raise FormatError(f"line {number}: malformed subword line: {line!r}")
        prob = _parse_float(value, number)
        if not 0.0 < prob <= 1.0:
            raise FormatError(
                f"line {number}: probability of {subword!r} must be in (0, 1], got {value!r}"
            )
        probs[subword] = prob
    if not probs:
        raise FormatError("subword file contains no subwords")
    return SubwordTable(probs, **header)


def _parse_float(text: str, number: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise FormatError(f"line {number}: not a number: {text!r}") from None


def _parse_int(text: str, number: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"line {number}: not an integer: {text!r}") from None


def read_similarity_pairs(stream: IO[str]) -> tuple[list[SimilarityPair], int]:
    """Parse ``word1<TAB>word2<TAB>score`` lines; ``#`` comments and blank
    lines are skipped, malformed lines skipped and counted."""
    pairs: list[SimilarityPair] = []
    skipped = 0
    for raw in stream:
        line = raw.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3 or not fields[0] or not fields[1]:
            skipped += 1
            continue
        try:
            score = float(fields[2])
        except ValueError:
            skipped += 1
            continue
        pairs.append(SimilarityPair(word1=fields[0], word2=fields[1], human_score=score))
    return pairs, skipped


def read_affix_inventory(stream: IO[str]) -> tuple[list[Affix], int]:
    """Parse ``text<TAB>prefix|suffix`` lines into the affix inventory."""
    inventory: list[Affix] = []
    seen: set[str] = set()
    skipped = 0
    for raw in stream:
        line = raw.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        text, sep, kind = line.partition("\t")
        kind = kind.strip().lower()
        if not sep or not text or kind not in ("prefix", "suffix"):
            skipped += 1
            continue
        if text in seen:
            skipped += 1
            continue
        seen.add(text)
        inventory.append(Affix(text=text, kind=kind))
    return inventory, skipped


def read_affix_instances(
    stream: IO[str], inventory: Iterable[Affix]
) -> tuple[list[AffixInstance], int]:
    """Parse ``word<TAB>label`` lines, resolving labels against the
    inventory; lines with unknown labels are skipped and counted."""
    by_text = {affix.text: affix for affix in inventory}
    instances: list[AffixInstance] = []
    skipped = 0
    for raw in stream:
        line = raw.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        word, sep, label = line.partition("\t")
        label = label.strip()
        if not sep or not word or label not in by_text:
            skipped += 1
            continue
        instances.append(AffixInstance(word=word, gold=by_text[label]))
    return instances, skipped
