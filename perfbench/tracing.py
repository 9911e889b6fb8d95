"""In-memory spans around calls into the program's modules.

``Tracer.install`` replaces module attributes (and the names ``pbos.cli``
imported from other modules) with wrappers that record one span per call:
name, start, end, parent and an optional attribute computed from the
call's arguments and result.  A target that no longer exists is listed in
``Tracer.absent`` and records nothing, so the program can be refactored
without breaking the benchmark.  ``uninstall`` restores the originals.

Self time is a span's duration minus the time covered by its children.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from collections.abc import Callable

_now = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "attr", "child_time")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attr = None
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _word_len(args, kwargs, result):
    return len(args[0])


def _weights_attr(args, kwargs, result):
    # (word length, partition underflowed to 0.0 so the fallback ran)
    return len(args[0]), getattr(result, "partition", None) == 0.0


def _is_zero_vector(args, kwargs, result):
    return not result.any()


def _read_bytes(args, kwargs, result):
    return os.fstat(args[0].fileno()).st_size


def _written_bytes(args, kwargs, result):
    stream = args[1]
    stream.flush()
    return os.fstat(stream.fileno()).st_size


def _length(args, kwargs, result):
    return len(result)


# (module, attribute path, span name, attribute function).  ``pbos.cli``
# calls ``train`` and ``build_table`` through the names it imported, so
# those are wrapped there as well as at their definition.
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("pbos.subword_stats", "build_table", "subword_stats.build_table", _length),
    ("pbos.cli", "build_table", "subword_stats.build_table", _length),
    ("pbos.io_formats", "read_freqs", "io_formats.read_freqs", None),
    ("pbos.io_formats", "write_subwords", "io_formats.write_subwords", None),
    ("pbos.io_formats", "read_subwords", "io_formats.read_subwords", None),
    ("pbos.io_formats", "read_embeddings", "io_formats.read_embeddings", _read_bytes),
    ("pbos.io_formats", "write_embeddings", "io_formats.write_embeddings", _written_bytes),
    ("pbos.embedding_model", "train", "embedding_model.train", None),
    ("pbos.cli", "train", "embedding_model.train", None),
    ("pbos.embedding_model", "PbosModel.load", "embedding_model.load", None),
    ("pbos.embedding_model", "PbosModel.save", "embedding_model.save", None),
    ("pbos.embedding_model", "PbosModel.compose", "embedding_model.compose", _is_zero_vector),
    ("pbos.embedding_model", "composition_weights", "embedding_model.composition_weights", None),
    ("pbos.lattice", "subword_weights", "lattice.subword_weights", _weights_attr),
    ("pbos.lattice", "top_k_segmentations", "lattice.top_k_segmentations", _word_len),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.epoch_marks: list[float] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, _now(), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = _now()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.duration

    def wrap(self, fn: Callable, name: str, attr: Callable | None) -> Callable:
        tracer = self
        hook_epochs = name == "embedding_model.train"

        def traced(*args, **kwargs):
            if hook_epochs and "on_epoch" in kwargs:
                kwargs["on_epoch"] = tracer._epoch_hook(kwargs["on_epoch"])
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if attr is not None:
                try:
                    tracer.spans[index].attr = attr(args, kwargs, result)
                except (AttributeError, IndexError, OSError, TypeError, ValueError):
                    pass
            return result

        traced.__wrapped__ = fn
        return traced

    def _epoch_hook(self, callback):
        def on_epoch(*args):
            self.epoch_marks.append(_now())
            if callback is not None:
                callback(*args)

        return on_epoch

    def install(self) -> None:
        for module_name, path, name, attr in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, leaf = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, classmethod):
                replacement = classmethod(self.wrap(raw.__func__, name, attr))
            elif callable(raw):
                replacement = self.wrap(raw, name, attr)
            else:
                self.absent.append(f"{module_name}.{path}")
                continue
            self._restore.append((owner, leaf, raw))
            setattr(owner, leaf, replacement)

    def uninstall(self) -> None:
        for owner, leaf, raw in reversed(self._restore):
            setattr(owner, leaf, raw)
        self._restore.clear()


class NullTracer:
    """Stands in for ``Tracer`` in untraced runs."""

    def span(self, name: str):
        return contextlib.nullcontext()
