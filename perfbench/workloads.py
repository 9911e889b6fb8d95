"""The three workloads: ``pipeline``, ``serve`` and ``segment``.

Each workload drives the program in-process through its public entry
points (``pbos.cli.main`` for commands, ``PbosModel.compose`` for library
use).  ``setup()`` times what a user waits for before the first result;
``unit()`` runs one unit of the workload's job.  A run repeats set-up
plus unit on the same inputs, so repeated units differ only in how much
other load on the machine slowed them.

Inputs are generated from the seed, and the models ``serve`` and
``segment`` use are built by the program's own ``build-subwords`` and
``train``, all in a child process before anything is timed
(``prepare_inputs``).  The run's own process therefore holds only what
the timed work needs, and its peak memory is the workload's.  Outputs
are kept and checked after the timed region.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import datagen
from pbos import cli
from pbos.embedding_model import PbosModel
from pbos.io_formats import read_subwords

_now = time.perf_counter

PIPELINE_EPOCHS = 10
PIPELINE_QUERIES = 5_000
SERVE_CALLS = 20_000
SERVE_DISTINCT_SHARE = 0.16
SEGMENT_K = 5
SEGMENT_LENGTHS = range(8, 17)
SEGMENT_PER_LENGTH = 112  # 1008 words, so ten lie beyond the p99
PREPARE_TIMEOUT_S = 120

# Length bins for lattice weights (compose) and for top-k search.
WEIGHT_BINS = (("len_le8", 8), ("len_9_16", 16), ("len_17_32", 32), ("len_33_128", 128), ("len_gt128", None))
TOP_K_BINS = (("len_le12", 12), ("len_13_17", 17), ("len_18_22", 22))


def length_bin(n: int, bins) -> str | None:
    for name, hi in bins:
        if hi is None or n <= hi:
            return name
    return None


def prepare_inputs(name: str, seed: int, workdir: Path) -> int:
    """Write the inputs of workload ``name`` into ``workdir``: the
    generated files, and for ``serve`` and ``segment`` the subword table
    (and model) built from them by ``pbos``.  Runs in the child process
    ``Workload.prepare`` starts; returns the first nonzero exit status of
    a command, else 0."""
    corpus = datagen.make_corpus()
    freqs, targets = workdir / "freqs.tsv", workdir / "targets.txt"
    datagen.write_freqs(corpus.freqs, freqs)
    if name == "pipeline":
        datagen.write_targets(corpus.targets, targets)
        datagen.write_words(datagen.query_words(corpus, seed, PIPELINE_QUERIES), workdir / "words.txt")
        return 0
    subwords = str(workdir / "subwords.tsv")
    commands = [["build-subwords", "--freqs", str(freqs), "--out", subwords]]
    if name == "serve":
        datagen.write_targets(corpus.targets, targets)
        commands.append([
            "train", "--target", str(targets), "--subwords", subwords, "--variant", "pbos",
            "--epochs", "1", "--seed", str(seed), "--out", str(workdir / "model"),
        ])
        words = datagen.serve_stream(corpus, seed, SERVE_CALLS, SERVE_DISTINCT_SHARE)
    else:
        words = datagen.segment_batch(corpus, seed, SEGMENT_PER_LENGTH, SEGMENT_LENGTHS)
    datagen.write_words(words, workdir / "words.txt")
    for argv in commands:
        status = cli.main(argv)
        if status != 0:
            return status
    return 0


class LineClock(io.TextIOBase):
    """A stdout stand-in that keeps the text and the time each line ended."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.times: list[float] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        for _ in range(text.count("\n")):
            self.times.append(_now())
        return len(text)

    def text(self) -> str:
        return "".join(self.parts)


class Ledger:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, failures: list[str], ops: int = 1) -> None:
        """Count ``ops`` new operations, failed ones by their failures."""
        self.attempted += ops
        if failures:
            self.failed += min(ops, len(failures))
            self.messages.extend(failures[:5])

    def flag(self, failures: list[str]) -> None:
        """Mark one operation already counted as failed, if ``failures``."""
        if failures:
            self.failed = min(self.attempted, self.failed + 1)
            self.messages.extend(failures[:5])


class Workload:
    """One workload: ``prepare()`` makes the inputs, ``setup()`` returns
    one set-up time, ``unit()`` runs one unit of the job and records its
    wall time and, where the program shows them, the latency of every
    word it handles."""

    name = ""

    def __init__(self, workdir: Path, seed: int, ledger: Ledger, tracer) -> None:
        self.dir = workdir
        self.seed = seed
        self.ledger = ledger
        self.tracer = tracer
        self.setup_samples: list[float] = []
        self.unit_walls: list[float] = []  # seconds, one per unit
        self.unit_latencies: list[list[float]] = []  # seconds, per word
        self.words: list[str] = []
        self.model_dir: Path | None = None

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def prepare(self) -> None:
        """Make the inputs in a child process and read the word list."""
        argv = [sys.executable, str(Path(__file__).with_name("run.py")), "--prepare", str(self.dir),
                "--workload", self.name, "--seed", str(self.seed)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=PREPARE_TIMEOUT_S)
        if proc.returncode != 0:
            message = f"preparing inputs exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
            self.ledger.record([message])
            raise RuntimeError(message)
        self.ledger.record([])
        with open(self.path("words.txt"), encoding="utf-8") as fh:
            self.words = fh.read().split("\n")[:-1]

    def command(self, argv: list[str]) -> tuple[float, float, LineClock]:
        """Run one ``pbos`` command; returns its start and end times and
        the captured stdout.  A nonzero exit or an escaping exception is a
        failed operation."""
        out, err = LineClock(), io.StringIO()
        with self.tracer.span("cli." + argv[0].replace("-", "_")):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = _now()
                try:
                    status = cli.main(argv)
                except Exception as exc:  # the program crashed: record and go on
                    status = repr(exc)
                end = _now()
        failures = [] if status == 0 else [f"pbos {argv[0]} exited {status}: {err.getvalue().strip()[-300:]}"]
        self.ledger.record(failures)
        return start, end, out

    def word_latencies(self) -> np.ndarray:
        """Each word's fastest time over the run's units."""
        return np.min(np.array(self.unit_latencies), axis=0)

    def end_to_end(self) -> dict[str, float]:
        """``job_s`` is the mean wall time of the units; the percentiles
        are over each word's fastest time."""
        per_word = self.word_latencies()
        return {
            "job_s": statistics.fmean(self.unit_walls),
            "word_p50_ms": float(np.percentile(per_word, 50)) * 1e3,
            "word_p99_ms": float(np.percentile(per_word, 99)) * 1e3,
        }

    def descriptors(self) -> dict[str, float]:
        """Bases for ratios: words per unit, distinct share, length histogram."""
        hist = {name: 0 for name, _ in WEIGHT_BINS + TOP_K_BINS}
        bins = TOP_K_BINS if self.name == "segment" else WEIGHT_BINS
        for word in self.words:
            hist[length_bin(len(word), bins)] += 1
        out = {
            "workload.words": len(self.words),
            "workload.distinct_frac": len(set(self.words)) / max(1, len(self.words)),
        }
        out.update({f"workload.len.{name[4:]}": count for name, count in hist.items()})
        return out


class Pipeline(Workload):
    """build-subwords (set-up) -> train -> predict over distinct query
    words.  Every word is distinct, so a compose cache has nothing to
    reuse."""

    name = "pipeline"

    def prepare(self) -> None:
        super().prepare()
        self.subwords = self.path("subwords.tsv")
        self.model_dir = self.dir / "model"
        self.predict_s: list[float] = []
        self.losses: list[list[float]] = []

    def setup(self) -> float:
        start, end, _ = self.command(["build-subwords", "--freqs", self.path("freqs.tsv"), "--out", self.subwords])
        return end - start

    def unit(self) -> None:
        start, _, stdout = self.command([
            "train", "--target", self.path("targets.txt"), "--subwords", self.subwords,
            "--variant", "pbos", "--epochs", str(PIPELINE_EPOCHS), "--seed", str(self.seed),
            "--out", str(self.model_dir),
        ])
        predict_start, end, _ = self.command([
            "predict", "--model", str(self.model_dir), "--words", self.path("words.txt"),
            "--out", self.path("predicted.txt"),
        ])
        self.unit_walls.append(end - start)
        self.predict_s.append(end - predict_start)
        self.losses.append(checks.parse_losses(stdout.text()))

    def end_to_end(self) -> dict[str, float]:
        """``predict`` shows no per-word times, so both percentiles are
        its mean time per word, averaged over units."""
        per_word_ms = statistics.fmean(self.predict_s) / len(self.words) * 1e3
        return {"job_s": statistics.fmean(self.unit_walls), "word_p50_ms": per_word_ms, "word_p99_ms": per_word_ms}

    def check(self) -> None:
        model = PbosModel.load(self.model_dir)
        dim = model.embeddings.dim
        sample = set(sorted(w for w in self.words if len(w) <= checks.COMPOSE_ORACLE_MAX_LEN)[:40])
        composed = {}
        for word in self.words:
            try:
                vec = model.compose(word)
            except Exception as exc:  # recorded as a failed operation
                vec = exc
            failures = checks.check_vector(word, vec, dim)
            if not failures:
                composed[word] = vec
                if word in sample:
                    failures = checks.check_compose(word, vec, model)
            self.ledger.record(failures)
        self.ledger.flag(checks.check_predict_output(self.path("predicted.txt"), self.words, composed))
        for losses in self.losses:
            self.ledger.flag(checks.check_train_losses(losses, PIPELINE_EPOCHS))

    def detail(self) -> dict[str, float]:
        losses = self.losses[-1]
        predict_s = statistics.fmean(self.predict_s)
        return {
            "train_s": statistics.fmean(self.unit_walls) - predict_s,
            "predict_s": predict_s,
            "train_loss": losses[-1] if losses else float("nan"),
            "train_loss_epoch1": losses[0] if losses else float("nan"),
        }


class Serve(Workload):
    """A long-lived process: load the model (set-up), then compose a
    Zipfian stream of query words one call at a time.  Every unit starts
    from a freshly loaded model."""

    name = "serve"

    def prepare(self) -> None:
        super().prepare()
        self.model_dir = self.dir / "model"
        self.model = None

    def setup(self) -> float:
        self.model = None  # so that only one model is ever held
        start = _now()
        self.model = PbosModel.load(self.model_dir)
        took = _now() - start
        self.ledger.record([])
        return took

    def word_latencies(self) -> np.ndarray:
        """Each call's fastest time over units and over the calls that do
        the same work: the other calls of its word that are, like it,
        first occurrences or repeats.  Every unit composes the stream
        from a freshly loaded model, so a program that remembers earlier
        calls treats each repeat alike; first occurrences stay apart.  A
        0.1-ms call runs on an undisturbed machine in only about a
        quarter of its copies (see README), so three copies are too few."""
        per_call = super().word_latencies()
        classes: dict[tuple[str, bool], int] = {}
        seen: set[str] = set()
        ids = np.empty(len(self.words), dtype=np.int64)
        for i, word in enumerate(self.words):
            ids[i] = classes.setdefault((word, word in seen), len(classes))
            seen.add(word)
        pooled = np.full(len(classes), np.inf)
        np.minimum.at(pooled, ids, per_call)
        return pooled[ids]

    def unit(self) -> None:
        compose = self.model.compose
        words = self.words
        latencies = [0.0] * len(words)
        results: list[object] = [None] * len(words)
        begin = _now()
        for i, word in enumerate(words):
            t0 = _now()
            try:
                results[i] = compose(word)
            except Exception as exc:  # recorded as a failed operation
                results[i] = exc
            latencies[i] = _now() - t0
        self.unit_walls.append(_now() - begin)
        self.unit_latencies.append(latencies)
        self.results = results

    def check(self) -> None:
        dim = self.model.embeddings.dim
        oracle_left = 40
        for word, vec in zip(self.words, self.results):
            failures = checks.check_vector(word, vec, dim)
            if not failures and oracle_left and len(word) <= checks.COMPOSE_ORACLE_MAX_LEN:
                failures = checks.check_compose(word, vec, self.model)
                oracle_left -= 1
            self.ledger.record(failures)

    def detail(self) -> dict[str, float]:
        per_word = self.word_latencies()
        return {
            "compose_p50_us": float(np.percentile(per_word, 50)) * 1e6,
            "compose_p99_us": float(np.percentile(per_word, 99)) * 1e6,
            "compose_words_per_s": len(self.words) / statistics.fmean(self.unit_walls),
        }


class Segment(Workload):
    """``pbos segment`` (k=5) on a batch of out-of-vocabulary words; a
    word's time is read from when its output line is written.  Set-up is
    the time to the first line of a batch holding one 1-character word;
    the measured batch also opens with such a word, whose line is not
    counted."""

    name = "segment"

    def prepare(self) -> None:
        super().prepare()
        self.batch = self.words
        self.words = self.batch[1:]
        self.subwords = self.path("subwords.tsv")
        self.outputs: list[tuple[list[str], str]] = []

    def _segment(self, words: list[str]) -> tuple[float, list[float]]:
        start, _, out = self.command(["segment", "--subwords", self.subwords, "--k", str(SEGMENT_K), *words])
        self.outputs.append((words, out.text()))
        return start, out.times

    def setup(self) -> float:
        start, times = self._segment(self.batch[:1])
        return times[0] - start if times else float("nan")

    def unit(self) -> None:
        _, times = self._segment(self.batch)
        if len(times) != len(self.batch):
            return  # reported by check()
        self.unit_walls.append(times[-1] - times[0])
        self.unit_latencies.append([b - a for a, b in zip(times, times[1:])])

    def check(self) -> None:
        table = None
        checked = 0
        for words, text in self.outputs:
            lines = text.splitlines()
            if len(lines) != len(words):
                self.ledger.record([f"segment printed {len(lines)} lines for {len(words)} words"], ops=len(words))
                continue
            for word, line in zip(words, lines):
                try:
                    got_word, printed = checks.parse_segment_line(line)
                except ValueError:
                    self.ledger.record([f"malformed segment line {line[:80]!r}"])
                    continue
                failures = [] if got_word == word else [f"segment line for {word!r} names {got_word!r}"]
                if not failures and len(word) <= checks.TOP_K_ORACLE_MAX_LEN and checked < 40:
                    if table is None:
                        with open(self.subwords, encoding="utf-8") as fh:
                            table = read_subwords(fh)
                    failures = checks.check_top_k(word, printed, table, SEGMENT_K)
                    checked += 1
                self.ledger.record(failures)

    def detail(self) -> dict[str, float]:
        per_word = self.word_latencies()
        return {
            "segment_p50_ms": float(np.percentile(per_word, 50)) * 1e3,
            "segment_p99_ms": float(np.percentile(per_word, 99)) * 1e3,
        }


WORKLOADS = {w.name: w for w in (Pipeline, Serve, Segment)}


def dir_mb(path: Path | None) -> float:
    if path is None or not path.is_dir():
        return 0.0
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file()) / 1e6


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def workdir_for(root: Path) -> Path:
    import tempfile

    base = root / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=base))
