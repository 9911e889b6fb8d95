"""Per-layer metrics from the spans of one traced set-up plus unit.

Times named ``*_s`` are totals over the traced unit (time the layer was
busy); ``*_us`` and ``*_ms`` are means per call; ``*_frac`` are shares
whose base is given by the matching ``*_calls`` count.  A metric whose
spans did not occur in the traced unit reads 0 and is listed as absent.
"""

from __future__ import annotations

from collections import defaultdict

from workloads import TOP_K_BINS, WEIGHT_BINS, length_bin

CLI_COMMANDS = ("build_subwords", "train", "predict", "segment")


def _epochs(tracer, train_index: int):
    """(precompute seconds, epoch durations, words) for one train span.
    Precompute ends with the last ``composition_weights`` call it made;
    epochs end at each ``on_epoch`` callback."""
    train = tracer.spans[train_index]
    weights = [
        s for s in tracer.spans[train_index + 1:]
        if s.parent == train_index and s.name == "embedding_model.composition_weights"
    ]
    if not weights:
        return None
    precompute_end = max(s.end for s in weights)
    marks = [t for t in tracer.epoch_marks if train.start <= t <= train.end]
    bounds = [precompute_end] + marks
    return precompute_end - train.start, [b - a for a, b in zip(bounds, bounds[1:])], len(weights)


def layer_metrics(tracer, root_index: int, overhead_frac: float, model_mb: float) -> tuple[dict, list[str]]:
    root = tracer.spans[root_index]
    by_name = defaultdict(list)
    train_indices = []
    for index in range(root_index + 1, len(tracer.spans)):
        span = tracer.spans[index]
        by_name[span.name].append(span)
        if span.name == "embedding_model.train":
            train_indices.append(index)

    def total(name):
        return sum(s.duration for s in by_name[name])

    def rate_mb_per_s(name):
        sized = [s for s in by_name[name] if isinstance(s.attr, int)]
        busy = sum(s.duration for s in sized)
        return sum(s.attr for s in sized) / 1e6 / busy if busy else 0.0

    m: dict[str, float] = {}
    absent: list[str] = []

    def put(metric: str, value: float, source: str) -> None:
        m[metric] = value
        if not by_name[source]:
            absent.append(metric)

    build = "subword_stats.build_table"
    builds = by_name[build]
    put("subword_stats.build_table_s", total(build), build)
    put("subword_stats.table_subwords", builds[-1].attr if builds and isinstance(builds[-1].attr, int) else 0, build)
    for fn in ("read_freqs", "write_subwords", "read_subwords", "read_embeddings", "write_embeddings"):
        put(f"io_formats.{fn}_s", total(f"io_formats.{fn}"), f"io_formats.{fn}")
    for fn in ("read_embeddings", "write_embeddings"):
        put(f"io_formats.{fn}_mb_per_s", rate_mb_per_s(f"io_formats.{fn}"), f"io_formats.{fn}")
    m["io_formats.model_mb"] = model_mb
    if not model_mb:
        absent.append("io_formats.model_mb")

    put("embedding_model.load_s", total("embedding_model.load"), "embedding_model.load")
    put("embedding_model.save_s", total("embedding_model.save"), "embedding_model.save")
    precompute, epochs, words = 0.0, [], 0
    for index in train_indices:
        found = _epochs(tracer, index)
        if found:
            precompute += found[0]
            epochs += found[1]
            words = found[2]
    train = "embedding_model.train"
    put("embedding_model.train_precompute_s", precompute, train)
    put("embedding_model.train_epoch_s", sum(epochs) / len(epochs) if epochs else 0.0, train)
    put("embedding_model.train_words_per_s", words * len(epochs) / sum(epochs) if epochs else 0.0, train)
    compose = "embedding_model.compose"
    composes = by_name[compose]
    put("embedding_model.compose_calls", len(composes), compose)
    put("embedding_model.compose_self_us",
        sum(s.self_time for s in composes) / len(composes) * 1e6 if composes else 0.0, compose)
    put("embedding_model.zero_vector_frac",
        sum(1 for s in composes if s.attr is True) / len(composes) if composes else 0.0, compose)

    weights = by_name["lattice.subword_weights"]
    put("lattice.subword_weights_calls", len(weights), "lattice.subword_weights")
    binned = defaultdict(list)
    for s in weights:
        if isinstance(s.attr, tuple):
            binned[length_bin(s.attr[0], WEIGHT_BINS)].append(s.duration)
    for name, _ in WEIGHT_BINS:
        times = binned[name]
        m[f"lattice.subword_weights_us.{name}"] = sum(times) / len(times) * 1e6 if times else 0.0
        if not times:
            absent.append(f"lattice.subword_weights_us.{name}")
    put("lattice.fallback_frac",
        sum(1 for s in weights if isinstance(s.attr, tuple) and s.attr[1]) / len(weights) if weights else 0.0,
        "lattice.subword_weights")
    top_k = by_name["lattice.top_k_segmentations"]
    put("lattice.top_k_calls", len(top_k), "lattice.top_k_segmentations")
    binned = defaultdict(list)
    for s in top_k:
        if isinstance(s.attr, int):
            binned[length_bin(s.attr, TOP_K_BINS)].append(s.duration)
    for name, _ in TOP_K_BINS:
        times = binned[name]
        m[f"lattice.top_k_ms.{name}"] = sum(times) / len(times) * 1e3 if times else 0.0
        if not times:
            absent.append(f"lattice.top_k_ms.{name}")

    for command in CLI_COMMANDS:
        put(f"cli.{command}_self_s", sum(s.self_time for s in by_name[f"cli.{command}"]), f"cli.{command}")

    m["trace.wall_s"] = root.duration
    m["trace.untraced_frac"] = root.self_time / root.duration
    m["trace.overhead_frac"] = overhead_frac
    return m, absent


def self_time_breakdown(tracer, root_index: int) -> dict[str, float]:
    """Self seconds by span name; they sum to the root span's duration.
    The root's own entry is the untraced remainder."""
    out: dict[str, float] = defaultdict(float)
    for span in tracer.spans[root_index:]:
        out[span.name] += span.self_time
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
