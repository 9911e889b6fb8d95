"""Command line interface.

Subcommands cover the whole pipeline: ``build-subwords`` turns a word
frequency list into a subword probability file, ``train`` fits subword
vectors to target embeddings, ``predict`` composes vectors for arbitrary
query words, ``segment`` prints top segmentations and subword weights,
and ``eval-ws``/``eval-affix`` run the evaluations.

Exit codes: 0 success, 1 usage error, 2 data error.  Diagnostics go to
stderr; data goes to stdout or the requested output file.  Every input
file is read as UTF-8, and an error in one names the file; an output file
is replaced whole or left as it was (see :mod:`pbos.io_formats`).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from . import io_formats, lattice
from .embedding_model import PbosModel, TrainConfig, Variant, reject_boundary_markers, train
from .evaluation import evaluate_affix_dataset, filter_affix_dataset, word_similarity
from .subword_stats import build_table

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this toolkit reserves
    2 for data errors and uses 1 for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pbos",
        description="Generalize pre-trained word embeddings to out-of-vocabulary "
        "words using only spellings.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser(
        "build-subwords",
        help="build a subword probability file from a word frequency list",
        formatter_class=fmt,
    )
    p.add_argument("--freqs", required=True, help="frequency list (word,count or word<TAB>count per line)")
    p.add_argument("--max-len", type=int, default=None, help="cap on counted subword length (default: unbounded)")
    p.add_argument("--lowercase", action="store_true", help="lowercase words before counting")
    p.add_argument("--out", required=True, help="output subwords.tsv path")
    p.set_defaults(run=_cmd_build_subwords)

    p = sub.add_parser(
        "train",
        help="fit subword vectors to target embeddings",
        formatter_class=fmt,
    )
    p.add_argument("--target", required=True, help="target embeddings (word2vec text format)")
    p.add_argument("--subwords", required=True, help="subword probability file")
    # each TrainConfig field has one flag, with the field's name as dest
    p.add_argument("--variant", choices=[v.value for v in Variant], default=TrainConfig.variant.value, help="composition variant")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs, help="training epochs")
    p.add_argument("--lr", dest="lr0", type=float, default=TrainConfig.lr0, help="initial learning rate")
    p.add_argument("--lr-decay", action=argparse.BooleanOptionalAction, default=TrainConfig.lr_decay,
                   help="decay the learning rate with the inverse square root of the epoch")
    p.add_argument("--bos-min-len", type=int, default=TrainConfig.bos_min_len, help="minimum n-gram length (bos variant)")
    p.add_argument("--bos-max-len", type=int, default=TrainConfig.bos_max_len, help="maximum n-gram length (bos variant)")
    p.add_argument("--bos-word-boundary", action=argparse.BooleanOptionalAction, default=TrainConfig.bos_word_boundary,
                   help="wrap words in boundary markers before n-gram extraction (bos variant)")
    p.add_argument("--seed", type=int, default=TrainConfig.seed, help="RNG seed for epoch shuffling")
    p.add_argument("--out", required=True, help="output model directory")
    p.set_defaults(run=_cmd_train)

    p = sub.add_parser(
        "predict",
        help="compose embedding vectors for query words",
        formatter_class=fmt,
    )
    p.add_argument("--model", required=True, help="model directory")
    p.add_argument("--words", default=None, help="query words, one per line (default: stdin)")
    p.add_argument("--out", default=None, help="output embedding file (default: stdout)")
    p.set_defaults(run=_cmd_predict)

    p = sub.add_parser(
        "segment",
        help="print top segmentations and subword weights per word",
        formatter_class=fmt,
    )
    p.add_argument("--subwords", required=True, help="subword probability file")
    p.add_argument("--k", type=int, default=5, help="number of segmentations to print")
    p.add_argument("--m", type=int, default=5, help="number of weighted subwords to print")
    p.add_argument("words", nargs="+", help="words to segment")
    p.set_defaults(run=_cmd_segment)

    p = sub.add_parser(
        "eval-ws",
        help="word-similarity evaluation (Spearman correlation)",
        formatter_class=fmt,
    )
    p.add_argument("--model", required=True, help="model directory")
    p.add_argument("--pairs", required=True, help="benchmark file (word1<TAB>word2<TAB>score)")
    p.set_defaults(run=_cmd_eval_ws)

    p = sub.add_parser(
        "eval-affix",
        help="affix prediction evaluation (macro precision/recall/F1)",
        formatter_class=fmt,
    )
    p.add_argument("--subwords", default=None, help="subword probability file (the pbos predictor reads it)")
    p.add_argument("--data", required=True, help="instances file (word<TAB>label)")
    p.add_argument("--inventory", required=True, help="affix inventory file (label<TAB>prefix|suffix)")
    p.add_argument("--predictor", choices=["pbos", "random"], default="pbos", help="predictor to evaluate")
    p.add_argument("--seed", type=int, default=0, help="seed for the random baseline")
    p.set_defaults(run=_cmd_eval_affix, usage_error=p.error)

    return parser


def _read(path: str, reader):
    """``reader`` applied to the UTF-8 file at ``path``; its errors name the file."""
    with io_formats.naming(path), open(path, encoding="utf-8") as fh:
        return reader(fh)


def _cmd_build_subwords(args) -> int:
    if args.max_len is not None and args.max_len < 1:
        raise ValueError(f"--max-len must be at least 1, got {args.max_len}")
    entries, skipped = _read(args.freqs, lambda fh: io_formats.read_freqs(fh, lowercase=args.lowercase))
    if skipped:
        _info(f"skipped {skipped} malformed frequency lines")
    with io_formats.naming(args.freqs):
        table = build_table(entries, max_len=args.max_len)
    with io_formats.replaced(args.out) as fh:
        io_formats.write_subwords(table, fh)
    _info(f"wrote {len(table)} subwords to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    config = TrainConfig(**{setting.name: getattr(args, setting.name) for setting in fields(TrainConfig)})
    targets, duplicates = _read(args.target, io_formats.read_embeddings)
    with io_formats.naming(args.target):
        reject_boundary_markers(targets.index, config.use_word_boundary)
    if duplicates:
        _info(f"skipped {duplicates} duplicate target tokens")
    table = _read(args.subwords, io_formats.read_subwords)
    model = train(
        targets, table, config,
        on_epoch=lambda epoch, value: print(f"{epoch}\t{value:.9g}"),
    )
    model.save(args.out)
    _info(f"saved model to {args.out}")
    return EXIT_OK


def _query_words(stream) -> list[str]:
    """The distinct stripped lines of ``stream`` (split at ``\\n`` only),
    each one a token ``write_embeddings`` can write and no longer than
    the lattice takes."""
    words: dict[str, None] = {}
    for number, line in enumerate(stream.read().split("\n"), 1):
        word = line.strip()
        if word:
            io_formats.check_query_word(word, number)
            words[word] = None
    if not words:
        raise ValueError("empty query word list")
    for word in words:
        io_formats.check_token(word)
    return list(words)


def _cmd_predict(args) -> int:
    words = _query_words(sys.stdin) if args.words is None else _read(args.words, _query_words)
    model = PbosModel.load(args.model)
    with io_formats.naming("<stdin>" if args.words is None else args.words):
        reject_boundary_markers(words, model.config.use_word_boundary)
    # the store rejects a non-finite vector before an output is opened
    composed = io_formats.SubwordEmbeddings(words, model.compose_many(words))
    if args.out is None:
        io_formats.write_embeddings(composed, sys.stdout)
    else:
        with io_formats.replaced(args.out) as fh:
            io_formats.write_embeddings(composed, fh)
    _info(f"composed {len(words)} vectors")
    return EXIT_OK


def _cmd_segment(args) -> int:
    if not 1 <= args.k <= lattice.MAX_TOP_K:
        raise ValueError(f"--k must be in 1..{lattice.MAX_TOP_K}, got {args.k}")
    if args.m < 1:
        raise ValueError(f"--m must be at least 1, got {args.m}")
    table = _read(args.subwords, io_formats.read_subwords)
    for word in args.words:
        segmentations = lattice.top_k_segmentations(word, table, args.k)
        weights = lattice.subword_weights(word, table)
        top_subwords = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))[: args.m]
        seg_text = ", ".join(
            f"{'/'.join(seg)} ({prob:.3f})" for seg, prob in segmentations
        )
        sub_text = ", ".join(f"{sub} ({weight:.3f})" for sub, weight in top_subwords)
        print(f"{word}\t{seg_text}\t{sub_text}")
    return EXIT_OK


def _cmd_eval_ws(args) -> int:
    pairs, skipped = _read(args.pairs, io_formats.read_similarity_pairs)
    if not pairs:
        raise ValueError(f"no usable pairs in {args.pairs}")
    model = PbosModel.load(args.model)
    with io_formats.naming(args.pairs):
        words = (word for pair in pairs for word in (pair.word1, pair.word2))
        reject_boundary_markers(words, model.config.use_word_boundary)
    rho = word_similarity(model, pairs)
    _info(f"Spearman rho {rho:.4f} over {len(pairs)} pairs ({skipped} lines skipped)")
    print(f"pairs\t{len(pairs)}")
    print(f"skipped_lines\t{skipped}")
    print(f"spearman\t{rho:.6f}")
    return EXIT_OK


def _cmd_eval_affix(args) -> int:
    if args.predictor == "pbos" and args.subwords is None:
        args.usage_error("the pbos predictor needs --subwords")
    inventory, bad_inventory = _read(args.inventory, io_formats.read_affix_inventory)
    if not inventory:
        raise ValueError(f"no usable affixes in {args.inventory}")
    instances, bad_instances = _read(args.data, lambda fh: io_formats.read_affix_instances(fh, inventory))
    kept = filter_affix_dataset(instances, inventory)
    if not kept:
        raise ValueError("no instances remain after filtering")
    table = _read(args.subwords, io_formats.read_subwords) if args.predictor == "pbos" else None
    precision, recall, f1 = evaluate_affix_dataset(
        kept, inventory, predictor=args.predictor, table=table, seed=args.seed
    )
    _info(
        f"{args.predictor}: P {precision:.3f} R {recall:.3f} F1 {f1:.3f} on "
        f"{len(kept)} instances ({len(instances) - len(kept)} filtered, "
        f"{bad_instances + bad_inventory} lines skipped)"
    )
    print(f"instances\t{len(kept)}")
    print(f"filtered_out\t{len(instances) - len(kept)}")
    print(f"precision\t{precision:.6f}")
    print(f"recall\t{recall:.6f}")
    print(f"f1\t{f1:.6f}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # every command rejects a non-finite result it would hand out, so
        # numpy's overflow warnings would only repeat that error on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return args.run(args)
    except SystemExit as exc:  # --help, or a usage error (EXIT_USAGE)
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"pbos: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
