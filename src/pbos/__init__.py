"""Generalize pre-trained word embeddings to out-of-vocabulary words.

The model learns one vector per subword by fitting target embeddings
under a probabilistic bag-of-subwords composition: a word's vector is the
weighted sum of its subword vectors, with weights given by an exact
quadratic-time dynamic program over the word's segmentation lattice.
"""

from .embedding_model import (
    PbosModel,
    SubwordEmbeddings,
    TrainConfig,
    Variant,
    bos_subword_counts,
    composition_weights,
    gradient_check,
    loss,
    train,
    weight_matrix,
)
from .evaluation import (
    Affix,
    AffixInstance,
    SimilarityPair,
    affix_predict_pbos,
    affix_predict_random,
    evaluate_affix_dataset,
    filter_affix_dataset,
    macro_prf,
    possible_affixes,
    spearman,
    word_similarity,
)
from .io_formats import (
    FormatError,
    TargetEmbeddings,
    read_affix_instances,
    read_affix_inventory,
    read_embeddings,
    read_freqs,
    read_similarity_pairs,
    read_subwords,
    write_embeddings,
    write_subwords,
)
from .lattice import (
    Segmentation,
    backward_sums,
    enumerate_all_segmentations,
    forward_sums,
    partition,
    segmentation_likelihood,
    subword_weights,
    top_k_segmentations,
)
from .subword_stats import SubwordTable, WordFreqList, build_table, merge_freqs

__version__ = "0.1.0"

__all__ = [
    "Affix",
    "AffixInstance",
    "FormatError",
    "PbosModel",
    "Segmentation",
    "SimilarityPair",
    "SubwordEmbeddings",
    "SubwordTable",
    "TargetEmbeddings",
    "TrainConfig",
    "Variant",
    "WordFreqList",
    "affix_predict_pbos",
    "affix_predict_random",
    "backward_sums",
    "bos_subword_counts",
    "build_table",
    "composition_weights",
    "enumerate_all_segmentations",
    "evaluate_affix_dataset",
    "filter_affix_dataset",
    "forward_sums",
    "gradient_check",
    "loss",
    "macro_prf",
    "merge_freqs",
    "partition",
    "possible_affixes",
    "read_affix_instances",
    "read_affix_inventory",
    "read_embeddings",
    "read_freqs",
    "read_similarity_pairs",
    "read_subwords",
    "segmentation_likelihood",
    "spearman",
    "subword_weights",
    "top_k_segmentations",
    "train",
    "weight_matrix",
    "word_similarity",
    "write_embeddings",
    "write_subwords",
]
