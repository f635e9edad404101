"""repro.core — the paper's contribution: the deep-learning attack."""

from .attack import DLAttack, TrainLog
from .candidates import build_candidates, candidate_recall
from .config import AttackConfig
from .dataset import Batch, SampleGroup, SplitDataset, make_batch
from .image_features import ImageExtractor
from .model import SplitNet
from .vector_features import N_VECTOR_FEATURES, FeatureNormalizer, VectorFeatures

__all__ = [
    "AttackConfig",
    "Batch",
    "DLAttack",
    "FeatureNormalizer",
    "ImageExtractor",
    "N_VECTOR_FEATURES",
    "SampleGroup",
    "SplitDataset",
    "SplitNet",
    "TrainLog",
    "VectorFeatures",
    "build_candidates",
    "candidate_recall",
    "make_batch",
]
