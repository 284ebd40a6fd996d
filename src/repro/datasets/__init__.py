"""Synthetic datasets standing in for the paper's public datasets.

Each generator is deterministic given its config seed, playing the role of
a fixed public dataset; see DESIGN.md for the substitution rationale.
"""

from .synthetic_images import ImageNetConfig, SyntheticImageNet, random_crop_flip
from .shapes import SHAPE_CLASSES, Scene, SceneConfig, SceneObject, ShapeScenes
from .translation import SyntheticTranslation, TranslationConfig, Vocabulary
from .interactions import InteractionConfig, SyntheticInteractions

__all__ = [
    "ImageNetConfig",
    "SyntheticImageNet",
    "random_crop_flip",
    "SHAPE_CLASSES",
    "Scene",
    "SceneConfig",
    "SceneObject",
    "ShapeScenes",
    "SyntheticTranslation",
    "TranslationConfig",
    "Vocabulary",
    "InteractionConfig",
    "SyntheticInteractions",
]
