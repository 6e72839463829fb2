"""The four base EA models explained and repaired by ExEA."""

from .aligne import AlignE
from .base import EAModel, EntityIndex, EpochRecord, TrainingConfig, build_adjacency
from .dual_amn import DualAMN
from .gcn_align import GCNAlign
from .mtranse import MTransE

#: Models in the order the paper's tables report them.
MODEL_REGISTRY: dict[str, type[EAModel]] = {
    "MTransE": MTransE,
    "AlignE": AlignE,
    "GCN-Align": GCNAlign,
    "Dual-AMN": DualAMN,
}


def make_model(name: str, config: TrainingConfig | None = None) -> EAModel:
    """Instantiate a model by its paper name (case-insensitive)."""
    for registered, cls in MODEL_REGISTRY.items():
        if registered.lower() == name.lower():
            return cls(config)
    raise KeyError(f"unknown model {name!r}; available: {', '.join(MODEL_REGISTRY)}")


__all__ = [
    "AlignE",
    "DualAMN",
    "EAModel",
    "EntityIndex",
    "EpochRecord",
    "GCNAlign",
    "MODEL_REGISTRY",
    "MTransE",
    "TrainingConfig",
    "build_adjacency",
    "make_model",
]
