"""Adaptive point-to-set metric learning on the Poincare ball.

Few-shot episodic classification where each sample is a set of patch
embeddings living in a hyperbolic ball. Query-to-class distances are convex
combinations of learned set-to-set distances, with the mixing weights
produced by a signature/relation network pair.
"""

from types import ModuleType as _ModuleType

from .autodiff import Tape, Var, backward, finite_diff_check
from .episodes import (
    Dataset,
    Episode,
    EpisodeSpec,
    SyntheticConfig,
    generate_synthetic,
    load_features,
    sample_episode,
    save_dataset,
)
from .errors import (
    ConfigError,
    DataFormatError,
    DomainError,
    GyroshotError,
    InsufficientDataError,
    ShapeError,
    TapeError,
    TrainingDivergedError,
)
from .fileio import load_tensors, save_tensors
from .geometry import (
    BallConfig,
    clip_to_ball,
    conformal_factor,
    einstein_midpoint,
    exp_map,
    flat_distance,
    geodesic_distance,
    klein_to_poincare,
    log_map,
    mobius_add,
)
from .metrics import (
    adaptive_combine,
    pairwise_matrix,
    s2s_learned,
)
from .netmods import (
    Encoder,
    ModelBundle,
    ModelConfig,
    RelationGenerator,
    S2SNetwork,
    SignatureGenerator,
)
from .train import (
    EvalReport,
    TrainConfig,
    TrainResult,
    VARIANTS,
    evaluate,
    run_robustness,
    train,
)

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
