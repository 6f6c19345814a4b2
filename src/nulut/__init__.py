"""Differentiable non-uniform 3D lookup tables for image color transforms."""

from .lattice import (
    Lattice,
    coordinate_logit_vjp,
    coordinates_from_logits,
    identity_lut,
    intervals_to_coordinates,
    shared_to_full,
    softmax_normalize,
    uniform_coordinates,
)
from .transform import (
    LatticeGradients,
    backward_pixel,
    lookup,
    lookup_with_count,
    transform_image,
    transform_pixel,
    transform_vjp,
    transform_with_grads,
    trilinear_weights,
)
from .predictor import (
    FEATURE_DIM,
    PredictorParams,
    extract_features,
    init_params,
    predict_logits,
    predict_values,
)
from .training import (
    AdamState,
    ImagePair,
    LossWeights,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    fit_direct,
    monotonicity_loss,
    reconstruction_loss,
    smoothness_loss,
    total_loss,
    train_predictor,
)
from .analysis import (
    ErrorHistogram,
    accumulative_error_histogram,
    error_map,
    export_diagnostics,
    psnr,
)
from .ppm import PpmParseError, read_image, read_ppm, write_image
from .lutio import LutFormatError, export_cube, load_checkpoint, load_lattice, save_lattice
from .bench import BenchReport, run_bench

__version__ = "0.1.0"
