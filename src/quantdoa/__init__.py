"""Quantized ULA signal reconstruction with MUSIC-scored evaluation."""

from .signal_model import (
    ArrayGeometry,
    draw_source_angles,
    noise_variance,
    steering_matrix,
    synthesize,
)
from .quantizer import (
    QuantizerSpec,
    clipping_rate,
    default_full_scale,
)
from .network import (
    DenoiserModel,
    backward,
    batch_norm_infer,
    batch_norm_train,
    forward,
    init_model,
    loss,
    to_half_precision,
)
from .optimizer import NonFiniteGradientError, TrainState, adam_step, init_state
from .checkpoint import CheckpointError, load_checkpoint, parameter_payload_bytes, save_checkpoint
from .music import (
    TrialResult,
    doa_mse,
    music_spectrum,
    noise_subspace,
    pick_peaks,
    run_trials,
    sample_covariance,
    scan_grid,
)
from .config import ScenarioConfig, apply_overrides, desk_default, load_config
from .dataset import Dataset, build_dataset, generate_record, load_dataset, save_dataset
from .experiments import (
    CurvePoint,
    TrainResult,
    compression_report,
    eval_doa,
    eval_reconstruction,
    spectrum_compare,
    train,
    write_curves_csv,
)

__version__ = "0.1.0"
