"""soilspec: multispectral soil-texture characterization at desk scale.

A numpy/scipy library plus a small CLI covering the full chain: synthetic
13-band acquisitions, dark-correct/crop/tanh preprocessing, 10x10 block-mean
features, supervised discriminant reduction, and three ways of
characterizing texture (direct classification, composition regression, and
regression mapped through the USDA texture triangle) under leakage-safe
five-fold cross-validation.
"""

from .core import (
    BAND_WAVELENGTHS_NM,
    MAX_INTENSITY,
    N_BANDS,
    N_CLASSES,
    ROI_SIDE,
    Composition,
    DarkFrame,
    ObservationTable,
    Roi,
    SpectralCube,
    TextureClass,
    validate_composition,
)
from .cubeio import (
    read_cube,
    read_dark_frame,
    read_observation_csv,
    write_cube,
    write_dark_frame,
    write_observation_csv,
)
from .features import MinMaxScaler, block_means, emit_signatures, flatten_observations
from .lda import LdaModel, ScatterPair, fit_lda, load_model, project, save_model, scatter
from .pipeline import (
    CvPlan,
    ModelSpec,
    StrategyResult,
    make_folds,
    run_external_validation,
    run_strategies,
)
from .preprocess import (
    BandStats,
    NormalizationParams,
    PreprocessedRoi,
    crop_roi,
    dark_correct,
    normalize_contrast,
    preprocess_cube,
    roi_stats,
)
from .synthgen import (
    DEFAULT_ENDMEMBERS,
    EndmemberLibrary,
    MixtureSpec,
    NoiseModel,
    default_benchmark,
    generate_dataset,
    noise_preset,
    synthesize_cube,
)
from .triangle import (
    classify_composition,
    classify_percentages,
    dump_rules,
    mixture_composition,
    normalize_prediction,
    normalize_predictions,
)

__version__ = "0.1.0"
