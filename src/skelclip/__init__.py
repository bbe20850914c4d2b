"""skelclip: skeleton sequences -> clip images -> frozen conv features ->
shared-weight multi-task action classification, plus an experiment harness
with a desk-scale synthetic benchmark."""

from .clips import (
    ClipOptions,
    ClipSet,
    augment_crops,
    cartesian_to_cylindrical,
    cylindrical_to_cartesian,
    generate_clips,
    relative_positions,
    resize_bilinear,
    scale_to_gray,
    write_pgm,
)
from .errors import (
    ParseError,
    SkelclipError,
    StageError,
    TensorFormatError,
    TrainingDivergedError,
)
from .experiments import (
    EvalReport,
    FeatureScaler,
    ModeResult,
    PipelineConfig,
    SplitProtocol,
    directory_loader,
    make_splits,
    render_results,
    render_table,
    run_experiment,
    sequence_table_loader,
)
from .features import (
    ExtractorSpec,
    FeatureMaps,
    PooledFeature,
    build_time_step_features,
    load_feature_map_stack,
    stack_time_step_features,
    temporal_mean_pool,
)
from .layouts import BUILTIN_LAYOUTS, JointLayout, load_layout
from .multitask import (
    ModeModel,
    MtlnParams,
    TaskScores,
    TrainConfig,
    backward,
    forward,
    load_checkpoint,
    mode_inputs,
    predict_multi_sample,
    predict_proba,
    save_checkpoint,
    task_loss,
    total_loss,
    train,
)
from .skeleton_io import (
    DatasetManifest,
    ManifestEntry,
    SkeletonSequence,
    load_sequences,
    parse_canonical,
    parse_manifest,
    parse_ntu_skeleton,
    write_canonical,
    write_manifest,
)
from .synthetic import SynthConfig, generate_synthetic
from .tensorio import read_tensor, write_tensor

__version__ = "0.1.0"
