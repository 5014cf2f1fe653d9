"""cirsim: class-incremental-with-repetition stream simulation toolkit."""

from .analysis import (
    BlockDistanceReport,
    InterpolationCurve,
    block_distance,
    cka_layer_matrix,
    interpolate_checkpoints,
    linear_cka,
)
from .buffers import (
    BufferComposition,
    ReplayBuffer,
    buffer_composition,
    class_balanced_quotas,
    frequency_aware_quotas,
)
from .distributions import PmfSpec, materialize_pmf, sample_index
from .learner import (
    Checkpoint,
    ModelParams,
    TrainConfig,
    TrainingDivergedError,
    accuracy,
    activations,
    init_params,
    load_checkpoint,
    loss_and_grads,
    predict,
    predict_labels,
    save_checkpoint,
    snapshot,
    train_group,
    train_on_experience,
)
from .metrics import EvalContext, RunRecord, evaluate
from .sampling_generator import (
    BimodalSpec,
    OccurrenceMatrix,
    SamplingConfig,
    bimodal_class_split,
    build_occurrence_matrix,
    generate_sampling_stream,
    make_bimodal_config,
    realize_stream,
)
from .seeding import derive_rng, derive_seed
from .slot_generator import InfeasibleSlotConfig, SlotConfig, generate_slot_stream
from .stream import (
    DanglingInstanceError,
    Experience,
    LabeledDataset,
    PropertyReport,
    Provenance,
    Stream,
    load_dataset_csv,
    make_experience,
    make_synthetic_dataset,
    save_dataset_csv,
    verify_scenario_properties,
)

__version__ = "0.1.0"
