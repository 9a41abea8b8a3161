"""Feature/ridge regression under data augmentation, with random-matrix
deterministic equivalents predicting out-of-sample error."""

from .datasets import (
    InpaintingTask,
    SyntheticSpec,
    haar_orthogonal,
    inpainting_task,
    mnist_load,
    sample_synthetic,
)
from .detequiv import (
    DilationState,
    EquivalentReport,
    compute_second_order,
    equivalents,
    solve_fixed_point,
    wellspecified_reduction,
)
from .features import (
    FeatureMap,
    apply_features,
    identity_map,
    random_mlp_map,
)
from .harness import (
    ExperimentConfig,
    ResultRow,
    mnist_pipeline,
    run_sweep,
    validate,
    write_csv,
)
from .moments import (
    MomentSet,
    batch_sample_moments,
    closed_population_moment_set,
    estimate_moment_set,
)
from .ridge import (
    assemble_design,
    chi_stat,
    empirical_generalization,
    fit,
    normal_equations,
    overlap_stat,
    population_generalization,
    resolvent_shifted,
)
from .schemes import (
    AugmentationScheme,
    additive_noise,
    heteroskedastic,
    masking,
    mixture,
    salt_and_pepper,
)

__version__ = "0.1.0"
