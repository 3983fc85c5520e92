from .cv import (
    EvalResult,
    fold_models,
    kfold_cv,
    make_folds,
    permutation_baseline,
    permute_columns,
    run_matrix,
    select_best,
)
from .features import (
    ALPHA_FEATURE_NAMES,
    EMOTION_FEATURE_NAMES,
    FEATURE_CONFIGS,
    CorpusFeatures,
    FeatureTable,
)
from .models import (
    DEFAULT_HYPERPARAMETERS,
    MODEL_KINDS,
    ModelSpec,
    SingularDesignWarning,
    TrainedModel,
    fit,
    predict_matrix,
)
from .shapley import ShapleyResult, attribution_rows, shapley_attribution
from .synthetic import planted_feature_rows, planted_linear_data

__all__ = [
    "ALPHA_FEATURE_NAMES",
    "DEFAULT_HYPERPARAMETERS",
    "EMOTION_FEATURE_NAMES",
    "FEATURE_CONFIGS",
    "MODEL_KINDS",
    "CorpusFeatures",
    "EvalResult",
    "FeatureTable",
    "ModelSpec",
    "ShapleyResult",
    "SingularDesignWarning",
    "TrainedModel",
    "attribution_rows",
    "fit",
    "fold_models",
    "kfold_cv",
    "make_folds",
    "permutation_baseline",
    "permute_columns",
    "planted_feature_rows",
    "planted_linear_data",
    "predict_matrix",
    "run_matrix",
    "select_best",
    "shapley_attribution",
]
