"""Mixed-type Bayesian network learning, analogue search and restoration."""

__version__ = "0.1.0"

from .dataset import (  # noqa: F401
    CATEGORICAL,
    CONTINUOUS,
    ColumnSchema,
    Dataset,
    load_csv,
    normalize_ranges,
    quantile_discretize,
    select_rows,
)
from .errors import MixbnError  # noqa: F401
from .graph import Dag, EdgeConstraints  # noqa: F401
from .inference import anomaly_score, forward_sample, restore  # noqa: F401
from .parameters import (  # noqa: F401
    BayesianNetworkModel,
    ConditionalLinearGaussian,
    Cpt,
    LinearGaussian,
    mixlearn,
)
from .similarity import (  # noqa: F401
    AnalogueQuery,
    DistanceSpec,
    cosine_distance,
    gower_distance,
    nearest_analogues,
    penalty_weights,
)
from .structure import hill_climb, k2_family_score, k2_total_score, orientation_guard  # noqa: F401
