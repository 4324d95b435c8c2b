"""echoaudit: retweet-network ideology scaling and hidden-audience analytics.

The pipeline stages, in the order a batch run applies them:

ingest      parse newline-delimited tweet records, apply date/language filters
graph       build the weighted directed retweet network, rank and select influencers
ideology    correspondence-analysis latent ideology over the user-influencer matrix
mediabias   domain leaning/reliability table, per-user leaning from shared URLs
engagement  active-engagement ratios (actions per impression) and correlations
report      plot-ready histograms, density grids and echo-chamber diagnostics
synth       deterministic synthetic corpora with ground truth
"""

from .errors import (
    ConvergenceError,
    DegenerateMatrixError,
    EchoauditError,
    EmptySelectionError,
    InputError,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DegenerateMatrixError",
    "EchoauditError",
    "EmptySelectionError",
    "InputError",
    "__version__",
]
