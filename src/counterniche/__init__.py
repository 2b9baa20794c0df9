"""Counter-niching evolutionary optimization.

A real-coded EA that fights premature convergence by pseudo-niching the
population on a coarse grid and replacing redundant members of converged
dense regions with informed samples from unexplored cells, plus four
baseline EAs, seven benchmark functions, diversity measures, and an
experiment harness with rank summaries and paired t-tests.
"""

from .benchmarks import FUNCTION_NAMES, BenchmarkFn, make, rotation_matrix
from .core import Individual, Population, RngStream, SearchSpace
from .diversity import degree_of_diversity, distance_to_average, maturity
from .engines import (
    ALGORITHMS,
    EngineConfig,
    GenRecord,
    RunTrace,
    default_config,
    default_generations,
    regular_ops,
    run,
)
from .harness import ExperimentMatrix, detect_stagnation, diversity_profile, run_matrix
from .informed import (
    detect_victims,
    informed_mutation,
    sample_virgin,
    select_replacement,
)
from .niching import build_grid, high_density_regions
from .operators import arithmetic_crossover, binary_tournament, gaussian_mutate, pow_sample
from .stats import RunSummary, TTestResult, error_value, paired_ttest, summarize

__version__ = "0.1.0"
