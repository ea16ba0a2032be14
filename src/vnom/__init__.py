"""Vertex nomination on edge-attributed graphs.

Given a communication graph whose edges carry topic attributes and a few
identified vertices of interest, rank the remaining vertices by how likely
they are to also be of interest, fusing graph context (who talks to the
identified set) with content (who talks about the topic of interest).
"""

from .errors import (DegenerateConditioningError, EmptyProfileError, GraphFormatError,
                     InputError, NoRedCandidatesError, RecordError, UndefinedDensityError,
                     VnomError)
from .graph import GREEN, OCCLUDED, RED, AttributedGraph, Partition, TopicGraph, candidate_set
from .kidney_egg import (PMF, KidneyEggParams, Simplex3, binomial_pmf,
                         content_given_context_pmf, content_pmf_from_conditionals,
                         content_score_pmf, context_score_pmf, empirical_pmf,
                         empirical_score_pmfs, sample_kidney_egg, tv_distance)
from .nomination import GAMMA_GRID_DEFAULT, candidate_statistics, rank_candidates
from .metrics import (EvalReport, MetricTable, aggregate_reports, chance_baseline, mask_metrics,
                      precision_at)
from .experiments import CellResult, SweepResult, SweepSpec, gamma_surface, run_sweep
from .importance import (BinReport, EstimatedRates, ScreeningResult, ScreeningThresholds,
                         TopicMap, TrialsResult, delta_p, delta_rho, estimate_rates,
                         instantiate_edges, run_importance_trials, screen_partitions,
                         topic_profile)
from .io import (generate_surrogate, read_attributed_graph, read_topic_graph,
                 write_attributed_graph, write_topic_graph)

__version__ = "0.1.0"
