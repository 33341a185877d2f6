"""Toolkit for estimating and measuring the dereference cost of
link-traversal execution of SPARQL basic graph patterns.

The pipeline: parse a query (:mod:`ldcost.query`), plan it once -- check
it is answerable by traversal and group its triples into dereference
passes (:mod:`ldcost.analysis`) -- estimate its cost from predicate
statistics (:mod:`ldcost.stats`, :mod:`ldcost.estimator`), measure the
real cost by simulated execution (:mod:`ldcost.traversal`), score
estimators against ground truth (:mod:`ldcost.evaluation`), and route a
query to traversal or an endpoint (:mod:`ldcost.routing`).  Every HTTP
request goes through :mod:`ldcost.web`.
:mod:`ldcost.cli` exposes every stage as a command.
"""

from .analysis import (
    AnswerabilityReport,
    NotAnswerable,
    ResolutionGroup,
    TraversalPlan,
    build_resolution_groups,
    check_answerability,
    detect_star_joins,
    plan_query,
)
from .errors import FormatError, InputError, LdcostError, RemoteError
from .estimator import (
    CostEstimate,
    EstimatorConfig,
    Method,
    estimate,
    estimate_all,
)
from .evaluation import (
    EvalReport,
    GroundTruthEntry,
    avg_abs_diff,
    evaluate,
    load_ground_truth,
    pct_avg_diff,
    split,
    train_factors,
)
from .query import (
    FilterClause,
    QueryPattern,
    Term,
    TriplePattern,
    distinct_anchor_iris,
    parse_query,
)
from .routing import RouteDecision, ask_probe, decide_strategy
from .stats import (
    GlobalStats,
    PredicateStats,
    StatsCatalog,
    collector_query,
    compute_from_dump,
    fetch_from_endpoint,
    load_catalog,
    save_catalog,
)
from .traversal import (
    BindingTable,
    DerefStore,
    TraversalTrace,
    dereference,
    execute,
    load_store,
    real_cost,
)

__version__ = "0.1.0"
