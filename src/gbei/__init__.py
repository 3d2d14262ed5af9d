"""Invariants of generalized binomial edge ideals of complete multipartite graphs.

Two halves that never share a formula: closed-form predictors for every
invariant (dimension, depth, regularity, Hilbert series, multiplicity,
cohomological dimension bounds, height, a path witness, cut sets, and the
primary decomposition), and an exact Groebner/Hochster oracle that
recomputes the same invariants from scratch on desk-scale instances so the
two can be compared row by row.
"""

from .errors import CapExceededError
from .formulas import (Prediction, bipartite_multiplicity, generalized_bei,
                       pair_ideal, predict, predicted_cut_sets,
                       predicted_dimension, predicted_depth,
                       predicted_hilbert, predicted_multiplicity,
                       predicted_regularity, prime_component)
from .graphs import (PartiteSpec, SimpleGraph, complete_graph,
                     complete_multipartite, connected_components, cut_sets,
                     graph_from_json, konig_path, load_graph,
                     path_target_length, validate_path)
from .groebner import (Ideal, buchberger, ideals_equal, initial_ideal,
                       intersect, normal_form, spolynomial)
from .hilbert import (HilbertSeries, MonomialIdeal, hilbert_series,
                      krull_dimension, multiplicity)
from .hochster import (BettiTable, SimplicialComplex, betti_table,
                       depth_and_regularity, reduced_homology_ranks)
from .rings import DEFAULT_PRIME, Poly, Ring, TermOrder
from .verify import (InvariantReport, enumerate_specs, konig_check, summarize,
                     sweep, verify)

__version__ = "0.1.0"

__all__ = [
    "BettiTable", "CapExceededError", "DEFAULT_PRIME",
    "HilbertSeries", "Ideal", "InvariantReport", "MonomialIdeal",
    "PartiteSpec", "Poly", "Prediction", "Ring",
    "SimpleGraph", "SimplicialComplex", "TermOrder",
    "betti_table", "bipartite_multiplicity", "buchberger",
    "complete_graph", "complete_multipartite", "connected_components",
    "cut_sets", "depth_and_regularity",
    "enumerate_specs", "generalized_bei", "graph_from_json",
    "hilbert_series", "ideals_equal", "initial_ideal", "intersect",
    "konig_check", "konig_path", "krull_dimension", "load_graph",
    "multiplicity", "normal_form", "pair_ideal", "path_target_length",
    "predict", "predicted_cut_sets", "predicted_depth",
    "predicted_dimension", "predicted_hilbert", "predicted_multiplicity",
    "predicted_regularity", "prime_component", "reduced_homology_ranks",
    "spolynomial", "summarize", "sweep", "validate_path", "verify",
]
