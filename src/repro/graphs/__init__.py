"""Graph substrate: families, identities, parameters, derived graphs."""

from . import families, identifiers
from .params import (
    arboricity_bounds,
    degeneracy,
    density_arboricity,
    graph_parameters,
    max_density,
    nash_williams_exact,
    pseudoarboricity,
)
from .transforms import (
    clique_product_spec,
    coloring_from_mis,
    line_graph_max_degree,
    line_graph_spec,
)

__all__ = [
    "arboricity_bounds",
    "clique_product_spec",
    "coloring_from_mis",
    "degeneracy",
    "density_arboricity",
    "families",
    "graph_parameters",
    "identifiers",
    "line_graph_max_degree",
    "line_graph_spec",
    "max_density",
    "nash_williams_exact",
    "pseudoarboricity",
]
