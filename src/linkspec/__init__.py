"""Spectral conditions for (fractional) matchings in 3-uniform hypergraphs.

The package is a certifying checker: it decides the link spectral condition
(`check_condition`), proves or refutes the matching conclusion exactly
(`verify_theorem`), and runs the cover shift -> closure -> lift pipeline
(`shift`, `shift_closure_holds`, `lift_link_matching`).  The names exported
here are its public API; `tests/test_packaging.py` pins the list, so a new
public helper is a deliberate addition.

Library layout:

- :mod:`linkspec.graphs` -- immutable 2-graph / 3-graph types, links,
  induced subhypergraphs and complements
- :mod:`linkspec.spectral` -- certified spectral radii (eigensolver plus exact
  Collatz-Wielandt brackets), link spectra of a 3-graph, closed-form bounds
- :mod:`linkspec.matching` -- exact matching numbers (blossom, branch-and-bound)
- :mod:`linkspec.lp` -- exact rational fractional matching/cover with certificates
- :mod:`linkspec.constructions` -- extremal families and random instances
- :mod:`linkspec.harness` -- condition checks, shifting, absorbing sets, search
- :mod:`linkspec.fileio` / :mod:`linkspec.cli` -- file formats and the CLI
"""

__version__ = "0.1.0"

from .graphs import (  # noqa: F401
    Graph2,
    Hypergraph3,
    complement,
    induced,
    link_graph,
)
from .spectral import (  # noqa: F401
    LinkSpectra,
    SpectralReport,
    hong_bound,
    link_spectra,
    spectral_radius,
    stanley_bound,
    terpai_gap,
    threshold_fyz,
    threshold_match,
)
from .matching import (  # noqa: F401
    Matching3,
    Matching3Result,
    max_matching_3graph,
    max_matching_graph,
)
from .lp import (  # noqa: F401
    DualityCertificate,
    FractionalAssignment,
    fractional_matching,
)
from .constructions import (  # noqa: F401
    LabeledInstance,
    complete_3graph,
    h1,
    h2,
    random_3graph,
)
from .harness import (  # noqa: F401
    CheckReport,
    ShiftedPair,
    absorbing_sets,
    check_condition,
    lemma25_check,
    lift_link_matching,
    search_exhaustive,
    search_random,
    shift,
    shift_closure_holds,
    verify_theorem,
)
