"""Graph inverse semigroups and the lattice structure of their congruences.

The package models finite directed multigraphs, the inverse semigroup
generated by their vertices, edges and formal edge inverses, and the
combinatorial (H, W, f) triples that encode congruences.  A generic
finite-lattice engine decides distributivity, modularity and the two
semimodularities, and a brute-force congruence enumerator provides an
independent cross-check of the triple lattice.
"""

from .graph import (
    ConnectivityReport,
    Cycle,
    DirectedGraph,
    Edge,
    GraphError,
    GraphParseError,
    LimitError,
    UnknownVertexError,
    connectivity_report,
    enumerate_cycles,
    forked_vertices,
    hereditary_subsets,
    index_relative,
    is_acyclic,
    parse_graph,
    reaches,
    weak_component_subgraphs,
)
from .lattice import (
    FiniteLattice,
    NotALatticeError,
    SublatticeWitness,
    find_diamond,
    find_pentagon,
    from_poset,
    hasse_dot,
    is_distributive,
    is_lower_semimodular,
    is_modular,
    is_upper_semimodular,
    order_isomorphic,
)
from .oracle import (
    Congruence,
    SemigroupTooLargeError,
    congruence_lattice,
    enumerate_congruences,
)
from .semigroup import (
    ZERO,
    CyclicGraphError,
    Element,
    FiniteSemigroup,
    NormalForm,
    Path,
    Zero,
    enumerate_elements,
    enumerate_paths,
    finite_semigroup,
    inverse_of,
    multiply,
    render_element,
)
from .triples import (
    INF,
    CongruenceTriple,
    CycleFunction,
    LatticeTooLargeError,
    SetTrace,
    UnboundedLatticeError,
    enumerate_triples,
    join,
    leq,
    meet,
    render_triple,
    set_trace,
    triple_lattice,
)

__version__ = "0.1.0"
