"""Which stored tables and which observations can matter for a query.

Give every node v a dummy parent v' for the parameters of its table.
The table is requisite when v' is d-connected to the query sources, and
v is a relevant observation when v itself is.  A trail reaches v' only
through v, and goes on to v' exactly when the sweep of the base dag
walks v's parent list: v is a source, or the trail arrives into v while
v is or has a descendant in the conditioning set, or it arrives from a
child of v while v is unconditioned.  Reaching v' opens no new state of
the base dag.  This is the "top mark" of Shachter's Bayes-Ball (UAI
1998), so each answer takes one linear sweep of the base dag.
`augment_dummies` still builds the augmented dag, as the tests' referee.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dag import Dag, NodeSet
from .engine import SeparationQuery, fast_sweep, flagged_nodes

_REACHED_UNCONDITIONED = bytes(b & (8 | 16) != 0 and not b & 4
                               for b in range(256))


@dataclass(frozen=True)
class AugmentedDag:
    """A dag plus one parentless dummy parent per base node.

    Dummy ids are assigned after all base ids: the dummy of base node v
    is `base.node_count + v`.  `graph` holds the combined dag.
    """

    base: Dag
    graph: Dag
    dummy_of: dict[int, int]

    def is_dummy(self, node: int) -> bool:
        return node >= self.base.node_count


def augment_dummies(dag: Dag) -> AugmentedDag:
    """Attach a fresh dummy parent to every node of `dag`."""
    n = dag.node_count
    edges = list(dag.edges) + [(n + v, v) for v in range(n)]
    names = None
    if dag.names is not None:
        names = list(dag.names) + [nm + "'" for nm in dag.names]
    graph = Dag(2 * n, edges, names=names)
    return AugmentedDag(base=dag, graph=graph,
                        dummy_of={v: n + v for v in range(n)})


def requisite_parameters(dag: Dag, query: SeparationQuery) -> NodeSet:
    """Base nodes whose conditional tables the query answer can depend on.

    The nodes whose parent list one sweep of `dag` walks: the same set as
    the dummies of `augment_dummies(dag)` left d-connected to the sources.
    Each walked list belongs to a node of An(sources | conditioning), so
    the sweep is confined to that set (an empty stop set).
    """
    marks = fast_sweep(dag, query, stop_at=()).parents_expanded
    return flagged_nodes(dag, marks)


def relevant_variables(dag: Dag, query: SeparationQuery) -> NodeSet:
    """Base nodes whose observed values could still change the query answer.

    The complement of the separated set, minus the sources and the
    conditioning set themselves: the nodes the sweep reached and did not
    find conditioned.
    """
    flags = fast_sweep(dag, query).marks.translate(_REACHED_UNCONDITIONED)
    for v in query.sources:
        flags[v] = 0
    return flagged_nodes(dag, flags)
