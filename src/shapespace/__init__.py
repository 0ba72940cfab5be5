"""Graph transformation state spaces, explored concretely or through
neighbourhood shapes with subsumption pruning."""

from .multiplicity import (BOUNDED, OMEGA, ONE, ONE_PLUS, TWO_PLUS, ZERO,
                           ZERO_ONE, ZERO_PLUS, Multiplicity, add,
                           approx_card, bounded, positive_part, subsumes,
                           subtract_one)
from .graphs import (Graph, GraphError, Label, binary, canonical, certificate,
                     find_isomorphism, graph, isomorphisms, unary)
from .shapes import (Shape, ShapeError, abstract, compare_shapes, covered,
                     neighbour_index, normalise)
from .rules import (Rule, RuleError, apply, concrete_apply, concrete_matches,
                    materialise, prematch)
from .explore import (CSV_HEADER, ExplorationStats, ExploreConfig,
                      ExploreError, TransitionSystem, explore, stats_report)
from .grammar import (Grammar, GrammarError, bundled_grammar_names,
                      load_bundled, parse_grammar, render_grammar)
from .dot import graph_dot, shape_dot, transition_system_dot

__version__ = "0.1.0"
