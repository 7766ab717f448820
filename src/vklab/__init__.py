"""vklab: exact topological indices on graphs with bounded vertex k-partiteness.

Computes ten classical distance/degree indices exactly, the vertex
k-partiteness parameter, the extremal clique-join construction with its
published closed forms, and certifies extremality, uniqueness and
closed-form claims by exhaustive desk-scale enumeration, reporting
discrepancies as errata findings.
"""

from .errors import (DisconnectedGraphError, Graph6ParseError, GraphSizeError,
                     InvalidParamsError, SizeCapError, VklabError)
from .extremal import (ClosedFormValue, PartitionSpec, closed_form, closed_form_bipartite,
                       extremal_graph, join_family_graph, part_sizes)
from .graphs import (CanonicalCode, Graph, add_edge, canonical_form, canonical_graph,
                     from_edges, is_connected, parse_graph6, to_graph6)
from .indices import ALL_KINDS, Direction, IndexKind, direction, evaluate
from .metrics import DistanceMetrics, compute_metrics
from .partiteness import ClassParams, vertex_k_partiteness
from .search import (ExtremalReport, FuzzReport, family_optima, load_graph6_corpus,
                     monotonicity_fuzz, scan_catalogue, scan_corpus)
from .verify import ClaimVerdict, VerificationReport, known_claims, verify_claims

__version__ = "0.1.0"
