"""vklab: exact topological indices on graphs with bounded vertex k-partiteness.

Computes ten classical distance/degree indices exactly, the vertex
k-partiteness parameter, the extremal clique-join construction with its
published closed forms, and certifies extremality, uniqueness and
closed-form claims by exhaustive desk-scale enumeration, reporting
discrepancies as errata findings.
"""

from .errors import (DisconnectedGraphError, Graph6ParseError, GraphSizeError,
                     InvalidParamsError, SizeCapError, VklabError)
from .extremal import (ClosedFormValue, DifferencePrediction, PartitionSpec,
                       closed_form, closed_form_bipartite, closed_form_corrected,
                       extremal_graph, join_family_graph, part_sizes,
                       predicted_difference, shift_vertex)
from .graphs import (CanonicalCode, Graph, add_edge, canonical_form, canonical_graph,
                     complement, complete_graph, complete_multipartite, cycle_graph,
                     empty_graph, from_edges, induced_subgraph, is_connected,
                     is_isomorphic, join, parse_graph6, path_graph, permute,
                     to_graph6)
from .indices import (ALL_KINDS, Direction, IndexKind, adj_ecc_dist_sum, conn_ecc,
                      direction, ecc_dist_sum, evaluate, harary, mult_zagreb_pi1,
                      mult_zagreb_pi2, rdd, wiener, zagreb_m1, zagreb_m2)
from .metrics import DistanceMetrics, compute_metrics
from .partiteness import ClassParams, in_class, is_k_partite, vertex_k_partiteness
from .search import (ExtremalReport, FuzzReport, family_scan, load_graph6_corpus,
                     monotonicity_fuzz, scan_class, scan_corpus, scan_many)
from .verify import ClaimVerdict, VerificationReport, known_claims, verify_theorem

__version__ = "0.1.0"
