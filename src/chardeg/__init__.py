"""Exact character-degree spectra of symmetric and alternating groups.

Computes every irreducible character degree of S_n and A_n through hook
lengths in exact integer arithmetic, builds the move graph on partitions,
and mechanically verifies the dominance inequalities, counting bounds and
squared-degree-excess lower bounds that structure those spectra.
"""

__version__ = "0.1.0"

from .hooks import (
    count_standard_tableaux,
    degree_sn,
    hook_length,
    hook_lengths,
    hook_product,
    up_dn_ratio,
)
from .partitions import (
    Partition,
    PartitionFormatError,
    addable_nodes,
    add_node,
    conjugate,
    count_partitions,
    enumerate_partitions,
    format_partition,
    is_partition,
    is_self_conjugate,
    iter_moves,
    lambda_dn,
    lambda_to_1,
    lambda_up,
    move_node,
    parse_partition,
    removable_nodes,
    remove_node,
)
from .graph import (
    PartitionGraph,
    build_graph,
    low_degree_count_check,
    low_degree_count_check_all,
    near_max_count_check,
    near_max_count_check_all,
    neighbors,
    ratio_lemma_check,
)
from .report import Inequality, VerificationReport
from .spectrum import (
    DegreeSpectrum,
    cached_spectrum,
    clear_spectrum_cache,
    epsilon,
    epsilon_lower_bounds,
    induced_bound_check,
    move_scan_verify,
    sandwich_check,
    spectrum_an,
    spectrum_sn,
    spectrum_xy,
    verify_theorem1,
    verify_theorem2,
)
