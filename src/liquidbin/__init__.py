"""Liquid-in-bins front propagation toolkit.

Deterministic pouring dynamics and its car-model twin, exact stationary
regimes with certified solvers, Catalan-indexed speed regions with wall
crossings, cursor-jump cyclic orders, and a stochastic bin-model Monte
Carlo harness for the scaling-limit comparison.
"""
from .combinatorics import (
    Adjacency,
    DCGraph,
    DyckPath,
    addable_edges,
    b_map,
    b_to_dc,
    catalan,
    connected_component_of_one,
    dc_graphs,
    dc_to_dyck,
    dyck_to_dc,
    enumerate_dc,
    graph_index,
    is_antichain,
    maximal_edges,
    regions_adjacent,
    stanley_covers,
)
from .dynamics import (
    BinConfig,
    CarConfig,
    Event,
    EventLog,
    cursors,
    evolve_bins,
    next_event_time,
    sigma,
    step_cars,
    windowed_volumes,
)
from .params import Params, ParamsError
from .regions import (
    BoundaryGap,
    RegionReport,
    SweepGrid,
    SweepRecord,
    big_gamma,
    boundary_gap,
    check_continuity,
    classify,
    find_region,
    gamma,
    in_region,
    solve_system,
    speed,
    sweep,
)
from .stationary import (
    ConvergenceError,
    SolveReport,
    StationaryProfile,
    bounding_profiles,
    canonical_configuration,
    convergence_trace,
    fixed_point_solve,
    stationary_profile,
    verify_stationarity,
)
from .cyclic import (
    CyclicOrder,
    DisconnectedRegionError,
    ProbeReport,
    WallTieError,
    circular_extensions,
    conjecture_probe,
    f_map,
    jump_order,
    zprime_chains,
)
from .ibm import (
    HydroRow,
    HydroSummary,
    MoveDistribution,
    SimResult,
    deterministic_speed,
    hydrolimit_check,
    mu_s,
    simulate_ibm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
