"""Geometric primitives: vectors, boxes, workspaces, occupancy grids, trajectories."""

from .vec import (
    Vec3,
    clamp_norm_rows,
    closest_point_on_segment,
    distance_point_to_polyline,
    distance_point_to_segment,
    min_pairwise_separation,
    pairwise_index_pairs,
    pairwise_separations,
    row_dots,
    row_norms,
    unit_rows,
)
from .shapes import (
    AABB,
    Sphere,
    first_box_containing,
    min_distance_to_boxes,
    points_as_array,
)
from .clearance import ClearanceField, ClearanceFieldStats, state_memo
from .workspace import (
    Workspace,
    corridor_workspace,
    empty_workspace,
    grid_city_workspace,
    min_clearance_along,
)
from .occupancy import OccupancyGrid
from .trajectory import (
    ReferenceTrajectory,
    Trajectory,
    TrajectorySample,
    Tube,
    figure_eight,
    mission_waypoint_square,
)

__all__ = [
    "Vec3",
    "clamp_norm_rows",
    "closest_point_on_segment",
    "distance_point_to_polyline",
    "distance_point_to_segment",
    "min_pairwise_separation",
    "pairwise_index_pairs",
    "pairwise_separations",
    "row_dots",
    "row_norms",
    "unit_rows",
    "AABB",
    "Sphere",
    "first_box_containing",
    "min_distance_to_boxes",
    "points_as_array",
    "ClearanceField",
    "ClearanceFieldStats",
    "state_memo",
    "Workspace",
    "corridor_workspace",
    "empty_workspace",
    "grid_city_workspace",
    "min_clearance_along",
    "OccupancyGrid",
    "ReferenceTrajectory",
    "Trajectory",
    "TrajectorySample",
    "Tube",
    "figure_eight",
    "mission_waypoint_square",
]
