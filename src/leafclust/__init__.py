"""Leaf-shape clustering from centroid-contour-distance traces.

A CCD trace becomes an exact piecewise-constant circular density, which is
scale-free by construction and rotation-free after subtracting its mean
direction.  Densities are compared with four dissimilarities (L1, sup,
squared Hellinger, Euclidean over trigonometric moments) and grouped by
complete-linkage hierarchical clustering.
"""

from .dataio import (
    DataFormatError,
    Dataset,
    read_dataset,
    read_dendrogram,
    read_densities,
    read_matrix,
    write_dataset,
    write_dendrogram,
    write_densities,
    write_matrix,
)
from .density import (
    TWO_PI,
    CcdSequence,
    InvalidCcdError,
    LeafOutline,
    MeanDirection,
    StepDensity,
    TrigMoments,
    density_from_ccd,
    leaf_outline,
    mean_direction,
    normalize_leaf,
    rotate_density,
    trig_moments,
)
from .distances import (
    DistanceKind,
    DistanceMatrix,
    DistanceTag,
    Pairs,
    dist_hellinger_sq,
    dist_l1,
    dist_moment_euclidean,
    dist_sup,
    distance_matrix,
    merge_breakpoints,
    pair_distance,
)
from .hcluster import Dendrogram, Linkage, Merge, agglomerate, cut, leaf_order, to_newick
from .svgplot import plot_dendrogram, plot_densities, plot_leaves
from .synth import ShapeTemplate, sample_trace, synth_dataset

__version__ = "0.1.0"

__all__ = [
    "TWO_PI",
    "CcdSequence",
    "StepDensity",
    "TrigMoments",
    "MeanDirection",
    "LeafOutline",
    "InvalidCcdError",
    "density_from_ccd",
    "trig_moments",
    "mean_direction",
    "rotate_density",
    "normalize_leaf",
    "leaf_outline",
    "DistanceTag",
    "DistanceKind",
    "DistanceMatrix",
    "dist_l1",
    "dist_sup",
    "dist_hellinger_sq",
    "dist_moment_euclidean",
    "pair_distance",
    "merge_breakpoints",
    "distance_matrix",
    "Pairs",
    "Linkage",
    "Merge",
    "Dendrogram",
    "agglomerate",
    "cut",
    "leaf_order",
    "to_newick",
    "Dataset",
    "DataFormatError",
    "read_dataset",
    "write_dataset",
    "read_matrix",
    "write_matrix",
    "read_dendrogram",
    "write_dendrogram",
    "read_densities",
    "write_densities",
    "plot_densities",
    "plot_leaves",
    "plot_dendrogram",
    "ShapeTemplate",
    "sample_trace",
    "synth_dataset",
]
