"""Leaf-shape clustering from centroid-contour-distance traces.

A CCD trace becomes an exact piecewise-constant circular density, which is
scale-free by construction and rotation-free after subtracting its mean
direction.  Densities are compared with four dissimilarities (L1, sup,
squared Hellinger, Euclidean over trigonometric moments) and grouped by
hierarchical clustering: complete linkage by default, single or average
linkage on request.  Each module declares its own public names in its
``__all__``; this package re-exports them in pipeline order.
"""

from . import dataio, density, distances, hcluster, svgplot, synth
from .density import *
from .distances import *
from .hcluster import *
from .dataio import *
from .svgplot import *
from .synth import *

__version__ = "0.1.0"

__all__ = [*density.__all__, *distances.__all__, *hcluster.__all__, *dataio.__all__,
           *svgplot.__all__, *synth.__all__]
