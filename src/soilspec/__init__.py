"""soilspec: multispectral soil-texture characterization at desk scale.

A numpy/scipy library plus a small CLI covering the full chain: synthetic
13-band acquisitions, dark-correct/crop/tanh preprocessing, 10x10 block-mean
features, supervised discriminant reduction, and three ways of
characterizing texture (direct classification, composition regression, and
regression mapped through the USDA texture triangle) under leakage-safe
five-fold cross-validation.
"""

__version__ = "0.1.0"
