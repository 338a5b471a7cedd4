"""From-scratch learners and evaluation metrics.

KNN (`knn`, over the exact search in `neighbors`), CART decision trees and
bootstrap random forests (`trees`), SMOTE oversampling (`smote`), and the
classification/regression reports used by the cross-validation harness
(`metrics`). Import each name from its defining module.
"""
