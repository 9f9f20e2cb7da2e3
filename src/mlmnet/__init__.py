"""Approximation of PDE solutions by one-hidden-layer networks trained
with one-level and two-level Levenberg-Marquardt solvers.

The coarse level of the two-level solver is built algebraically: hidden
nodes are coarsened as whole (output-weight, input-weights, bias) triples
through a Ruge-Stuben split of a node-coupling matrix assembled from the
Gauss-Newton blocks at the starting point.
"""
