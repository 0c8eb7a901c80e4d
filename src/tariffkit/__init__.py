"""Scenario-based two-part retail electricity tariffs under uncertainty.

A regulated retailer buys energy at stochastic wholesale prices and must
recover a fixed cost F from M customers through a two-part tariff
A + pi^T q.  This package computes the consumer-surplus-maximizing tariff
(and constrained flat / dynamic variants), integrates behind-the-meter or
retailer-side solar and storage, and reproduces the welfare, Pareto-front,
capacity-sweep, and cross-subsidy analyses on weighted scenario sets where
every expectation is an exact finite sum.
"""

__version__ = "0.1.0"
