"""Shared fixtures: modules, decompositions, and elimination data are cached
per session because the exact computations dominate test runtime."""

import pytest

from bethe_gl2.betheop import KMatrix
from bethe_gl2.gl2rep import EvalModule
from bethe_gl2.olambda import universal_operator_data
from bethe_gl2.spectral import (deformed_isotypical_decomposition,
                                eigenleaf_decomposition, leaf_operator,
                                singular_restriction)

_MODULES = {}
_BLOCKS = {}
_SING = {}
_LEAVES = {}
_OLAMBDA = {}


def module_for(points):
    key = tuple(points)
    if key not in _MODULES:
        _MODULES[key] = EvalModule(len(points), list(points))
    return _MODULES[key]


def blocks_for(points, label="nilpotent"):
    key = (tuple(points), label)
    if key not in _BLOCKS:
        kmat = KMatrix.nilpotent() if label == "nilpotent" else KMatrix.zero()
        _BLOCKS[key] = deformed_isotypical_decomposition(
            module_for(points), kmat)
    return _BLOCKS[key]


def sing_mats_for(points):
    """Plain coefficients on the singular space of each nilpotent block."""
    key = tuple(points)
    if key not in _SING:
        _SING[key] = [singular_restriction(module_for(points), b.weight)[1]
                      for b in blocks_for(points)]
    return _SING[key]


def leaves_for(points, block_index, precision=128):
    key = (tuple(points), block_index, precision)
    if key not in _LEAVES:
        block = blocks_for(points)[block_index]
        leaves = eigenleaf_decomposition(block, precision)
        _LEAVES[key] = [(leaf, leaf_operator(leaf)) for leaf in leaves]
    return _LEAVES[key]


def olambda_for(k, d, order=None):
    key = (k, d, order)
    if key not in _OLAMBDA:
        _OLAMBDA[key] = universal_operator_data(k, d, order)
    return _OLAMBDA[key]


@pytest.fixture(scope="session")
def std_points():
    return {n: list(range(n)) for n in range(1, 7)}
