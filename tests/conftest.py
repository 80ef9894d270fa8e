"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro.netlist import parse_blif

# the reference mapper, placer and router are benchmark baselines kept in
# benchmarks/; tests import them as ``benchmarks.ref_*`` however pytest
# was started
sys.path.append(os.path.join(os.path.dirname(__file__), os.pardir))


TINY_SEQ_BLIF = """
.model tiny
.inputs a b c
.outputs f g
.names a b t1
11 1
.names t1 c t2
1- 1
-1 1
.latch t2 q 0
.names q a f
10 1
.names t2 q g
01 1
10 1
.end
"""

TINY_COMB_BLIF = """
.model comb
.inputs x y z
.outputs out1 out2
.names x y w
10 1
01 1
.names w z out1
11 1
.names x z out2
00 1
.end
"""


@pytest.fixture
def tiny_seq():
    return parse_blif(TINY_SEQ_BLIF)


@pytest.fixture
def tiny_comb():
    return parse_blif(TINY_COMB_BLIF)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def stereov_net():
    from repro.workloads import generate_circuit, get_spec

    return generate_circuit(get_spec("stereov."))


@pytest.fixture(scope="session")
def stereov_offline(stereov_net):
    from repro.core.flow import run_generic_stage

    return run_generic_stage(stereov_net.copy())
