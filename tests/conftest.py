"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.core.segment_tree import Rect
from repro.core.stages import ENCODE_STAGES, BuildContext, run_stages
from repro.matrix.points_to import PointsToMatrix

# ----------------------------------------------------------------------
# Hypothesis profiles.  "ci" derandomises so a CI run is reproducible and
# a failure message names a replayable seed; "dev" keeps random exploration
# but drops the per-example deadline (oracle tests rebuild full encodings,
# whose first-call cost is all warm-up noise).  Select with
# HYPOTHESIS_PROFILE=ci; the default is dev.
# ----------------------------------------------------------------------

settings.register_profile("ci", derandomize=True, deadline=None)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

# ----------------------------------------------------------------------
# The paper's worked example (Table 3): pointers p1..p7 -> ids 0..6,
# objects o1..o5 -> ids 0..4.
# ----------------------------------------------------------------------

PAPER_ROWS = {
    0: [0, 4],  # p1 -> o1, o5
    1: [0],  # p2 -> o1
    2: [0, 1, 2, 4],  # p3
    3: [0, 1, 2, 3],  # p4
    4: [3],  # p5
    5: [1],  # p6
    6: [2, 4],  # p7
}


@pytest.fixture
def paper_matrix() -> PointsToMatrix:
    return PointsToMatrix.from_rows([PAPER_ROWS[i] for i in range(7)], 5)


def stage_rectangles(matrix: PointsToMatrix, order: str = "hub", seed=None,
                     explicit_order=None):
    """Run the encoder up to its dedup stage; return ``(pestrie, kept, pruned)``.

    Runs ``ENCODE_STAGES[:6]`` (normalize → … → dedup) and splits the
    candidate rectangles, in emission order, into those Theorem 2 pruning
    kept and those it dropped, each as ``(Rect, case1)``.  Together they
    are the unpruned candidate set.
    """
    ctx = BuildContext(matrix, order=order, seed=seed, explicit_order=explicit_order)
    run_stages(ctx, ENCODE_STAGES[:6])
    x1, x2, y1, y2, _x_side, _y_side, case1 = ctx.artifacts["candidates"]
    kept, pruned = [], []
    for i, keep in enumerate(ctx.artifacts["kept"]):
        rect = Rect(x1=x1[i], x2=x2[i], y1=y1[i], y2=y2[i])
        (kept if keep else pruned).append((rect, bool(case1[i])))
    return ctx.artifacts["pestrie"], kept, pruned


def make_random_matrix(n_pointers: int, n_objects: int, density: float,
                       seed: int) -> PointsToMatrix:
    rng = random.Random(seed)
    matrix = PointsToMatrix(n_pointers, n_objects)
    for pointer in range(n_pointers):
        for obj in range(n_objects):
            if rng.random() < density:
                matrix.add(pointer, obj)
    return matrix


# Hypothesis strategy: a small points-to matrix as (n_pointers, n_objects,
# facts).  Kept small so exhaustive oracles stay fast.

@st.composite
def matrices(draw, max_pointers: int = 14, max_objects: int = 8):
    n_pointers = draw(st.integers(min_value=1, max_value=max_pointers))
    n_objects = draw(st.integers(min_value=1, max_value=max_objects))
    facts = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_pointers - 1),
                st.integers(min_value=0, max_value=n_objects - 1),
            ),
            max_size=n_pointers * n_objects,
        )
    )
    return PointsToMatrix.from_pairs(n_pointers, n_objects, facts)
