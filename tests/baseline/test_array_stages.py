"""The array-native Canny and Hough stages against the loops they replaced.

Non-maximum suppression, hysteresis and Hough voting are whole-array NumPy.
Each is checked here against a reference kept from the per-pixel version:
the suppression loop, the stack-based 8-neighbour edge tracker and the
``np.add.at`` accumulator.  The outputs must be equal in value *and* dtype,
on hypothesis-drawn images and on the inputs that separate near misses:
directions exactly on a bin boundary or NaN, plateaus, a weak spiral that
needs many growth rounds, int64/float32 magnitudes and non-default
accumulator resolutions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.baseline import CannyEdgeDetector, HoughConfig, HoughTransform
from repro.baseline.filters import gaussian_blur, normalize_image, sobel_gradients
from repro.datasets import load_benchmark


# ---------------------------------------------------------------------------
# Reference implementations (the per-pixel versions, kept verbatim)
# ---------------------------------------------------------------------------
def reference_non_maximum_suppression(magnitude: np.ndarray, direction: np.ndarray) -> np.ndarray:
    rows, cols = magnitude.shape
    suppressed = np.zeros_like(magnitude)
    angle = np.rad2deg(direction) % 180.0
    padded = np.pad(magnitude, 1, mode="constant")
    for row in range(rows):
        for col in range(cols):
            a = angle[row, col]
            if a < 22.5 or a >= 157.5:
                neighbours = (padded[row + 1, col], padded[row + 1, col + 2])
            elif a < 67.5:
                neighbours = (padded[row, col], padded[row + 2, col + 2])
            elif a < 112.5:
                neighbours = (padded[row, col + 1], padded[row + 2, col + 1])
            else:
                neighbours = (padded[row, col + 2], padded[row + 2, col])
            value = magnitude[row, col]
            if value >= neighbours[0] and value >= neighbours[1]:
                suppressed[row, col] = value
    return suppressed


def reference_hysteresis(strong: np.ndarray, weak: np.ndarray) -> np.ndarray:
    rows, cols = strong.shape
    edges = strong.copy()
    stack = list(zip(*np.nonzero(strong)))
    weak_remaining = weak.copy()
    while stack:
        row, col = stack.pop()
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                r, c = row + dr, col + dc
                if 0 <= r < rows and 0 <= c < cols and weak_remaining[r, c]:
                    weak_remaining[r, c] = False
                    edges[r, c] = True
                    stack.append((r, c))
    return edges


def reference_accumulate(edges: np.ndarray, cfg: HoughConfig):
    edges = np.asarray(edges, dtype=bool)
    rows, cols = edges.shape
    thetas = np.deg2rad(np.arange(0.0, 180.0, cfg.theta_resolution_deg))
    diagonal = float(np.hypot(rows, cols))
    rhos = np.arange(-diagonal, diagonal + cfg.rho_resolution_pixels, cfg.rho_resolution_pixels)
    accumulator = np.zeros((rhos.size, thetas.size), dtype=np.int64)
    edge_rows, edge_cols = np.nonzero(edges)
    if edge_rows.size == 0:
        return accumulator, thetas, rhos
    cos_t = np.cos(thetas)
    sin_t = np.sin(thetas)
    rho_values = np.outer(edge_cols, cos_t) + np.outer(edge_rows, sin_t)
    rho_indices = np.round((rho_values + diagonal) / cfg.rho_resolution_pixels).astype(int)
    rho_indices = np.clip(rho_indices, 0, rhos.size - 1)
    theta_indices = np.broadcast_to(np.arange(thetas.size), rho_indices.shape)
    np.add.at(accumulator, (rho_indices.ravel(), theta_indices.ravel()), 1)
    return accumulator, thetas, rhos


def assert_identical(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual, expected)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
shapes = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)

#: Directions that land exactly on each bin boundary (in degrees, before the
#: modulo), plus values around them and NaN.
BOUNDARY_DEGREES = (
    0.0, 22.5, 67.5, 112.5, 157.5, 180.0, -22.5, -67.5, -112.5, -157.5,
    22.499999, 67.500001, 157.49999, 90.0, 45.0, 135.0,
)
direction_elements = st.one_of(
    st.floats(-np.pi, np.pi, allow_nan=False),
    st.sampled_from([np.deg2rad(d) for d in BOUNDARY_DEGREES]),
    st.just(np.nan),
)


@st.composite
def magnitude_direction(draw, dtype):
    shape = draw(shapes)
    if np.dtype(dtype).kind == "i":
        # Few distinct values, so plateaus (a pixel equal to its neighbours)
        # are common.
        elements = st.integers(0, 3)
    else:
        elements = st.sampled_from([0.0, 0.5, 1.0, 2.0, np.nan]) | st.floats(
            0, 10, allow_nan=False, width=np.dtype(dtype).itemsize * 8
        )
    magnitude = draw(hnp.arrays(dtype, shape, elements=elements))
    direction = draw(hnp.arrays(np.float64, shape, elements=direction_elements))
    return magnitude, direction


def _edges_of_shape(shape):
    return hnp.arrays(bool, shape)


strong_weak = shapes.flatmap(lambda s: st.tuples(_edges_of_shape(s), _edges_of_shape(s)))
edge_maps = shapes.flatmap(_edges_of_shape)


# ---------------------------------------------------------------------------
# Non-maximum suppression
# ---------------------------------------------------------------------------
class TestNonMaximumSuppression:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([np.float64, np.float32, np.int64]).flatmap(magnitude_direction))
    def test_matches_loop(self, pair):
        magnitude, direction = pair
        assert_identical(
            CannyEdgeDetector.non_maximum_suppression(magnitude, direction),
            reference_non_maximum_suppression(magnitude, direction),
        )

    @pytest.mark.parametrize("degrees", [22.5, 67.5, 112.5, 157.5, float("nan")])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_boundary_directions_on_a_plateau_ridge(self, degrees, dtype):
        # Every pixel on the centre row and column ties with some neighbour,
        # so the chosen neighbour pair decides what survives.
        magnitude = np.zeros((7, 7), dtype=dtype)
        magnitude[3, :] = 2
        magnitude[:, 3] = 2
        magnitude[3, 3] = 3
        magnitude[1, 5] = 1
        direction = np.full((7, 7), np.deg2rad(degrees))
        if not np.isnan(degrees):
            # The angle lands exactly on the bin boundary, not an ulp off it.
            assert np.rad2deg(direction[0, 0]) % 180.0 == degrees
        assert_identical(
            CannyEdgeDetector.non_maximum_suppression(magnitude, direction),
            reference_non_maximum_suppression(magnitude, direction),
        )

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 1)])
    def test_single_row_and_column(self, shape):
        rng = np.random.default_rng(7)
        magnitude = rng.integers(0, 3, size=shape).astype(float)
        direction = rng.choice(np.deg2rad([0.0, 45.0, 90.0, 135.0, np.nan]), size=shape)
        assert_identical(
            CannyEdgeDetector.non_maximum_suppression(magnitude, direction),
            reference_non_maximum_suppression(magnitude, direction),
        )

    @pytest.mark.parametrize("index", [3, 6])
    def test_table1_gradients(self, index):
        image = gaussian_blur(normalize_image(load_benchmark(index).data), 1.4)
        _, _, magnitude, direction = sobel_gradients(image)
        assert_identical(
            CannyEdgeDetector.non_maximum_suppression(magnitude, direction),
            reference_non_maximum_suppression(magnitude, direction),
        )


# ---------------------------------------------------------------------------
# Hysteresis
# ---------------------------------------------------------------------------
def spiral_mask(size: int) -> np.ndarray:
    """A one-pixel-wide square spiral path, from the corner to the centre.

    Parallel arms are two pixels apart, so the 8-connected route from the
    corner pixel to the centre follows the path itself.
    """
    mask = np.zeros((size, size), dtype=bool)
    lo, hi = 0, size - 1
    while lo <= hi:
        mask[lo, lo : hi + 1] = True
        mask[lo : hi + 1, hi] = True
        mask[hi, lo : hi + 1] = True
        mask[lo + 2 : hi + 1, lo] = True
        if lo + 2 <= hi - 2:
            mask[lo + 2, lo + 1] = True
        lo, hi = lo + 2, hi - 2
    return mask


class TestHysteresis:
    @settings(max_examples=200, deadline=None)
    @given(strong_weak)
    def test_matches_stack_search(self, pair):
        strong, weak = pair
        assert_identical(
            CannyEdgeDetector.hysteresis(strong, weak),
            reference_hysteresis(strong, weak),
        )

    @settings(max_examples=100, deadline=None)
    @given(edge_maps)
    def test_single_seed_keeps_its_component(self, weak):
        # One strong seed: the result is its 8-connected component of weak
        # pixels.
        strong = np.zeros_like(weak)
        strong.flat[weak.size // 2] = True
        assert_identical(
            CannyEdgeDetector.hysteresis(strong, weak),
            reference_hysteresis(strong, weak),
        )

    @pytest.mark.parametrize("size", [9, 24])
    def test_weak_spiral_grows_over_many_rounds(self, size):
        weak = spiral_mask(size)
        strong = np.zeros_like(weak)
        strong[0, 0] = True
        weak[0, 0] = False
        expected = reference_hysteresis(strong, weak)
        # The spiral is long, so the stack search walks far from its seed.
        assert expected.sum() > size * size // 3
        assert_identical(CannyEdgeDetector.hysteresis(strong, weak), expected)

    def test_weak_diagonal_chain_needs_eight_neighbours(self):
        weak = np.eye(8, dtype=bool)
        strong = np.zeros_like(weak)
        strong[0, 0] = True
        result = CannyEdgeDetector.hysteresis(strong, weak)
        assert_identical(result, reference_hysteresis(strong, weak))
        assert result.sum() == 8

    def test_empty_strong_set_keeps_nothing(self):
        weak = np.ones((6, 5), dtype=bool)
        strong = np.zeros_like(weak)
        assert_identical(
            CannyEdgeDetector.hysteresis(strong, weak),
            reference_hysteresis(strong, weak),
        )

    @pytest.mark.parametrize("index", [3, 6, 7])
    def test_table1_edges(self, index):
        detector = CannyEdgeDetector()
        image = gaussian_blur(normalize_image(load_benchmark(index).data), 1.4)
        _, _, magnitude, direction = sobel_gradients(image)
        strong, weak = detector.double_threshold(
            detector.non_maximum_suppression(magnitude, direction)
        )
        assert_identical(
            detector.hysteresis(strong, weak), reference_hysteresis(strong, weak)
        )


# ---------------------------------------------------------------------------
# Hough voting
# ---------------------------------------------------------------------------
RESOLUTIONS = (
    HoughConfig(),
    HoughConfig(theta_resolution_deg=0.7, rho_resolution_pixels=0.5),
    HoughConfig(theta_resolution_deg=3.0, rho_resolution_pixels=2.5),
)


def assert_accumulators_identical(edges: np.ndarray, cfg: HoughConfig) -> None:
    actual = HoughTransform(cfg).accumulate(edges)
    expected = reference_accumulate(edges, cfg)
    for got, want in zip(actual, expected):
        assert_identical(got, want)


class TestHoughVoting:
    @settings(max_examples=150, deadline=None)
    @given(edge_maps, st.sampled_from(RESOLUTIONS))
    def test_matches_add_at(self, edges, cfg):
        assert_accumulators_identical(edges, cfg)

    @pytest.mark.parametrize("cfg", RESOLUTIONS, ids=["default", "0.7deg-0.5px", "3deg-2.5px"])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 12), (12, 1), (5, 7)])
    def test_empty_edge_map(self, shape, cfg):
        assert_accumulators_identical(np.zeros(shape, dtype=bool), cfg)

    @pytest.mark.parametrize("cfg", RESOLUTIONS, ids=["default", "0.7deg-0.5px", "3deg-2.5px"])
    def test_full_edge_map_spans_several_blocks(self, cfg):
        # 90 x 100 = 9000 edge pixels: two full vote blocks and a partial one.
        assert_accumulators_identical(np.ones((90, 100), dtype=bool), cfg)

    @pytest.mark.parametrize("index", [1, 6, 7])
    def test_table1_edge_maps(self, index):
        edges = CannyEdgeDetector().detect(load_benchmark(index).data)
        for cfg in RESOLUTIONS[:2]:
            assert_accumulators_identical(edges, cfg)
