"""Tests for the mapping visualization."""

from repro.codegen import mapping as mappings
from repro.codegen.mapping_viz import render_comparison, render_mapping
from repro.gpu.spec import V100


class TestRenderMapping:
    def test_naive_row_reduce(self):
        m = mappings.naive_row_reduce(750_000, 32, V100)
        text = render_mapping(m)
        assert "one block per row" in text
        assert "..." in text

    def test_packing_diagram(self):
        m = mappings.adaptive_row_reduce(750_000, 32, V100)
        text = render_mapping(m)
        assert "horizontal packing" in text
        assert "rows 0.." in text

    def test_splitting_diagram(self):
        m = mappings.adaptive_row_reduce(64, 30_000, V100)
        text = render_mapping(m)
        assert "task splitting" in text
        assert "atomic" in text

    def test_elementwise_diagram(self):
        m = mappings.adaptive_elementwise(10_000_000, V100)
        text = render_mapping(m)
        assert "elements ->" in text

    def test_small_grid_no_ellipsis(self):
        m = mappings.naive_elementwise(256, V100, block_size=256)
        text = render_mapping(m)
        assert "..." not in text

    def test_comparison(self):
        naive = mappings.naive_row_reduce(64, 30_000, V100)
        adaptive = mappings.adaptive_row_reduce(64, 30_000, V100)
        text = render_comparison(naive, adaptive)
        assert "naive (Fig 6)" in text
        assert "adaptive (Fig 8)" in text
