"""Unit tests for shapes and layout arithmetic."""

import pickle
import weakref

import pytest

from repro import reset_caches, store
from repro.ir.shape import Shape, broadcast_result_shape


class TestShapeBasics:
    def test_num_elements(self):
        assert Shape((2, 128)).num_elements == 256

    def test_scalar(self):
        s = Shape(())
        assert s.is_scalar()
        assert s.num_elements == 1
        assert s.rank == 0

    def test_negative_dim_rejected(self):
        with pytest.raises(ValueError):
            Shape((2, -1))

    def test_equality_with_tuple(self):
        assert Shape((4, 5)) == (4, 5)
        assert Shape((4, 5)) != (5, 4)

    def test_hashable(self):
        assert len({Shape((1, 2)), Shape((1, 2)), Shape((2, 1))}) == 2

    def test_of_coerces(self):
        s = Shape((3,))
        assert Shape.of(s) is s
        assert Shape.of([3]) == s

    def test_iteration_and_indexing(self):
        s = Shape((7, 8, 9))
        assert list(s) == [7, 8, 9]
        assert s[1] == 8
        assert s[-1] == 9
        assert len(s) == 3


class TestStrides:
    def test_row_major_strides(self):
        assert Shape((2, 3, 4)).row_major_strides() == (12, 4, 1)

    def test_rank1_stride(self):
        assert Shape((10,)).row_major_strides() == (1,)

    def test_scalar_strides(self):
        assert Shape(()).row_major_strides() == ()


class TestAxes:
    def test_drop_axes(self):
        assert Shape((2, 3, 4)).drop_axes((1,)) == (2, 4)

    def test_drop_negative_axis(self):
        assert Shape((2, 3, 4)).drop_axes((-1,)) == (2, 3)

    def test_normalize_axes_sorts_and_dedups(self):
        assert Shape((2, 3, 4)).normalize_axes((-1, 2, 0)) == (0, 2)

    def test_innermost_row_reduce(self):
        assert Shape((750000, 32)).innermost_is((1,))
        assert Shape((64, 30000)).innermost_is((-1,))

    def test_innermost_column_reduce(self):
        assert not Shape((750000, 32)).innermost_is((0,))

    def test_innermost_multi_axis(self):
        assert Shape((2, 3, 4)).innermost_is((1, 2))
        assert not Shape((2, 3, 4)).innermost_is((0, 2))


class TestBroadcastValidation:
    def test_valid_broadcast(self):
        broadcast_result_shape(Shape((2,)), Shape((2, 128)), (0,))

    def test_wrong_dim_count(self):
        with pytest.raises(ValueError):
            broadcast_result_shape(Shape((2,)), Shape((2, 128)), (0, 1))

    def test_mismatched_extent(self):
        with pytest.raises(ValueError):
            broadcast_result_shape(Shape((3,)), Shape((2, 128)), (0,))

    def test_out_of_range_target(self):
        with pytest.raises(ValueError):
            broadcast_result_shape(Shape((2,)), Shape((2, 128)), (5,))


class TestInterning:
    def test_equal_dims_give_one_object(self):
        shape = Shape.of((2, 3, 4))
        assert Shape.of([2, 3, 4]) is shape
        assert Shape((2, 3, 4)) is shape
        assert Shape.of(shape) is shape
        assert Shape(iter((2, 3, 4))) is shape

    def test_drop_axes_is_interned(self):
        assert Shape.of((2, 3, 4)).drop_axes((1,)) is Shape.of((2, 4))
        assert Shape.of((5, 6)).drop_axes((0, 1)) is Shape.of(())

    def test_pickle_round_trip_is_interned(self):
        shape = Shape.of((7, 9))
        assert pickle.loads(pickle.dumps(shape)) is shape

    @pytest.mark.usefixtures("fresh_caches")
    def test_intern_table_is_registered(self):
        kept = Shape.of((11, 13))
        assert len(store.registered()["shapes"])
        reset_caches()
        assert len(store.registered()["shapes"]) == 0
        assert Shape.of((11, 13)) == kept

    def test_unused_shape_leaves_the_table(self):
        """The table holds shapes weakly: a shape no graph uses any more
        does not stay alive for the rest of the process."""
        shape = Shape.of((17, 1019))
        gone = weakref.ref(shape)
        assert (17, 1019) in store.registered()["shapes"]
        del shape
        assert gone() is None
        assert (17, 1019) not in store.registered()["shapes"]
