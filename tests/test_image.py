import numpy as np
import pytest

from usdenoise.image import (
    RANGE_UNIT,
    Image2D,
    NumericError,
    to_signed,
    to_unit_clipped,
)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
def test_non_finite_samples_raise(bad):
    # 1e300 is finite in float64 but inf after the cast to float32
    data = np.full((4, 5), 0.5, dtype=np.float64)
    data[2, 3] = bad
    with pytest.raises(NumericError):
        Image2D(data)


@pytest.mark.parametrize("tag", ["signed-unit", "bogus"])
def test_the_unit_interval_is_the_one_value_range(tag):
    assert Image2D(np.zeros((2, 2)), RANGE_UNIT).value_range == RANGE_UNIT
    with pytest.raises(ValueError, match="unknown value range") as err:
        Image2D(np.zeros((2, 2)), tag)
    assert type(err.value) is ValueError


def test_to_signed_and_to_unit_clipped_map_between_the_domains():
    unit = Image2D(np.array([[0.0, 0.25], [0.5, 1.0]]))
    signed = to_signed(unit)
    assert signed.dtype == np.float32
    assert np.array_equal(signed, [[-1.0, -0.5], [0.0, 1.0]])
    back = to_unit_clipped(signed)
    assert back.data.dtype == np.float32
    assert np.array_equal(back.data, unit.data)
    clipped = to_unit_clipped(np.array([[-3.0, -1.0], [1.0, 3.0]]))
    assert np.array_equal(clipped.data, [[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(NumericError):
        to_unit_clipped(np.full((2, 2), np.nan))
