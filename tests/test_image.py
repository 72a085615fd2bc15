import numpy as np
import pytest

from usdenoise.image import RANGE_SIGNED, RANGE_UNIT, Image2D, NumericError


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
def test_non_finite_samples_raise(bad):
    # 1e300 is finite in float64 but inf after the cast to float32
    data = np.full((4, 5), 0.5, dtype=np.float64)
    data[2, 3] = bad
    with pytest.raises(NumericError):
        Image2D(data)


def test_like_keeps_the_range_tag():
    img = Image2D(np.zeros((3, 4)), RANGE_SIGNED)
    out = img.like(np.full((2, 2), 7.0))
    assert out.value_range == RANGE_SIGNED
    assert out.data.dtype == np.float32
    with pytest.raises(NumericError):
        img.like(np.full((2, 2), np.nan))


def test_to_range_round_trips_unit_and_signed():
    rng = np.random.default_rng(0)
    unit = Image2D(rng.random((6, 7)), RANGE_UNIT)
    signed = unit.to_range(RANGE_SIGNED)
    assert signed.value_range == RANGE_SIGNED
    assert np.allclose(signed.data, unit.data * 2.0 - 1.0, atol=1e-6)
    back = signed.to_range(RANGE_UNIT)
    assert back.value_range == RANGE_UNIT
    assert np.allclose(back.data, unit.data, atol=1e-6)
    same = unit.to_range(RANGE_UNIT)
    assert np.array_equal(same.data, unit.data)
    assert same.data is not unit.data
