import math

import numpy as np
import pytest

from usdenoise.diffusion import (
    NoiseSchedule,
    denoise_from,
    forward_jump,
    forward_step,
    make_schedule,
    reverse_step,
)
from usdenoise.image import NumericError
from usdenoise.rng import standard_normal, stream


def img(data):
    return np.asarray(data, dtype=np.float32)


def const_img(value, shape=(8, 8)):
    return img(np.full(shape, value, dtype=np.float32))


# ---------------------------------------------------------------- schedule

def test_default_schedule_constant_beta():
    s = make_schedule(300, 1.0 / 300.0)
    assert s.T == 300
    assert np.allclose(s.alphas, 299.0 / 300.0, rtol=0, atol=1e-15)


def test_single_step_schedule():
    beta = 0.2
    s = make_schedule(1, beta)
    assert s.alpha_bar(1) == pytest.approx(1.0 - beta, abs=1e-15)


def test_alpha_bar_300_matches_direct_product():
    s = make_schedule(300, 1.0 / 300.0)
    # extended-precision oracle: (299/300)^300
    assert s.alpha_bar(300) == pytest.approx(0.367265455775, abs=1e-9)


def test_incremental_matches_direct_product():
    s = NoiseSchedule(np.linspace(1e-4, 0.02, 1000))
    direct = np.array([math.prod(s.alphas[:t + 1].tolist()) for t in range(s.T)])
    assert np.allclose(s.alpha_bars, direct, rtol=1e-6)


def test_schedule_invariants():
    s = NoiseSchedule(np.linspace(0.01, 0.3, 50))
    assert len(s.betas) == len(s.alphas) == len(s.alpha_bars) == 50
    assert np.all(s.betas > 0) and np.all(s.betas < 1)
    assert np.allclose(s.alphas, 1.0 - s.betas)
    assert np.all(np.diff(s.alpha_bars) < 0)  # strictly decreasing
    recur = s.alpha_bars[1:] / s.alpha_bars[:-1]
    assert np.allclose(recur, s.alphas[1:], rtol=1e-12)
    assert s.alpha_bars[0] == s.alphas[0]


def test_schedule_rejects_bad_input():
    with pytest.raises(ValueError):
        make_schedule(0)
    with pytest.raises(ValueError):
        make_schedule(10, 0.0)
    with pytest.raises(ValueError):
        make_schedule(10, 1.0)
    with pytest.raises(ValueError):
        make_schedule(10, math.nan)
    with pytest.raises(ValueError):
        NoiseSchedule(np.linspace(0.1, 1.5, 10))
    with pytest.raises(ValueError):
        NoiseSchedule(np.array([0.1, -0.2]))


def test_monotone_signal_coefficient():
    s = make_schedule(300)
    coef = np.sqrt(s.alpha_bars)
    assert np.all(np.diff(coef) < 0)


# ------------------------------------------------------------ forward_step

def test_forward_step_zero_noise():
    s = make_schedule(300)
    x = img(np.linspace(-1, 1, 64).reshape(8, 8))
    out = forward_step(x, 5, s, eps=None)
    assert np.allclose(out, math.sqrt(1 - 1 / 300) * x, rtol=1e-6)


def test_forward_step_zero_signal():
    s = make_schedule(300)
    e = standard_normal((8, 8), seed=1)
    out = forward_step(const_img(0.0), 3, s, eps=e)
    assert np.allclose(out, math.sqrt(1 / 300) * e, rtol=1e-6)


def test_forward_step_constant_oracle():
    s = make_schedule(300)
    out = forward_step(const_img(1.0), 1, s, eps=None)
    # high-precision oracle sqrt(299/300)
    assert np.allclose(out, 0.9983319421, atol=1e-6)


def test_forward_step_validation():
    s = make_schedule(10)
    x = const_img(1.0)
    with pytest.raises(ValueError):
        forward_step(x, 0, s)
    with pytest.raises(ValueError):
        forward_step(x, 11, s)
    with pytest.raises(ValueError):
        forward_step(x, 1, s, eps=np.zeros((4, 4)))


# ------------------------------------------------------------ forward_jump

def test_forward_jump_zero_noise():
    s = make_schedule(300)
    x = img(standard_normal((8, 8), seed=2))
    out = forward_jump(x, 17, s, eps=None)
    assert np.allclose(out, math.sqrt(s.alpha_bar(17)) * x, rtol=1e-6)


def test_forward_jump_constant_t10_oracle():
    s = make_schedule(300)
    out = forward_jump(const_img(1.0), 10, s, eps=None)
    # oracle sqrt((299/300)^10)
    assert np.allclose(out, 0.9834440747, atol=1e-5)


def test_forward_step_composition_equals_jump():
    s = make_schedule(300)
    x = img(standard_normal((16, 16), seed=3))
    stepped = x
    for t in range(1, 21):
        stepped = forward_step(stepped, t, s, eps=None)
    jumped = forward_jump(x, 20, s, eps=None)
    assert np.allclose(stepped, jumped, rtol=1e-5)


def test_forward_jump_monte_carlo_variance():
    s = make_schedule(300)
    t = 10
    n = 10_000
    eps = standard_normal((n, 5, 5), seed=77).astype(np.float64)
    ab = s.alpha_bar(t)
    x_t = math.sqrt(ab) * 0.5 + math.sqrt(1 - ab) * eps
    var = x_t.var(axis=0)
    assert np.all(np.abs(var - (1 - ab)) < 0.05 * (1 - ab))


def test_forward_jump_monte_carlo_mean():
    s = make_schedule(300)
    t = 20
    n = 10_000
    x0 = 0.7
    acc = np.zeros((4, 4), dtype=np.float64)
    for k in range(0, n, 500):
        e = standard_normal((500, 4, 4), seed=11, draw_index=k).astype(np.float64)
        ab = s.alpha_bar(t)
        acc += (math.sqrt(ab) * x0 + math.sqrt(1 - ab) * e).sum(axis=0)
    mean = acc / n
    bound = 3 * math.sqrt((1 - s.alpha_bar(t)) / n)
    assert np.all(np.abs(mean - math.sqrt(s.alpha_bar(t)) * x0) < bound)


def test_per_item_steps_match_per_item_calls():
    s = make_schedule(300)
    x0 = img(standard_normal((3, 2, 1, 8, 8), seed=23))
    e = standard_normal(x0.shape, seed=24)
    t = np.array([[1, 300], [17, 17], [150, 2]])
    out = forward_jump(x0, t, s, eps=e)
    for i, j in np.ndindex(t.shape):
        assert np.array_equal(out[i, j],
                              forward_jump(x0[i, j], int(t[i, j]), s, e[i, j]))


@pytest.mark.parametrize("t", [np.array([3, 4]), np.array([3, 4, 5, 6]),
                               np.array([[3, 4, 5]]),
                               np.array([0, 4, 5]), np.array([3, 301, 5]),
                               np.array([3.0, 4.0, 5.0]),
                               np.array([3, 4.5, 5])])
def test_bad_step_arrays_raise(t):
    # too short, too long, the wrong axes, out of range, fractional
    x0 = img(np.zeros((3, 1, 4, 4)))
    with pytest.raises(ValueError):
        forward_jump(x0, t, make_schedule(300))


@pytest.mark.parametrize("fn", [forward_jump, forward_step])
def test_fractional_step_index_raises(fn):
    # int(2.5) made this the t=2 image
    with pytest.raises(ValueError, match="integer"):
        fn(const_img(0.5), 2.5, make_schedule(300))


def test_forward_jump_rounds_float64_arithmetic_once():
    s = make_schedule(300)
    x0 = img(np.tanh(standard_normal((16, 16), seed=25)))
    e = standard_normal((16, 16), seed=26)
    ab = s.alpha_bars[40 - 1]
    expect = (np.sqrt(ab) * x0.astype(np.float64)
              + np.sqrt(1.0 - ab) * e.astype(np.float64)).astype(np.float32)
    out = forward_jump(x0, 40, s, eps=e)
    assert out.dtype == np.float32
    assert np.array_equal(out, expect)
    assert np.array_equal(out, forward_jump(x0.astype(np.float64), 40, s, e))


def test_forward_determinism_bit_identical():
    s = make_schedule(300)
    x = img(standard_normal((8, 8), seed=4))
    e = standard_normal((8, 8), seed=5, draw_index=9)
    a = forward_jump(x, 30, s, eps=e)
    b = forward_jump(x, 30, s, eps=e)
    assert np.array_equal(a, b)


# ------------------------------------------------------------ reverse_step

def test_reverse_step_zero_prediction():
    s = make_schedule(300)
    x = img(standard_normal((8, 8), seed=6))
    out = reverse_step(x, 12, np.zeros((8, 8)), s)
    assert np.allclose(out, x / math.sqrt(s.alphas[12 - 1]), rtol=1e-6)


def test_reverse_step_posterior_inverts_t1():
    s = make_schedule(300)
    x0 = img(standard_normal((8, 8), seed=7))
    e = standard_normal((8, 8), seed=8)
    x1 = forward_jump(x0, 1, s, eps=e)
    rec = reverse_step(x1, 1, e, s, inject=None)
    assert np.max(np.abs(rec - x0)) < 1e-6


def test_reverse_step_constant_t20_oracle():
    s = make_schedule(300)
    out = reverse_step(const_img(1.0), 20, np.ones((8, 8)), s)
    # scalar oracle: (1 - (1-a)/sqrt(1-a^20))/sqrt(a), a = 299/300
    a = 299.0 / 300.0
    expect = (1 - (1 - a) / math.sqrt(1 - a ** 20)) / math.sqrt(a)
    assert expect == pytest.approx(0.98853382138, abs=1e-9)
    assert np.allclose(out, expect, atol=1e-5)


def test_reverse_step_validation():
    s = make_schedule(10)
    x = const_img(0.5)
    with pytest.raises(ValueError):
        reverse_step(x, 11, None, s)
    with pytest.raises(ValueError):
        reverse_step(x, 1, np.zeros((3, 3)), s)


def _one_step_reference(x, t, e, sched, z):
    # the one-step branch the sampler had, from a_t and b_t themselves
    a, b = sched.alphas[t - 1], sched.betas[t - 1]
    coef = (1.0 - a) / np.sqrt(1.0 - sched.alpha_bars[t - 1])
    out = (x - np.float32(coef) * e) / np.float32(np.sqrt(a))
    if z is not None and t > 1:
        out = out + np.float32(np.sqrt(b)) * z
    return out


@pytest.mark.parametrize("inject", [False, True])
def test_one_step_is_the_a_t_b_t_step_at_every_t(inject):
    # a' = abar_t/abar_{t-1} and b' = 1 - a' round to the float32
    # coefficients of a_t and b_t at every step of the default schedule
    sched = make_schedule()
    x = img(np.tanh(standard_normal((8, 8), seed=27)))
    for t in range(1, sched.T + 1):
        e = standard_normal((8, 8), 28, draw_index=t)
        z = standard_normal((8, 8), 29, draw_index=t) if inject else None
        assert np.array_equal(reverse_step(x, t, e, sched, z),
                              _one_step_reference(x, t, e, sched, z)), t


def test_fractional_reverse_target_raises():
    # int(2.5) made this the step to s=2
    with pytest.raises(ValueError, match="integer"):
        reverse_step(const_img(0.1), 12, None, make_schedule(300), s=2.5)


# ------------------------------------------------------------ denoise_from

def test_denoise_single_step_zero_predictor():
    s = make_schedule(300)
    x = img(standard_normal((8, 8), seed=9))
    out = denoise_from(x, 1, lambda im, t: np.zeros(im.shape), s)
    assert np.allclose(out, x / math.sqrt(s.alphas[1 - 1]), rtol=1e-6)


def test_denoise_runs_exactly_t_start_steps():
    s = make_schedule(300)
    calls = []

    def predictor(im, t):
        calls.append(t)
        return np.zeros(im.shape)

    denoise_from(const_img(0.2), 20, predictor, s)
    assert calls == list(range(20, 0, -1))


def test_denoise_oracle_predictor_reduces_error():
    s = make_schedule(300)
    x0 = img(np.tanh(standard_normal((16, 16), seed=10)))
    for t_start in (10, 20):
        e = standard_normal((16, 16), seed=20 + t_start)
        noisy = forward_jump(x0, t_start, s, eps=e)
        rec = denoise_from(noisy, t_start, lambda im, t: e, s)
        mse_noisy = np.mean((noisy - x0) ** 2)
        mse_rec = np.mean((rec - x0) ** 2)
        assert mse_rec < mse_noisy  # PSNR strictly improves


def test_denoise_deterministic_with_injection():
    s = make_schedule(300)
    x = img(standard_normal((8, 8), seed=11))
    noisy = forward_jump(x, 15, s, eps=standard_normal((8, 8), 12))
    a = denoise_from(noisy, 15, lambda im, t: np.zeros(im.shape), s,
                     inject_seed=99)
    b = denoise_from(noisy, 15, lambda im, t: np.zeros(im.shape), s,
                     inject_seed=99)
    c = denoise_from(noisy, 15, lambda im, t: np.zeros(im.shape), s,
                     inject_seed=100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_predictor_exception_propagates_unchanged():
    s = make_schedule(300)
    called = []

    def predictor(im, t):
        called.append(t)
        if t == 7:
            raise ValueError("boom at t=7")
        return np.zeros(im.shape)

    with pytest.raises(ValueError) as ei:
        denoise_from(const_img(0.1), 12, predictor, s)
    assert type(ei.value) is ValueError
    assert str(ei.value) == "boom at t=7"
    assert called == [12, 11, 10, 9, 8, 7]


# ------------------------------------------------ respaced chain (t -> s)

def _loop_of_one_steps(x, t_start, predictor, sched, inject_seed=None):
    # the one-step chain written out: reverse_step(x, t, ...) for t_start..1
    for t in range(t_start, 0, -1):
        inject = (standard_normal(x.shape, inject_seed, stream("inject", t))
                  if inject_seed is not None and t > 1 else None)
        x = reverse_step(x, t, predictor(x, t), sched, inject)
    return x


@pytest.mark.parametrize("inject_seed", [None, 5])
def test_every_step_count_is_the_one_step_chain(inject_seed):
    sched = make_schedule(300)
    x = img(np.tanh(standard_normal((8, 8), seed=13)))

    def predictor(im, t):
        return np.sin(im * t)

    expected = _loop_of_one_steps(x, 20, predictor, sched, inject_seed)
    for steps in (20, 21, 300):
        out = denoise_from(x, 20, predictor, sched, inject_seed=inject_seed,
                           steps=steps)
        assert np.array_equal(out, expected), steps


def test_respaced_chain_calls_the_predictor_at_even_steps():
    sched = make_schedule(300)
    calls = []

    def predictor(im, t):
        calls.append(t)
        return np.zeros(im.shape)

    denoise_from(const_img(0.2), 20, predictor, sched, steps=5)
    assert calls == [20, 16, 12, 8, 4]


@pytest.mark.parametrize("t", [10, 20, 300])
def test_one_respaced_step_inverts_the_forward_jump(t):
    # one step t -> 0, fed the exact noise, is x0 = (x_t -
    # sqrt(1-abar_t) eps)/sqrt(abar_t), as the t=1 step is for t = 1
    sched = make_schedule(300)
    x0 = img(np.tanh(standard_normal((16, 16), seed=14)))
    e = standard_normal((16, 16), seed=15, draw_index=t)
    xt = forward_jump(x0, t, sched, eps=e)
    rec = denoise_from(xt, t, lambda im, tt: e, sched, steps=1)
    assert np.max(np.abs(rec - x0)) < 1e-6
    assert np.array_equal(rec, reverse_step(xt, t, e, sched, s=0))


def test_respaced_step_uses_the_cumulative_variances():
    # a' = abar_t/abar_s, b' = 1 - a' from t=20 to s=12, by hand in float64
    sched = make_schedule(300)
    x = img(standard_normal((8, 8), seed=16))
    e = standard_normal((8, 8), seed=17)
    z = standard_normal((8, 8), seed=18)
    out = reverse_step(x, 20, e, sched, inject=z, s=12)
    a = sched.alpha_bar(20) / sched.alpha_bar(12)
    expect = ((x - (1 - a) / math.sqrt(1 - sched.alpha_bar(20)) * e)
              / math.sqrt(a) + math.sqrt(1 - a) * z)
    assert np.allclose(out, expect, atol=1e-5)


def test_respaced_injection_is_deterministic_per_seed():
    sched = make_schedule(300)
    noisy = forward_jump(img(standard_normal((8, 8), seed=19)), 20, sched,
                         eps=standard_normal((8, 8), 20))

    def run(seed):
        return denoise_from(noisy, 20, lambda im, t: np.zeros(im.shape),
                            sched, inject_seed=seed, steps=5)

    assert np.array_equal(run(99), run(99))
    assert not np.array_equal(run(99), run(100))
    no_inject = denoise_from(noisy, 20, lambda im, t: np.zeros(im.shape),
                             sched, steps=5)
    assert not np.array_equal(run(99), no_inject)


def test_degenerate_schedule_is_a_numeric_failure():
    # a variance this small makes 1 - abar_t exactly 0, so the reverse step
    # divides by zero; a non-finite image is a numeric failure
    sched = make_schedule(2, 1e-300)
    with pytest.raises(NumericError):
        denoise_from(const_img(0.5), 2, lambda im, t: np.zeros(im.shape), sched)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
def test_non_finite_arrays_are_numeric_failures(bad):
    # 1e300 is finite in float64 but inf after the cast to float32
    sched = make_schedule(300)
    x = np.full((8, 8), 0.5)
    x[3, 4] = bad
    zero = np.zeros((8, 8))
    with pytest.raises(NumericError):
        forward_jump(x, 10, sched)
    with pytest.raises(NumericError):
        forward_jump(zero, 10, sched, eps=x)
    with pytest.raises(NumericError):
        reverse_step(x, 10, zero, sched)
    with pytest.raises(NumericError):
        reverse_step(zero, 10, x, sched)
    calls = []
    with pytest.raises(NumericError):
        denoise_from(x, 10, lambda im, t: calls.append(t) or zero, sched)
    assert calls == []          # the input is checked before the first call
    with pytest.raises(NumericError):
        denoise_from(zero, 10, lambda im, t: x, sched)


# A Gaussian prior of mean PRIOR_MEAN and spectrum PRIOR_SPECTRUM > 0 on
# 64x64 images, under which the exact noise predictor is linear: with
# V_t = abar_t S + 1 - abar_t it scales the centred coefficients of x_t by
# sqrt(1 - abar_t) / V_t.
_F = np.fft.fftfreq(64)
PRIOR_SPECTRUM = 0.02 + 0.3 * np.exp(-(_F[:, None] ** 2 + _F ** 2) / 0.005)
PRIOR_MEAN = -0.3


def _filtered(gain, x):
    return np.fft.ifft2(gain * np.fft.fft2(x)).real


def _prior_x_t(sched, t):
    """One fixed draw from the prior, forward-jumped to step t."""
    x0 = img(PRIOR_MEAN + _filtered(np.sqrt(PRIOR_SPECTRUM),
                                    standard_normal((64, 64), 21)))
    return forward_jump(x0, t, sched, eps=standard_normal((64, 64), 22))


def _prior_variance(sched, t):
    """V_t per frequency; V_0 is the spectrum itself."""
    ab = sched.alpha_bar(t) if t else 1.0
    return ab * PRIOR_SPECTRUM + 1 - ab


def _exact_predictor(sched, seen):
    def predictor(im, t):
        a = sched.alpha_bar(t)
        seen.append(np.abs(im).max())
        return _filtered(np.sqrt(1 - a) / _prior_variance(sched, t),
                         im - np.sqrt(a) * PRIOR_MEAN)
    return predictor


@pytest.mark.parametrize("t", [10, 20, 300])
def test_deterministic_chain_is_the_wiener_estimate(t):
    # Each step maps the centred coefficients by sqrt(a') V_s / V_t, and
    # the product telescopes to sqrt(abar_t) S / V_t: every step count
    # gives the Wiener estimate.
    sched = make_schedule()
    xt = _prior_x_t(sched, t)
    ab = sched.alpha_bar(t)
    wiener = PRIOR_MEAN + _filtered(
        np.sqrt(ab) * PRIOR_SPECTRUM / _prior_variance(sched, t),
        xt - np.sqrt(ab) * PRIOR_MEAN)
    seen = []
    predictor = _exact_predictor(sched, seen)

    for steps in (1, 2, 5, t):
        seen.clear()
        out = denoise_from(xt, t, predictor, sched, steps=steps)
        # float32 rounding: each step rounds five times (eps_hat, its
        # coefficient, the product, the difference, the quotient), each
        # time by half an ulp of a value at most 2M / sqrt(abar_t), where M
        # bounds |x| along the chain
        m = max(seen + [np.abs(out).max()])
        tol = len(seen) * 5 * np.finfo(np.float32).eps * m / math.sqrt(ab)
        assert np.max(np.abs(out - wiener)) <= tol, steps


@pytest.mark.parametrize("steps", [5, 20])
def test_injected_chain_variance_follows_the_recursion(steps):
    # From one fixed x_t, each step t -> s maps a centred coefficient by
    # sqrt(a') V_s / V_t and adds sqrt(b') times the coefficient of a fresh
    # white field, of unit variance under the orthonormal FFT.  Across
    # chains the variance is then v_s = a' (V_s/V_t)^2 v_t + b' from v = 0,
    # with no b' on the step to 0.  A field drawn twice, a wrong sqrt(b')
    # or noise on the last step moves the variance off this recursion.
    sched = make_schedule()
    t, n = 20, 48
    xt = _prior_x_t(sched, t)
    predictor = _exact_predictor(sched, [])
    coef = np.stack([
        np.fft.fft2(denoise_from(xt, t, predictor, sched,
                                 inject_seed=1000 + k, steps=steps),
                    norm="ortho")
        for k in range(n)])
    sample_var = (np.abs(coef - coef.mean(axis=0)) ** 2).sum(axis=0) / (n - 1)

    ts = [t * k // steps for k in range(steps, 0, -1)] + [0]
    v = np.zeros_like(PRIOR_SPECTRUM)
    for tt, s in zip(ts, ts[1:]):
        a = sched.alpha_bar(tt) / (sched.alpha_bar(s) if s else 1.0)
        gain = _prior_variance(sched, s) / _prior_variance(sched, tt)
        v = a * gain ** 2 * v + (1 - a if s else 0.0)

    # Each ratio sample_var / v is chi-square over its degrees of freedom:
    # 2(n-1) for a complex coefficient, whose conjugate is the same draw,
    # and n-1 for a real one.  Over a set of m frequencies closed under
    # negation the mean ratio has variance 2 / (m (n-1)).  The frequencies
    # split into three such bands, the flat floor of the spectrum and two
    # levels of its peak, and each band's mean must lie within five
    # standard errors of 1.
    ratio = sample_var / v
    band = np.digitize(v / v.min(), [1.01, 2.0])
    for b in range(3):
        r = ratio[band == b]
        se = math.sqrt(2.0 / (r.size * (n - 1)))
        assert abs(r.mean() - 1.0) <= 5 * se, (b, r.mean(), se)


def test_steps_below_one_raise():
    # range() raised TypeError for a fractional count
    sched = make_schedule(300)
    for steps in (0, -3, 2.5):
        with pytest.raises(ValueError, match="steps"):
            denoise_from(const_img(0.1), 10, lambda im, t: np.zeros(im.shape),
                         sched, steps=steps)


def test_reverse_step_target_must_lie_below_t():
    sched = make_schedule(300)
    for target in (-1, 12, 13):
        with pytest.raises(ValueError, match="outside 0..11"):
            reverse_step(const_img(0.1), 12, None, sched, s=target)
