"""Property-based tests on the model equations."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import ModelParameters, ScalarOracle
from repro.core.calibration import calibrate
from tests.core.test_calibration import synthetic_curves


@st.composite
def model_params(draw):
    b_comp = draw(st.floats(1.0, 8.0))
    b_comm = draw(st.floats(4.0, 25.0))
    n_par = draw(st.integers(1, 16))
    n_seq = n_par + draw(st.integers(0, 8))
    # Peaks roughly consistent with a real machine: bus >= one core.
    t_par = draw(st.floats(b_comp + b_comm, 150.0))
    t_seq = draw(st.floats(b_comp, t_par))
    # Draw t_par2 on [1, t_par] and derive delta_l so that Eq. 1 is
    # continuous-by-construction at n_seq (no upward jump).
    gap = n_seq - n_par
    t_par2 = 1.0 + draw(st.floats(0.0, 1.0)) * (t_par - 1.0)
    delta_l = (t_par - t_par2) / gap if gap > 0 else 0.0
    if gap == 0:
        t_par2 = t_par
    delta_r = draw(st.floats(0.0, 2.0))
    alpha = draw(st.floats(0.05, 1.0))
    return ModelParameters(
        n_par_max=n_par,
        t_par_max=t_par,
        n_seq_max=n_seq,
        t_seq_max=t_seq,
        t_par_max2=t_par2,
        delta_l=delta_l,
        delta_r=delta_r,
        b_comp_seq=b_comp,
        b_comm_seq=b_comm,
        alpha=alpha,
    )


@settings(max_examples=200, deadline=None)
@given(p=model_params(), n=st.integers(0, 64))
def test_total_bandwidth_non_increasing(p, n):
    model = ScalarOracle(p)
    assert model.total_bandwidth(n + 1) <= model.total_bandwidth(n) + 1e-9


@settings(max_examples=200, deadline=None)
@given(p=model_params(), n=st.integers(1, 64))
def test_split_never_exceeds_total(p, n):
    model = ScalarOracle(p)
    total = model.comp_parallel(n) + model.comm_parallel(n)
    # Unsaturated: total = demand <= T; saturated: total = T exactly.
    assert total <= model.total_bandwidth(n) + 1e-9


@settings(max_examples=200, deadline=None)
@given(p=model_params(), n=st.integers(0, 64))
def test_comm_within_bounds(p, n):
    model = ScalarOracle(p)
    comm = model.comm_parallel(n)
    assert comm >= -1e-9
    assert comm <= p.b_comm_seq + 1e-9
    if n > 0 and model.saturated(n):
        # Guaranteed minimum, up to what the total capacity allows.
        floor = min(p.alpha * p.b_comm_seq, model.total_bandwidth(n))
        assert comm >= floor - 1e-9


@settings(max_examples=200, deadline=None)
@given(p=model_params(), n=st.integers(1, 64))
def test_alpha_factor_within_alpha_and_one(p, n):
    factor = ScalarOracle(p).alpha_factor(n)
    assert p.alpha - 1e-9 <= factor <= 1.0 + 1e-9


@settings(max_examples=200, deadline=None)
@given(p=model_params(), n=st.integers(0, 64))
def test_comp_alone_bounds(p, n):
    model = ScalarOracle(p)
    alone = model.comp_alone(n)
    assert alone <= n * p.b_comp_seq + 1e-9
    assert alone <= p.t_seq_max + 1e-9
    assert alone <= model.total_bandwidth(n) + 1e-9


@settings(max_examples=200, deadline=None)
@given(p=model_params())
def test_comp_alone_non_decreasing_then_capped(p):
    model = ScalarOracle(p)
    values = [model.comp_alone(n) for n in range(0, p.n_seq_max + 1)]
    for a, b in zip(values, values[1:]):
        assert b >= a - max(p.delta_l, p.delta_r) - 1e-9


@st.composite
def identifiable_model_params(draw):
    """Parameter sets whose knees are observable in their own curves.

    Constructed (not filtered) to satisfy the identifiability
    conditions: the computation-alone curve rises up to ``n_seq_max``,
    the bus saturates by ``n_seq_max``, and the total stays above the
    communication floor across the measured grid.
    """
    b_comp = draw(st.floats(1.0, 8.0))
    b_comm = draw(st.floats(4.0, 25.0))
    alpha = draw(st.floats(0.05, 1.0))
    n_seq = draw(st.integers(2, 20))
    max_cores = n_seq + 5
    t_seq = (n_seq - 1 + draw(st.floats(0.2, 1.0))) * b_comp
    # Saturation by n_seq_max, alone-curve still rising at n_seq_max,
    # and the guaranteed communication share observable within the
    # total (alpha * b_comm must fit under T(n_seq_max)).
    lo = max((n_seq - 1) * b_comp, alpha * b_comm) + 0.1
    hi = n_seq * b_comp + alpha * b_comm
    t_par2 = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    n_par = draw(st.integers(1, n_seq))
    delta_l = draw(st.floats(0.0, 3.0)) if n_seq > n_par else 0.0
    t_par = t_par2 + delta_l * (n_seq - n_par)
    # Keep the total above the communication floor over the whole grid.
    dr_bound = max(0.0, (t_par2 - alpha * b_comm - 0.6) / (max_cores - n_seq))
    delta_r = draw(st.floats(0.0, 1.0)) * min(dr_bound, 2.0)
    return ModelParameters(
        n_par_max=n_par,
        t_par_max=t_par,
        n_seq_max=n_seq,
        t_seq_max=t_seq,
        t_par_max2=t_par2,
        delta_l=delta_l,
        delta_r=delta_r,
        b_comp_seq=b_comp,
        b_comm_seq=b_comm,
        alpha=alpha,
    )


@settings(max_examples=100, deadline=None)
@given(p=identifiable_model_params())
def test_calibration_roundtrip_property(p):
    """Curves generated from an identifiable model re-calibrate to a
    model that reproduces the saturated-regime communication curve."""
    max_cores = p.n_seq_max + 5
    curves = synthetic_curves(p, max_cores=max_cores)
    fitted = calibrate(curves)
    original = ScalarOracle(p)
    refit = ScalarOracle(fitted)
    assert fitted.b_comm_seq == p.b_comm_seq
    for n in range(p.n_seq_max, p.n_seq_max + 5):
        assert (
            abs(refit.comm_parallel(n) - original.comm_parallel(n))
            < 1e-6 + 0.05 * p.b_comm_seq
        )
