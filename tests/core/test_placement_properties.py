"""Property-based tests on the placement model (equations 6 and 7)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PlacementModel, ScalarOracle
from tests.core.test_model_properties import model_params


@st.composite
def placement_setup(draw):
    local = draw(model_params())
    remote = draw(model_params())
    nodes_per_socket = draw(st.integers(1, 4))
    n_numa = 2 * nodes_per_socket
    model = PlacementModel(
        local,
        remote,
        nodes_per_socket=nodes_per_socket,
        n_numa_nodes=n_numa,
    )
    n = draw(st.integers(0, 40))
    m_comp = draw(st.integers(0, n_numa - 1))
    m_comm = draw(st.integers(0, n_numa - 1))
    return model, local, remote, n, m_comp, m_comm


@settings(max_examples=150, deadline=None)
@given(setup=placement_setup())
def test_eq6_case_coverage(setup):
    """Every placement maps to exactly one of equation 6's three cases,
    and the returned value equals that case's instantiation."""
    model, local, remote, n, m_comp, m_comm = setup
    value = model.comm_parallel(n, m_comp, m_comm)
    if model.is_remote(m_comp) and m_comp == m_comm:
        assert value == ScalarOracle(remote).comm_parallel(n)
    elif model.is_remote(m_comm):
        substituted = ScalarOracle(
            local.with_comm_nominal(remote.b_comm_seq)
        )
        assert value == substituted.comm_parallel(n)
    else:
        assert value == ScalarOracle(local).comm_parallel(n)


@settings(max_examples=150, deadline=None)
@given(setup=placement_setup())
def test_eq7_case_coverage(setup):
    model, local, remote, n, m_comp, m_comm = setup
    value = model.comp_parallel(n, m_comp, m_comm)
    instantiation = ScalarOracle(remote if model.is_remote(m_comp) else local)
    if m_comp == m_comm:
        assert value == instantiation.comp_parallel(n)
    else:
        assert value == instantiation.comp_alone(n)


@settings(max_examples=150, deadline=None)
@given(setup=placement_setup())
def test_placement_outputs_bounded(setup):
    """Whatever the placement, predictions stay within physical bounds."""
    model, local, remote, n, m_comp, m_comm = setup
    comm = model.comm_parallel(n, m_comp, m_comm)
    comp = model.comp_parallel(n, m_comp, m_comm)
    max_nominal = max(local.b_comm_seq, remote.b_comm_seq)
    assert -1e-9 <= comm <= max_nominal + 1e-9
    assert comp >= -1e-9
    alone = model.comp_alone(n, m_comp)
    relevant = remote if model.is_remote(m_comp) else local
    assert alone <= relevant.t_seq_max + 1e-9


@settings(max_examples=100, deadline=None)
@given(setup=placement_setup())
def test_node_symmetry_within_socket(setup):
    """Nodes of the same socket are interchangeable for same-node
    placements — the machine symmetry the paper exploits."""
    model, local, remote, n, _, _ = setup
    k = model.nodes_per_socket
    if k >= 2:
        assert model.comm_parallel(n, 0, 0) == model.comm_parallel(n, 1, 1)
        assert model.comp_parallel(n, k, k) == model.comp_parallel(
            n, k + 1, k + 1
        )


@settings(max_examples=100, deadline=None)
@given(setup=placement_setup())
def test_disjoint_comp_independent_of_comm_node(setup):
    """Equation 7: with disjoint nodes, the computation prediction does
    not depend on where the communication data sits."""
    model, local, remote, n, m_comp, _ = setup
    others = [
        m for m in range(2 * model.nodes_per_socket) if m != m_comp
    ]
    values = {model.comp_parallel(n, m_comp, m) for m in others}
    assert len(values) <= 1
