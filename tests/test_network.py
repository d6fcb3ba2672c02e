"""Tests for network construction, validation, and serialization."""

import numpy as np
import pytest

from modeconv.errors import DuplicateLabelError, NegativeDampingError, NoPortsError, NotHermitianError
from modeconv.network import network_from_dict, network_from_json, network_to_json, new_network


def simple_net():
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    return new_network(("a", "c", "b"), a, (2.0, 0.0, 2.0))


def test_basic_construction():
    net = simple_net()
    assert net.n_modes == 3
    assert net.labels == ("a", "c", "b")
    assert net.ports() == [0, 2]
    assert net.port_labels() == ["a", "b"]
    assert net.index_of("c") == 1


def test_unknown_label_rejected():
    with pytest.raises(ValueError):
        simple_net().index_of("z")


def test_duplicate_labels_rejected():
    with pytest.raises(DuplicateLabelError):
        new_network(("a", "a"), np.zeros((2, 2)), (1.0, 1.0))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        new_network(("a", "b"), np.zeros((3, 3)), (1.0, 1.0))
    with pytest.raises(ValueError):
        new_network(("a", "b"), np.zeros((2, 2)), (1.0, 1.0, 1.0))


def test_negative_damping_rejected():
    with pytest.raises(NegativeDampingError):
        new_network(("a",), np.zeros((1, 1)), (-0.5,))


def test_non_hermitian_rejected_but_roundoff_symmetrized():
    with pytest.raises(NotHermitianError):
        new_network(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]), (1.0, 1.0))
    # asymmetry at rounding level is folded back to exactly Hermitian
    eps = 1e-15
    net = new_network(("a", "b"), np.array([[0.0, 1.0 + eps], [1.0, 0.0]]), (1.0, 1.0))
    assert np.array_equal(net.coupling, net.coupling.conj().T)


def test_arrays_are_read_only():
    net = simple_net()
    with pytest.raises(ValueError):
        net.coupling[0, 0] = 5.0
    with pytest.raises(ValueError):
        net.damping[0] = 5.0


def test_ports_follow_label_order():
    a = np.zeros((4, 4))
    net = new_network(("p", "q", "r", "s"), a, (0.0, 3.0, 0.0, 1.0))
    assert net.port_labels() == ["q", "s"]


def test_json_round_trip_exact():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = raw + raw.conj().T
    net = new_network(("w", "x", "y", "z"), a, (1.5, 0.0, 0.25, 0.0))
    back = network_from_json(network_to_json(net))
    assert back.labels == net.labels
    assert np.array_equal(back.coupling, net.coupling)
    assert np.array_equal(back.damping, net.damping)


def test_from_dict_rejects_malformed_documents():
    good = {
        "labels": ["a", "b"],
        "coupling_re": [[0.0, 1.0], [1.0, 0.0]],
        "coupling_im": [[0.0, 0.0], [0.0, 0.0]],
        "damping": [1.0, 1.0],
    }
    assert network_from_dict(good).n_modes == 2
    for key in good:
        broken = {k: v for k, v in good.items() if k != key}
        with pytest.raises((KeyError, ValueError)):
            network_from_dict(broken)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_coupling_rejected(bad):
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    a[0, 0] = bad
    with pytest.raises(ValueError, match="coupling must be finite"):
        new_network(("a", "b"), a, (1.0, 1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_damping_rejected(bad):
    # A NaN rate would silently stop being a port and an infinite one become one.
    with pytest.raises(ValueError, match="damping must be finite"):
        new_network(("a", "b"), np.zeros((2, 2)), (1.0, bad))


class TestPortPair:
    @pytest.mark.parametrize(
        "damping, pair",
        [((0.0, 0.0, 2.0), ("b", "b")), ((2.0, 0.0, 2.0), ("a", "b")), ((2.0, 1.0, 2.0), ("a", "b"))],
        ids=["one_port", "two_ports", "three_ports"],
    )
    def test_defaults_are_the_first_and_last_port(self, damping, pair):
        a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        net = new_network(("a", "c", "b"), a, damping)
        assert net.port_pair() == pair
        assert net.port_pair(in_port="b") == ("b", pair[1])
        assert net.port_pair(out_port="b") == (pair[0], "b")

    def test_given_ports_are_kept(self):
        a = np.zeros((3, 3))
        net = new_network(("a", "c", "b"), a, (2.0, 1.0, 2.0))
        assert net.port_pair("c", "a") == ("c", "a")
        assert net.port_pair("c") == ("c", "b")

    def test_no_damped_mode_has_no_pair(self):
        net = new_network(("x", "y"), np.zeros((2, 2)), (0.0, 0.0))
        with pytest.raises(NoPortsError):
            net.port_pair()
        with pytest.raises(NoPortsError):
            net.port_pair("x", "y")

    @pytest.mark.parametrize("label", ["c", "z"], ids=["undamped", "unknown"])
    def test_a_label_that_is_not_a_port_is_named(self, label):
        net = simple_net()
        named = rf"'{label}' is not a damped mode; ports are \['a', 'b'\]"
        with pytest.raises(ValueError, match="in_port " + named):
            net.port_pair(label, "b")
        with pytest.raises(ValueError, match="out_port " + named):
            net.port_pair(out_port=label)
