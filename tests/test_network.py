"""Tests for network construction, validation, and serialization."""

import re

import numpy as np
import pytest

from modeconv.errors import (
    DuplicateLabelError,
    ModeconvError,
    NegativeDampingError,
    NoPortsError,
    NotHermitianError,
)
from modeconv.converter import ConverterFamily, DetunedParams, detuned_network
from modeconv.network import network_from_dict, network_from_json, network_to_json, new_network, validated_stack


def simple_net():
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    return new_network(("a", "c", "b"), a, (2.0, 0.0, 2.0))


def test_basic_construction():
    net = simple_net()
    assert net.n_modes == 3
    assert net.labels == ("a", "c", "b")
    assert net.ports() == [0, 2]
    assert net.port_labels() == ["a", "b"]


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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("labels", "ab", "labels must be a list of strings, got 'ab'"),
        ("labels", "opt", "labels must be a list of strings, got 'opt'"),
        ("labels", ["a", 2], "labels must be a list of strings, got ['a', 2]"),
        ("coupling_re", [[0.0, "0"], [1.0, 0.0]], "coupling_re entry must be a number, got '0'"),
        ("coupling_im", [[0.0, 0.0], [True, 0.0]], "coupling_im entry must be a number, got True"),
        ("damping", [1.0, "1"], "damping entry must be a number, got '1'"),
        ("damping", [1.0, True], "damping entry must be a number, got True"),
        ("damping", None, "damping entry must be a number, got None"),
        ("damping", [[1.0], 1.0], "damping must be a rectangular list of numbers, got [[1.0], 1.0]"),
        ("coupling_re", [[0, 1], [1]], "coupling_re must be a rectangular list of numbers, got [[0, 1], [1]]"),
        ("coupling_im", [[0.0] * 3] * 3, "coupling_re shape (2, 2) does not match coupling_im shape (3, 3)"),
    ],
)
def test_from_dict_takes_numbers_and_label_lists_only(field, value, message):
    doc = {
        "labels": ["a", "b"],
        "coupling_re": [[0.0, 1.0], [1.0, 0.0]],
        "coupling_im": [[0.0, 0.0], [0.0, 0.0]],
        "damping": [1.0, 1.0],
    }
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        network_from_dict({**doc, field: value})


def test_from_dict_accepts_integers():
    doc = {"labels": ["a", "b"], "coupling_re": [[0, 1], [1, 0]], "coupling_im": [[0, 0], [0, 0]], "damping": [1, 2]}
    net = network_from_dict(doc)
    floats = new_network(("a", "b"), [[0.0, 1.0], [1.0, 0.0]], [1.0, 2.0])
    assert net.labels == floats.labels
    assert net.coupling.tobytes() == floats.coupling.tobytes() and net.damping.tobytes() == floats.damping.tobytes()


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


def chain_stack(m):
    """m copies of the three-mode chain's coupling and damping, as stacks; a member is one of each."""
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], dtype=complex)
    return np.repeat(a[None], m, axis=0), np.tile([2.0, 0.0, 2.0], (m, 1))


def spoil_nan_coupling(coupling, damping):
    coupling[1, 1] = np.nan


def spoil_hermiticity(coupling, damping):
    coupling[0, 1] = 2.0


def spoil_negative_damping(coupling, damping):
    damping[2] = -0.5


def spoil_nan_damping(coupling, damping):
    damping[0] = np.nan


SPOILERS = [spoil_nan_coupling, spoil_hermiticity, spoil_negative_damping, spoil_nan_damping]
# The members share one coupling, so a coupling error names no member.
COUPLING_SPOILERS = (spoil_nan_coupling, spoil_hermiticity)


class TestNewNetworks:
    """Members sharing one coupling: the checks of ``validated_stack`` and the networks of ``ConverterFamily.members``."""

    @pytest.mark.parametrize("spoil", SPOILERS)
    def test_a_stack_of_one_raises_new_networks_exact_error(self, spoil):
        coupling, damping = chain_stack(1)
        spoil(coupling[0], damping[0])
        with pytest.raises((ValueError, ModeconvError)) as single:
            new_network(("a", "c", "b"), coupling[0], damping[0])
        with pytest.raises((ValueError, ModeconvError)) as stacked:
            validated_stack(("a", "c", "b"), coupling[0], damping)
        assert type(stacked.value) is type(single.value)
        assert str(stacked.value) == str(single.value)

    def test_a_stack_of_one_raises_new_networks_exact_shape_errors(self):
        for coupling, damping in [(np.zeros((3, 3)), (1.0, 1.0)), (np.zeros((2, 2)), (1.0, 1.0, 1.0))]:
            with pytest.raises(ValueError) as single:
                new_network(("a", "b"), coupling, damping)
            with pytest.raises(ValueError) as stacked:
                validated_stack(("a", "b"), coupling, [damping])
            assert str(stacked.value) == str(single.value)

    @pytest.mark.parametrize("spoil", SPOILERS)
    def test_a_longer_stack_names_its_first_bad_member(self, spoil):
        coupling, damping = chain_stack(5)
        for i in (1, 3):
            spoil(coupling[i], damping[i])
        with pytest.raises((ValueError, ModeconvError)) as single:
            new_network(("a", "c", "b"), coupling[1], damping[1])
        with pytest.raises((ValueError, ModeconvError)) as stacked:
            validated_stack(("a", "c", "b"), coupling[1], damping)
        assert type(stacked.value) is type(single.value)
        member = "" if spoil in COUPLING_SPOILERS else "member 1: "
        assert str(stacked.value) == member + str(single.value)

    def test_a_longer_stack_with_the_wrong_shape(self):
        coupling, damping = chain_stack(4)
        with pytest.raises(ValueError, match=r"^coupling shape \(3, 3\) does not match 2 labels$"):
            validated_stack(("a", "b"), coupling[0], damping[:, :2])
        with pytest.raises(ValueError, match=r"^member 0: damping shape \(2,\) does not match 3 labels$"):
            validated_stack(("a", "c", "b"), coupling[0], damping[:, :2])
        # One coupling serves every member: a stack of them is a shape error.
        with pytest.raises(ValueError, match=r"^coupling shape \(4, 3, 3\) does not match 3 labels$"):
            validated_stack(("a", "c", "b"), coupling, damping)

    def test_members_are_read_only_views_of_one_symmetrized_stack(self):
        coupling, damping = chain_stack(3)
        coupling[0, 0, 1] += 1e-15  # rounding-level asymmetry
        damping[:, 0] += np.arange(3)
        labels, symmetrized, dampings = validated_stack(("a", "c", "b"), coupling[0], damping)
        assert not symmetrized.flags.writeable and not dampings.flags.writeable
        assert np.array_equal(symmetrized, symmetrized.conj().T)
        for i in range(3):
            single = new_network(("a", "c", "b"), coupling[0], damping[i])
            assert labels == single.labels
            assert symmetrized.tobytes() == single.coupling.tobytes()
            assert dampings[i].tobytes() == single.damping.tobytes()
        kappas = [0.5, 1.0, 2.0]
        family = ConverterFamily("detuned", g=0.8, delta_mu=3.0)
        nets = family.members(kappas)
        for kappa, net in zip(kappas, nets):
            single = detuned_network(DetunedParams(0.8, 0.8, kappa, kappa, 3.0))
            assert net.labels == single.labels
            assert net.coupling.tobytes() == single.coupling.tobytes()
            assert net.damping.tobytes() == single.damping.tobytes()
            assert not net.coupling.flags.writeable and not net.damping.flags.writeable
            assert net.coupling.base is nets[0].coupling.base is not None
            assert net.damping.base is nets[0].damping.base is not None
        _, couplings, _ = family.stack(kappas)
        assert couplings.shape == (3, 3, 3) and couplings.strides[0] == 0 and not couplings.flags.writeable
        labels, symmetrized, dampings = validated_stack(("a",), np.zeros((1, 1)), np.zeros((0, 1)))
        assert labels == ("a",) and symmetrized.shape == (1, 1) and dampings.shape == (0, 1)
        assert family.members([]) == []
        assert family.stack([])[1].shape == (0, 3, 3)
