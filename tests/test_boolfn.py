"""Unit tests for truth tables, the synaptic gates they define, and the table text format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfnn import (
    BooleanFunction,
    BooleanStep,
    NetworkSpec,
    ParseError,
    boolean_network_for,
    format_truth_table,
    local_map,
    parse_truth_table,
)
from qfnn.network import _run_steps

XOR = BooleanFunction.from_output_strings(["0", "1", "1", "0"])


def random_function(m, n, rng):
    return BooleanFunction(m, n, tuple(int(v) for v in rng.integers(0, 2**n, size=2**m)))


class TestBooleanFunction:
    def test_basic_lookup(self):
        g = BooleanFunction(2, 1, (0, 1, 1, 0))
        assert [g.value(s) for s in range(4)] == [0, 1, 1, 0]
        assert g.value_bits("10") == "1"

    def test_from_output_strings(self):
        g = BooleanFunction.from_output_strings(["01", "10"])
        assert (g.m, g.n) == (1, 2)
        assert g.value_bits("0") == "01"
        assert g.value_bits("1") == "10"

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="at least 1"):
            BooleanFunction(0, 1, ())
        with pytest.raises(ValueError, match="outputs"):
            BooleanFunction(2, 1, (0, 1))
        with pytest.raises(ValueError, match="fit in"):
            BooleanFunction(1, 1, (0, 2))
        with pytest.raises(ValueError, match="power of two"):
            BooleanFunction.from_output_strings(["0", "1", "1"])

    def test_out_of_range_outputs_name_the_first_offending_input(self):
        for outputs, n, culprit in (
            ((0, 1, 4, 9), 2, "output 4 for input 2 "),
            ((0, -1, 3, 0), 2, "output -1 for input 1 "),
            ((2**70, 0), 70, "output 1180591620717411303424 for input 0 "),
        ):
            with pytest.raises(ValueError, match=f"^{culprit}does not fit in {n} bits$"):
                BooleanFunction(len(outputs).bit_length() - 1, n, outputs)
        assert BooleanFunction(1, 71, (2**70, 2**71 - 1)).outputs == (2**70, 2**71 - 1)

    def test_value_range_checked(self):
        g = BooleanFunction(1, 1, (0, 1))
        with pytest.raises(ValueError, match="out of range"):
            g.value(2)
        with pytest.raises(ValueError, match="input string"):
            g.value_bits("00")


class TestLocalMap:
    def test_components_of_the_spread_map(self):
        """g(0)=01, g(1)=10: first output bit copies, second inverts."""
        g = BooleanFunction.from_output_strings(["01", "10"])
        assert local_map(g, 1, "0") == 0
        assert local_map(g, 1, "1") == 1
        assert local_map(g, 2, "0") == 1
        assert local_map(g, 2, "1") == 0

    def test_component_index_is_one_based(self):
        g = BooleanFunction.from_output_strings(["01", "10"])
        with pytest.raises(ValueError, match="out of range"):
            local_map(g, 0, "0")
        with pytest.raises(ValueError, match="out of range"):
            local_map(g, 3, "0")


def run(net, amps):
    """Full-form rows ``amps`` pushed through every step of ``net`` by the network's runner."""
    n = net.n_neurons
    idx, out = _run_steps(np.arange(2**n), np.asarray(amps, dtype=complex).reshape(-1, 2**n), net)
    assert len(idx) == 2**n
    return out


@st.composite
def wired_functions(draw):
    """A random table on a shuffled wiring of m + n + 0..2 spectator neurons."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    outputs = draw(st.lists(st.integers(0, 2**n - 1), min_size=2**m, max_size=2**m))
    total = m + n + draw(st.integers(0, 2))
    wiring = draw(st.permutations(range(1, total + 1)))
    return BooleanFunction(m, n, tuple(outputs)), total, tuple(wiring), draw(st.integers(0, 2**32 - 1))


class TestSynapticCompile:
    def test_matrix_is_a_permutation_and_involution(self):
        rng = np.random.default_rng(32)
        functions = [BooleanFunction(2, 1, ((c >> 3) & 1, (c >> 2) & 1, (c >> 1) & 1, c & 1)) for c in range(16)]
        functions += [random_function(3, 3, rng) for _ in range(10)]
        for g in functions:
            mat = g.to_matrix()
            assert np.all(mat.sum(axis=0) == 1.0)
            assert np.all(mat.sum(axis=1) == 1.0)
            assert np.all((mat == 0.0) | (mat == 1.0))
            np.testing.assert_array_equal(mat @ mat, np.eye(mat.shape[0]))

    def test_zero_target_register_reads_off_the_table(self):
        rng = np.random.default_rng(33)
        g = random_function(2, 2, rng)
        mat = g.to_matrix()
        for s in range(4):
            column = mat[:, s << 2]
            assert column[(s << 2) | g.value(s)] == 1.0

    def test_control_bits_never_change(self):
        rng = np.random.default_rng(34)
        g = random_function(3, 2, rng)
        mat = g.to_matrix()
        src, dst = np.nonzero(mat.T)
        np.testing.assert_array_equal(src >> 2, dst >> 2)

    @settings(max_examples=60)
    @given(wired_functions())
    def test_matrix_is_what_the_runner_applies(self, case):
        """S_g on any wiring: the runner equals the matrix with the wires moved to the front."""
        g, total, wiring, seed = case
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=(3, 2**total)) + 1j * rng.normal(size=(3, 2**total))
        step = BooleanStep(g, wiring[: g.m], wiring[g.m : g.m + g.n])
        got = run(NetworkSpec((total,), (step,)), amps)
        # Gate order: controls, targets, then spectators; axis 0 is the row.
        order = [0, *wiring]
        moved = amps.reshape((3,) + (2,) * total).transpose(order).reshape(3, -1)
        mat = np.kron(g.to_matrix(), np.eye(2 ** (total - g.m - g.n)))
        want = (moved @ mat.T).reshape((3,) + (2,) * total).transpose(np.argsort(order))
        np.testing.assert_allclose(got, want.reshape(3, -1), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(mat @ mat, np.eye(2**total))
        twice = run(NetworkSpec((total,), (step, step)), amps)
        np.testing.assert_allclose(twice, amps, rtol=0, atol=1e-12)
        # The canonical two-layer net is the unshuffled wiring without spectators.
        direct = amps[:, : 2 ** (g.m + g.n)]
        got = run(boolean_network_for(g), direct)
        np.testing.assert_allclose(got, direct @ g.to_matrix().T, rtol=0, atol=1e-12)


class TestApplySynaptic:
    """Synaptic steps as the network runner applies them."""

    def test_conditional_flip_entangles_the_mirror_pair(self):
        """(a|0> + b|1>)|0> becomes a|00> + b|11> under the mirror table."""
        g = BooleanFunction.from_output_strings(["0", "1"])
        a, b = 0.6, 0.8
        out = run(boolean_network_for(g), [a, 0.0, b, 0.0])
        np.testing.assert_allclose(out[0], [a, 0.0, 0.0, b], atol=1e-15)

    def test_double_application_restores_state(self):
        rng = np.random.default_rng(35)
        step = BooleanStep(random_function(2, 2, rng), (1, 2), (3, 4))
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        once = run(NetworkSpec((2, 2), (step,)), amps)
        twice = run(NetworkSpec((2, 2), (step,)), once)
        np.testing.assert_allclose(twice[0], amps, atol=1e-12)

    def test_contiguous_wiring_matches_dense_matrix(self):
        rng = np.random.default_rng(36)
        g = random_function(2, 1, rng)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        out = run(NetworkSpec((2, 1), (BooleanStep(g, (1, 2), (3,)),)), amps)
        np.testing.assert_allclose(out[0], g.to_matrix() @ amps, atol=1e-13)

    def test_scrambled_wiring_matches_bit_oracle(self):
        """Non-contiguous controls/targets agree with a per-index Python oracle."""
        rng = np.random.default_rng(37)
        g = random_function(2, 1, rng)
        controls, targets, n = (4, 1), (2,), 4
        # Row k of the identity is basis state k; the runner sends it to its image.
        images = run(NetworkSpec((n,), (BooleanStep(g, controls, targets),)), np.eye(16))
        for k in range(16):
            s = 0
            for j, q in enumerate(controls):
                s |= ((k >> (n - q)) & 1) << (g.m - 1 - j)
            image = k
            for l, q in enumerate(targets):
                bit = (g.value(s) >> (g.n - 1 - l)) & 1
                image ^= bit << (n - q)
            expected = np.zeros(16)
            expected[image] = 1.0
            np.testing.assert_array_equal(images[k], expected)

    def test_wiring_validation(self):
        copy = BooleanFunction.from_output_strings(["0", "1"])
        big = BooleanFunction.from_output_strings(["00", "11"])
        for step, message in (
            (BooleanStep(copy, (1,), (1,)), r"^step 1: controls and targets overlap on \[1\]$"),
            (BooleanStep(copy, (1,), (4,)), r"^step 1: neuron index 4 out of range 1\.\.3$"),
            (BooleanStep(big, (1,), (2, 2)), r"^step 1: duplicate target indices: \[2, 2\]$"),
            (BooleanStep(XOR, (2, 2), (3,)), r"^step 1: duplicate control indices: \[2, 2\]$"),
        ):
            with pytest.raises(ValueError, match=message):
                NetworkSpec((3,), (step,))
        with pytest.raises(ValueError, match=r"^step controls \[1, 2\] do not match arity m=1$"):
            BooleanStep(copy, (1, 2), (3,))
        with pytest.raises(ValueError, match=r"^step targets \[2, 3\] do not match arity n=1$"):
            BooleanStep(copy, (1,), (2, 3))


class TestTruthTableText:
    def test_round_trip(self):
        g = BooleanFunction(2, 2, (0, 3, 1, 2))
        assert parse_truth_table(format_truth_table(g)) == g

    @settings(max_examples=100)
    @given(st.integers(1, 6), st.integers(1, 5), st.data())
    def test_round_trip_of_generated_tables(self, m, n, data):
        table = data.draw(st.lists(st.integers(0, 2**n - 1), min_size=2**m, max_size=2**m))
        g = BooleanFunction(m, n, table)
        assert parse_truth_table(format_truth_table(g)) == g

    def test_comments_and_blank_lines_ignored(self):
        text = """
        # exclusive OR
        00 -> 0
        01 -> 1   # fires
        10 -> 1
        11 -> 0
        """
        g = parse_truth_table(text)
        assert g.outputs == (0, 1, 1, 0)

    def test_missing_arrow_names_the_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_truth_table("0 -> 1\n1 = 0\n")

    def test_out_of_order_rows_rejected(self):
        with pytest.raises(ParseError, match="ascending"):
            parse_truth_table("1 -> 0\n0 -> 1\n")

    def test_wrong_row_count_rejected(self):
        with pytest.raises(ParseError, match="expected 4 rows"):
            parse_truth_table("00 -> 0\n01 -> 1\n")

    def test_non_binary_fields_rejected(self):
        with pytest.raises(ParseError, match="binary"):
            parse_truth_table("0 -> 2\n1 -> 0\n")

    def test_inconsistent_widths_rejected(self):
        with pytest.raises(ParseError, match="width"):
            parse_truth_table("0 -> 0\n1 -> 00\n")

    def test_empty_table_rejected(self):
        with pytest.raises(ParseError, match="empty"):
            parse_truth_table("# nothing here\n")

    def test_parse_error_is_a_value_error(self):
        assert issubclass(ParseError, ValueError)
