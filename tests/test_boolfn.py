"""Unit tests for truth tables, synaptic gates, and the table text format."""

import numpy as np
import pytest

from qfnn import (
    BooleanFunction,
    ParseError,
    StateVector,
    SynapticGate,
    apply_synaptic,
    basis_state,
    compile_synaptic,
    format_truth_table,
    local_map,
    parse_truth_table,
    synaptic_permutation,
    truth_table_of,
)


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


class TestSynapticCompile:
    def test_masks_are_the_outputs(self):
        g = BooleanFunction(2, 2, (0, 3, 1, 2))
        gate = compile_synaptic(g)
        assert gate.flip_masks == g.outputs

    def test_round_trip_preserves_tables(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            g = random_function(m, n, rng)
            assert truth_table_of(compile_synaptic(g)) == g

    def test_matrix_is_a_permutation_and_involution(self):
        rng = np.random.default_rng(32)
        functions = [BooleanFunction(2, 1, ((c >> 3) & 1, (c >> 2) & 1, (c >> 1) & 1, c & 1)) for c in range(16)]
        functions += [random_function(3, 3, rng) for _ in range(10)]
        for g in functions:
            mat = compile_synaptic(g).to_matrix()
            assert np.all(mat.sum(axis=0) == 1.0)
            assert np.all(mat.sum(axis=1) == 1.0)
            assert np.all((mat == 0.0) | (mat == 1.0))
            np.testing.assert_array_equal(mat @ mat, np.eye(mat.shape[0]))

    def test_zero_target_register_reads_off_the_table(self):
        rng = np.random.default_rng(33)
        g = random_function(2, 2, rng)
        mat = compile_synaptic(g).to_matrix()
        for s in range(4):
            column = mat[:, s << 2]
            assert column[(s << 2) | g.value(s)] == 1.0

    def test_control_bits_never_change(self):
        rng = np.random.default_rng(34)
        g = random_function(3, 2, rng)
        mat = compile_synaptic(g).to_matrix()
        src, dst = np.nonzero(mat.T)
        np.testing.assert_array_equal(src >> 2, dst >> 2)

    def test_gate_validation(self):
        with pytest.raises(ValueError, match="masks"):
            SynapticGate(2, 1, (0, 1))
        with pytest.raises(ValueError, match="fit in"):
            SynapticGate(1, 1, (0, 2))


class TestApplySynaptic:
    def test_conditional_flip_entangles_the_mirror_pair(self):
        """(a|0> + b|1>)|0> becomes a|00> + b|11> under the mirror table."""
        g = BooleanFunction.from_output_strings(["0", "1"])
        gate = compile_synaptic(g)
        a, b = 0.6, 0.8
        state = StateVector(2, [a, 0.0, b, 0.0])
        out = apply_synaptic(state, gate, (1,), (2,))
        np.testing.assert_allclose(out.amps, [a, 0.0, 0.0, b], atol=1e-15)

    def test_double_application_restores_state(self):
        rng = np.random.default_rng(35)
        g = random_function(2, 2, rng)
        gate = compile_synaptic(g)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = StateVector(4, amps / np.linalg.norm(amps))
        once = apply_synaptic(state, gate, (1, 2), (3, 4))
        twice = apply_synaptic(once, gate, (1, 2), (3, 4))
        np.testing.assert_allclose(twice.amps, state.amps, atol=1e-12)

    def test_contiguous_wiring_matches_dense_matrix(self):
        rng = np.random.default_rng(36)
        g = random_function(2, 1, rng)
        gate = compile_synaptic(g)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = StateVector(3, amps / np.linalg.norm(amps))
        out = apply_synaptic(state, gate, (1, 2), (3,))
        np.testing.assert_allclose(out.amps, gate.to_matrix() @ state.amps, atol=1e-13)

    def test_scrambled_wiring_matches_bit_oracle(self):
        """Non-contiguous controls/targets agree with a per-index Python oracle."""
        rng = np.random.default_rng(37)
        g = random_function(2, 1, rng)
        gate = compile_synaptic(g)
        controls, targets, n = (4, 1), (2,), 4
        perm = synaptic_permutation(gate, controls, targets, n)
        for k in range(16):
            s = 0
            for j, q in enumerate(controls):
                s |= ((k >> (n - q)) & 1) << (gate.m - 1 - j)
            image = k
            for l, q in enumerate(targets):
                bit = (g.value(s) >> (gate.n - 1 - l)) & 1
                image ^= bit << (n - q)
            assert perm[k] == image

    def test_wiring_validation(self):
        g = compile_synaptic(BooleanFunction.from_output_strings(["0", "1"]))
        state = basis_state(3, "000")
        with pytest.raises(ValueError, match="overlap"):
            apply_synaptic(state, g, (1,), (1,))
        with pytest.raises(ValueError, match="control indices"):
            apply_synaptic(state, g, (1, 2), (3,))
        with pytest.raises(ValueError, match="out of range"):
            apply_synaptic(state, g, (1,), (4,))
        big = compile_synaptic(BooleanFunction.from_output_strings(["00", "11"]))
        with pytest.raises(ValueError, match="duplicate target"):
            apply_synaptic(state, big, (1,), (2, 2))


class TestTruthTableText:
    def test_round_trip(self):
        g = BooleanFunction(2, 2, (0, 3, 1, 2))
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
