"""Tests for the command-line front end: parsers, file formats, exit codes."""

import contextlib
import csv
import io
import math
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csv_oracle
from qfnn import (
    IDENTITY_PARAMS,
    ParseError,
    WavePacket,
    averaged_ensemble,
    branch_amplitudes,
    run_history,
)
from qfnn.analysis import MAX_SAMPLES, MAX_TIMES
from qfnn.environment import MAX_MODE_COMPONENT, _averaged_ensembles
from qfnn import network
from qfnn.network import _history
from qfnn.cli import (
    SCENARIOS,
    _build_parser,
    main,
    parse_angle,
    parse_float_list,
    parse_network_config,
    parse_phi,
)

MIRROR_NET = """\
# two neurons, output copies the input
layers = [1, 1]
inputs = [1]

[step]
kind = boolean
controls = [1]
targets = [2]
table = 0 -> 0, 1 -> 1
"""

HV_NET = """\
layers = [1, 2, 1]

[step]
kind = boolean
controls = [1]
targets = [2, 3]
table = 0 -> 01, 1 -> 10

[step]
kind = boolean
controls = [2, 3]
targets = [4]
table = 00 -> 0, 01 -> 0, 10 -> 1, 11 -> 0

[step]
kind = post_unitary
targets = [4]
gate = hadamard
"""

#: Config words, separators and hostile text that mutations splice into valid configs.
TOKENS = ["[step]", "kind", "boolean", "post_unitary", "controls", "targets", "table", "layers",
          "inputs", "gate", "hadamard", "not", "=", ":", ",", "->", "[", "]", "#", "\n", " ", "0",
          "1", "-1", "01", "10", "24", "99999999999999999999", "1e5", "nan", "é", "\x00", "\t", "\r"]


@st.composite
def mutated_configs(draw):
    """A valid config with one to four character-level or line-level mutations."""
    text = draw(st.sampled_from([MIRROR_NET, HV_NET, "layers = [2, 1]\n"]))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        piece = draw(st.sampled_from(TOKENS) | st.text(max_size=3))
        lines = text.splitlines(keepends=True) or [""]
        k = draw(st.integers(0, len(lines) - 1))
        text = draw(st.sampled_from([
            text[:i] + text[j:],
            text[:i] + piece + text[i:],
            text[:i] + piece + text[j:],
            "".join(lines[:k] + [lines[k]] + lines[k:]),
            "".join(lines[:k] + lines[k + 1 :] + [lines[k]]),
        ]))
    return text


MIRROR_FN = "0 -> 0\n1 -> 1\n"
NOT_FN = "0 -> 1\n1 -> 0\n"
UNIFORM_PACKET = "0 0 0 0 1 0\n"


def rows_of(text):
    return list(csv.reader(io.StringIO(text)))


class TestAngleParsing:
    def test_pi_tokens(self):
        assert parse_angle("0.5pi") == pytest.approx(math.pi / 2)
        assert parse_angle("pi") == pytest.approx(math.pi)
        assert parse_angle("-pi") == pytest.approx(-math.pi)
        assert parse_angle("2PI") == pytest.approx(2 * math.pi)

    def test_plain_radians(self):
        assert parse_angle("1.25") == 1.25
        assert parse_angle("-0.5") == -0.5

    def test_bad_tokens(self):
        for tok in ("", "pipi", "one", "1..2"):
            with pytest.raises(ParseError):
                parse_angle(tok)

    @pytest.mark.parametrize("phi, token", [("1_0,0,0,0", "1_0"), ("0,0,0,0.5_0pi", "0.5_0pi")])
    def test_digit_group_underscore_in_an_angle_is_one_error_line(self, phi, token, capsys):
        assert main(["scenario", "table2", "--phi", phi]) == 2
        assert capsys.readouterr() == ("", f"error: digit-group underscore in number {token!r}\n")

    @pytest.mark.parametrize("command", [["scenario", "table2"], ["run", "--net", "mirror.net"]])
    def test_an_angle_past_the_wrap_bound_is_one_error_line(self, command, tmp_path, monkeypatch, capsys):
        """Wrapping 1e20 by the rounded 2pi would leave an arbitrary phase."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mirror.net").write_text("layers = [1, 1]\n")
        assert main(command + ["--phi", "1e20,0,0,1"]) == 2
        assert capsys.readouterr() == (
            "", "error: phi0=1e+20 is past |phi0| <= 2^14 rad, where the wrap into [0, 2pi] keeps 1e-12 rad\n")

    @pytest.mark.parametrize("argv", [["scenario", "xor", "--seed", "1_0"],
                                      ["scenario", "xor", "--samples", "1_0"],
                                      ["average", "--net", "x.net", "--nmax", "1_0"]])
    def test_integer_flags_refuse_digit_group_underscores(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: invalid int value: '1_0'" in capsys.readouterr().err

    def test_parse_phi(self):
        phi = parse_phi("0,0,0,0.5pi")
        assert phi.phi3 == pytest.approx(math.pi / 2)
        with pytest.raises(ParseError, match="4 comma-separated"):
            parse_phi("1,2,3")

    def test_parse_float_list(self):
        assert parse_float_list("0,0.5,3.7") == (0.0, 0.5, 3.7)
        with pytest.raises(ParseError):
            parse_float_list("a,b")
        for text in ("0,,1", "0,1,", " ,1"):
            with pytest.raises(ParseError, match=re.escape(f"empty item in number list {text!r}")):
                parse_float_list(text)

    @pytest.mark.parametrize("times, message", [("a,b", "bad number list 'a,b'"),
                                                ("0,,1", "empty item in number list '0,,1'"),
                                                ("0,1_0", "digit-group underscore in number '1_0'")])
    @pytest.mark.parametrize("command", [["average"], ["scenario", "averaged-dynamics"]])
    def test_bad_time_list_is_one_error_line(self, tmp_path, capsys, command, times, message):
        """Like --phi: no usage text, and no empty item silently dropped."""
        net = tmp_path / "mirror.net"
        net.write_text(MIRROR_NET, encoding="utf-8")
        argv = command + (["--net", str(net)] if command == ["average"] else [])
        assert main(argv + ["--t", times]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestNetworkConfig:
    def test_parses_the_layered_example(self):
        net, inputs = parse_network_config(HV_NET)
        assert net.layers == (1, 2, 1)
        assert inputs == (1,)
        assert len(net.steps) == 3

    def test_inputs_default_to_first_layer(self):
        text = "layers = [2, 1]\n"
        net, inputs = parse_network_config(text)
        assert inputs == (1, 2)

    def test_colon_separator_accepted(self):
        text = (
            "layers: [1, 1]\n\n[step]\nkind: boolean\ncontrols: [1]\n"
            "targets: [2]\ntable: 0 -> 1, 1 -> 0\n"
        )
        net, _ = parse_network_config(text)
        assert net.steps[0].function.outputs == (1, 0)

    def test_missing_layers(self):
        with pytest.raises(ParseError, match="missing 'layers'"):
            parse_network_config("inputs = [1]\n")

    def test_unknown_key_names_the_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_network_config("layers = [1, 1]\nwidth = 3\n")

    @pytest.mark.parametrize("text, message", [
        ("layers = [1, 1]\ninputs = [1]\nlayers = [2]\n", "line 3: duplicate key 'layers'"),
        ("layers = [2, 1]\ninputs = [1]\ninputs = [2]\n", "line 3: duplicate key 'inputs'"),
        ("layers = [2, 1]\n[step]\nkind = post_unitary\ntargets = [3]\ncontrols = [1]\n"
         "gate = hadamard\n", "line 5: post_unitary step does not take 'controls'"),
        (MIRROR_NET + "gate = hadamard\n", "line 10: boolean step does not take 'gate'"),
        (MIRROR_NET.replace("targets = [2]", "targets = [2]\nweight = 3"),
         "line 9: boolean step does not take 'weight'"),
        ("layers = [3, 1]\n[step]\nkind = boolean\ncontrols = [1,,2]\ntargets = [4]\n"
         "table = 00 -> 0, 01 -> 1, 10 -> 1, 11 -> 0\n", "line 4: empty item in integer list '[1,,2]'"),
        ("layers = [1, 1,]\n", "line 1: empty item in integer list '[1, 1,]'"),
        ("layers = [1_0]\n", "line 1: digit-group underscore in number '1_0'"),
        (MIRROR_NET.replace("targets = [2]", "targets = [0_2]"),
         "line 8: digit-group underscore in number '0_2'"),
        (MIRROR_NET.replace("1 -> 1", "1 -> 2"),
         "line 9: in inline table: line 2: output '2' is not a binary string"),
        (HV_NET.replace("gate = hadamard", "gate = magic"),
         "line 18: unknown gate 'magic'; choose from ['hadamard', 'identity', 'not']"),
        (MIRROR_NET.replace("controls = [1]", "controls = [1, 2]"),
         "line 5: step controls [1, 2] do not match arity m=1"),
    ], ids=["layers-twice", "inputs-twice", "controls-on-a-unitary", "gate-on-a-boolean",
            "unknown-step-key", "empty-list-item", "trailing-comma", "underscore-layer",
            "underscore-target", "table-names-its-line", "gate-names-its-line",
            "arity-names-the-block"])
    def test_malformed_config_is_refused_not_reinterpreted(self, text, message, tmp_path, capsys):
        """Each of these once ran, or named another line: the last key won, the extra key was
        dropped (an uncontrolled Hadamard for ``controls``), the empty item was skipped,
        ``1_0`` read as 10.  A value error names its key's line; arity spans keys, so the
        block's."""
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_network_config(text)
        net = tmp_path / "bad.net"
        net.write_text(text, encoding="utf-8")
        assert main(["run", "--net", str(net), "--phi", "0,0,0,pi"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_inline_table_skips_empty_entries(self):
        """Like blank lines in a truth-table file."""
        net, _ = parse_network_config(MIRROR_NET.replace("0 -> 0, 1 -> 1", "0 -> 0,, 1 -> 1,"))
        assert net.steps[0].function.outputs == (0, 1)

    def test_unknown_kind_names_the_step_line(self):
        text = "layers = [1, 1]\n\n[step]\nkind = magic\n"
        with pytest.raises(ParseError, match="unknown step kind"):
            parse_network_config(text)

    def test_out_of_range_target_is_a_parse_error(self):
        text = (
            "layers = [1, 1]\n\n[step]\nkind = boolean\ncontrols = [1]\n"
            "targets = [5]\ntable = 0 -> 0, 1 -> 1\n"
        )
        with pytest.raises(ParseError, match="out of range"):
            parse_network_config(text)

    @pytest.mark.parametrize(
        "inputs, message",
        [("[1, 1]", "duplicate input neurons: [1, 1]"), ("[3]", "input neuron 3 out of range 1..2")],
    )
    def test_input_neuron_errors_match_the_library(self, inputs, message):
        net, _ = parse_network_config(MIRROR_NET)
        message = re.escape(message)
        neurons = tuple(int(q) for q in inputs.strip("[]").split(","))
        with pytest.raises(ParseError, match=message):
            parse_network_config(MIRROR_NET.replace("inputs = [1]", f"inputs = {inputs}"))
        with pytest.raises(ValueError, match=message):
            run_history(net, [IDENTITY_PARAMS] * len(neurons), neurons)
        with pytest.raises(ValueError, match=message):
            averaged_ensemble(net, [WavePacket.uniform()] * len(neurons), input_neurons=neurons)

    @pytest.mark.parametrize("width", ["99999999999999999999", "4000000000", "40000000"])
    def test_huge_layer_exits_two_before_building_default_inputs(self, width, tmp_path, capsys):
        """A default input layer of that width would overflow, or fill memory, before the cap."""
        net = tmp_path / "t.net"
        net.write_text(f"layers = [{width}]\n", encoding="utf-8")
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code = main(["run", "--net", str(net), "--phi", "0,0,0,0"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: network needs {width} neurons, exceeding the cap of 24\n"
        assert elapsed < 1.0 and peak < 2**20, (elapsed, peak)

    def test_duplicate_step_key(self):
        text = "layers = [1, 1]\n\n[step]\nkind = boolean\nkind = boolean\n"
        with pytest.raises(ParseError, match="duplicate key"):
            parse_network_config(text)

    def test_bad_inline_table(self):
        text = (
            "layers = [1, 1]\n\n[step]\nkind = boolean\ncontrols = [1]\n"
            "targets = [2]\ntable = 0 -> 2, 1 -> 0\n"
        )
        with pytest.raises(ParseError, match="inline table"):
            parse_network_config(text)

    @settings(max_examples=300)
    @given(mutated_configs())
    def test_mutated_configs_fail_only_with_parse_errors(self, tmp_path_factory, text):
        """A malformed config gives ``ParseError``, and ``run`` exits 2 with one ``error:`` line."""
        try:
            parse_network_config(text)
        except ParseError:
            path = tmp_path_factory.mktemp("fuzz") / "mutated.net"
            path.write_text(text, encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["run", "--net", str(path), "--phi", "0,0,0,0"])
            assert code == 2
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


class TestScenarioCommand:
    def test_table2_passes_and_emits_csv(self, capsys):
        code = main(["scenario", "table2", "--phi", "0,0,0,0.5pi"])
        out = capsys.readouterr().out
        assert code == 0
        rows = rows_of(out)
        assert rows[0] == ["scenario", "assertion", "expected", "observed", "tolerance", "pass"]
        assert all(r[-1] == "true" for r in rows[1:])

    @pytest.mark.parametrize("name", ["table2", "table1"])
    def test_second_phi_exits_two_instead_of_being_dropped(self, name, capsys):
        code = main(["scenario", name, "--phi", "0,0,0,1", "--phi", "0,0,0,2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: scenario takes at most one --phi, got 2\n"
        assert captured.out == ""

    def test_xor_with_seed_and_samples(self, capsys):
        code = main(["scenario", "xor", "--samples", "5", "--seed", "11"])
        out = capsys.readouterr().out
        assert code == 0
        assert "xor[samples=5;seed=11]" in out

    @pytest.mark.parametrize("name", ["xor", "boolean-mn"])
    def test_samples_above_the_cap_exit_two_before_any_sample(self, name, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a sample ran")

        monkeypatch.setattr("qfnn.network._run_steps", forbidden)
        monkeypatch.setattr("qfnn.analysis._truth_probabilities", forbidden)
        code = main(["scenario", name, "--samples", "100000000000000000000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            f"error: samples must be at most {MAX_SAMPLES}, got 100000000000000000000\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("name", ["xor", "boolean-mn"])
    def test_a_negative_seed_exits_two_naming_the_flag(self, name, capsys):
        """numpy refused it with ``error: expected non-negative integer``, naming no flag."""
        assert main(["scenario", name, "--seed", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: seed must be a non-negative integer, got -1\n")

    def test_times_above_the_cap_exit_two_before_any_work(self, capsys, monkeypatch):
        """Every one of the 6T + 1 rows names all T times: 30,000 times, one ~200 KB argument,
        once built ~21 GB of CSV text in memory."""
        monkeypatch.setattr("qfnn.analysis._averaged_ensembles", lambda *a: pytest.fail("ran"))
        times = ",".join(f"{k * 1e-3:g}" for k in range(30_000))
        start = time.perf_counter()
        code = main(["scenario", "averaged-dynamics", "--t", times])
        elapsed = time.perf_counter() - start
        assert code == 2
        assert capsys.readouterr() == (
            "", f"error: number of times must be at most {MAX_TIMES}, got 30000\n"
        )
        assert elapsed < 1.0, elapsed

    def test_times_cap_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr("qfnn.analysis.MAX_TIMES", 3)
        assert main(["scenario", "averaged-dynamics", "--t", "0,0.5,3.7"]) == 0
        assert main(["scenario", "averaged-dynamics", "--t", "0,0.5,3.7,4"]) == 2
        assert capsys.readouterr().err == "error: number of times must be at most 3, got 4\n"

    def test_averaged_dynamics_with_times_and_grid(self, capsys):
        """Times are taken; the average is exact, so a --grid flag no longer exists."""
        code = main(["scenario", "averaged-dynamics", "--t", "0,0.5"])
        assert code == 0
        assert "averaged-dynamics[t=0;0.5]," in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "averaged-dynamics", "--t", "0,0.5", "--grid", "8"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --grid 8" in capsys.readouterr().err

    def test_out_flag_writes_the_file(self, tmp_path, capsys):
        path = tmp_path / "report.csv"
        code = main(["scenario", "table1", "--out", str(path)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert path.read_text(encoding="utf-8").startswith("scenario,")


class TestRunCommand:
    def test_mirror_history(self, tmp_path, capsys):
        net = tmp_path / "mirror.net"
        net.write_text(MIRROR_NET, encoding="utf-8")
        code = main(["run", "--net", str(net), "--phi", "0,0,0,pi"])
        out = capsys.readouterr().out
        assert code == 0
        rows = rows_of(out)
        assert rows[0] == ["branch", "re", "im"]
        branches = {r[0]: (float(r[1]), float(r[2])) for r in rows[1:]}
        assert set(branches) == {"00", "11"}
        assert branches["00"][0] == pytest.approx(math.cos(math.pi / 4), abs=1e-12)
        assert branches["11"][0] == pytest.approx(-math.sin(math.pi / 4), abs=1e-12)

    def test_csv_is_what_the_csv_module_writes(self, tmp_path, capsys):
        """The joined rows are byte for byte the csv.writer rendering."""
        text = (
            "layers = [2, 2]\n[step]\nkind = boolean\ncontrols = [1, 2]\ntargets = [3, 4]\n"
            "table = 00 -> 01, 01 -> 11, 10 -> 00, 11 -> 10\n"
            "[step]\nkind = post_unitary\ntargets = [3, 4]\ngate = hadamard\n"
        )
        net = tmp_path / "layered.net"
        net.write_text(text, encoding="utf-8")
        phis = ["0.3,1.1,-0.4,2.5", "1,2,3,0.5pi"]
        code = main(["run", "--net", str(net), *(f"--phi={p}" for p in phis)])
        out = capsys.readouterr().out
        assert code == 0
        net_spec, inputs = parse_network_config(text)
        state = run_history(net_spec, [parse_phi(p) for p in phis], inputs)
        rows = [
            [bits, f"{a.real:.12g}", f"{a.imag:.12g}"]
            for bits, a in branch_amplitudes(state, 1e-12)
        ]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["branch", "re", "im"])
        writer.writerows(rows)
        assert len(rows) == 16
        assert out == buf.getvalue()

    def test_phi_count_mismatch_is_a_config_error(self, tmp_path, capsys):
        net = tmp_path / "mirror.net"
        net.write_text(MIRROR_NET, encoding="utf-8")
        code = main(["run", "--net", str(net)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_phi3_out_of_range_exits_two(self, tmp_path, capsys):
        net = tmp_path / "mirror.net"
        net.write_text(MIRROR_NET, encoding="utf-8")
        code = main(["run", "--net", str(net), "--phi", "0,0,0,3pi"])
        err = capsys.readouterr().err
        assert code == 2
        assert "phi3 must lie in [0, 2pi]" in err

    def test_missing_net_file(self, capsys):
        code = main(["run", "--net", "no-such-file.net", "--phi", "0,0,0,0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "no-such-file.net" in err

    @pytest.mark.parametrize(
        "exc, reported",
        [(MemoryError("Unable to allocate 256. MiB"), "Unable to allocate 256. MiB"), (MemoryError(), "run")],
    )
    def test_out_of_memory_exits_two_without_a_traceback(
        self, tmp_path, capsys, monkeypatch, exc, reported
    ):
        def exhausted(*args):
            raise exc

        monkeypatch.setattr("qfnn.cli._history", exhausted)
        net = tmp_path / "mirror.net"
        net.write_text(MIRROR_NET, encoding="utf-8")
        code = main(["run", "--net", str(net), "--phi", "0,0,0,pi"])
        assert code == 2
        assert capsys.readouterr().err == f"error: out of memory: {reported}\n"

    def test_output_past_the_size_limit_exits_two_before_formatting(self, tmp_path, capsys):
        """A Hadamard on each of 22 neurons keeps all 2^22 branches: 113 MB of CSV or more.

        Every row takes N + 5 bytes or more, so full-support runs fit up to N = 21.
        """
        assert 2**21 * (21 + 5) <= 64 << 20 < 2**22 * (22 + 5)
        net, out = tmp_path / "spread.net", tmp_path / "spread.csv"
        targets = list(range(1, 23))
        net.write_text(f"layers = [1, 21]\n[step]\nkind = post_unitary\ntargets = {targets}\n"
                       "gate = hadamard\n", encoding="utf-8")
        start = time.perf_counter()
        code = main(["run", "--net", str(net), "--phi", "0,0,0,1", "--out", str(out)])
        elapsed = time.perf_counter() - start
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: run output of {2**22} branches needs at least {2**22 * 27} bytes of CSV; "
            f"the limit is {64 << 20}\n"
        )
        assert elapsed < 2.0, elapsed
        assert not out.exists()


class TestVerifyCommand:
    def test_matching_table_passes(self, tmp_path, capsys):
        net = tmp_path / "mirror.net"
        fn = tmp_path / "mirror.fn"
        net.write_text(MIRROR_NET, encoding="utf-8")
        fn.write_text(MIRROR_FN, encoding="utf-8")
        code = main(["verify", "--net", str(net), "--fn", str(fn)])
        out = capsys.readouterr().out
        assert code == 0
        rows = rows_of(out)
        assert rows[0] == ["input", "expected_output", "probability", "pass"]
        assert [r[-1] for r in rows[1:]] == ["true", "true"]

    def test_mismatched_table_fails_with_exit_one(self, tmp_path, capsys):
        net = tmp_path / "mirror.net"
        fn = tmp_path / "not.fn"
        net.write_text(MIRROR_NET, encoding="utf-8")
        fn.write_text(NOT_FN, encoding="utf-8")
        code = main(["verify", "--net", str(net), "--fn", str(fn)])
        out = capsys.readouterr().out
        assert code == 1
        assert any(r[-1] == "false" for r in rows_of(out)[1:])


class TestAverageCommand:
    def test_uniform_default_packet(self, tmp_path, capsys):
        net = tmp_path / "mirror.net"
        net.write_text(MIRROR_NET, encoding="utf-8")
        code = main(["average", "--net", str(net), "--t", "0,0.5"])
        out = capsys.readouterr().out
        assert code == 0
        rows = rows_of(out)
        assert rows[0][:4] == ["t", "trace", "purity", "entropy_bits"]
        assert rows[0][4:] == ["p_00", "p_01", "p_10", "p_11"]
        for row in rows[1:]:
            assert float(row[1]) == pytest.approx(1.0, abs=1e-9)
            assert float(row[4]) == pytest.approx(0.5, abs=1e-6)
            assert float(row[7]) == pytest.approx(0.5, abs=1e-6)

    def test_packet_file_and_nmax(self, tmp_path, capsys):
        net = tmp_path / "mirror.net"
        pk = tmp_path / "wide.pk"
        net.write_text(MIRROR_NET, encoding="utf-8")
        r = 1.0 / math.sqrt(2.0)
        pk.write_text(f"0 0 0 0 {r} 0\n5 0 0 0 {r} 0\n", encoding="utf-8")
        code = main([
            "average", "--net", str(net), "--packet", str(pk),
            "--nmax", "3",
        ])
        assert code == 0
        rows = rows_of(capsys.readouterr().out)
        assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-9)

    def test_non_finite_time_exits_two(self, tmp_path, capsys):
        net = tmp_path / "mirror.net"
        net.write_text(MIRROR_NET, encoding="utf-8")
        code = main(["average", "--net", str(net), "--t", "0,nan"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: t must be finite, got nan\n"
        assert captured.out == ""

    def test_time_past_the_phase_resolution_exits_two(self, tmp_path, capsys):
        """|n|^2 t = 1e17 > 2^52: the float64 phase keeps no digit, so no row is printed."""
        net = tmp_path / "mirror.net"
        net.write_text(MIRROR_NET, encoding="utf-8")
        r = 1.0 / math.sqrt(2.0)
        (tmp_path / "e1.pk").write_text(f"0 0 0 0 {r} 0\n0 0 0 1 0 {r}\n", encoding="utf-8")
        argv = ["average", "--net", str(net), "--packet", str(tmp_path / "e1.pk")]
        assert main(argv + ["--t=0,1e17"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: input neuron 1: energy 1 at t=1e+17 reaches |n|^2 |t| >= 2^52, "
            "where float64 keeps no digit of the phase\n"
        )
        assert main(argv + ["--t=-1e17"]) == 2
        assert "at t=-1e+17" in capsys.readouterr().err
        assert main(argv + ["--t=0,1e15"]) == 0
        rows = rows_of(capsys.readouterr().out)
        assert [row[0] for row in rows[1:]] == ["0", "1e+15"]
        assert all(float(row[1]) == pytest.approx(1.0, abs=1e-12) for row in rows[1:])

    def test_uniform_packet_takes_any_finite_time(self, tmp_path, capsys):
        net = tmp_path / "mirror.net"
        net.write_text(MIRROR_NET, encoding="utf-8")
        assert main(["average", "--net", str(net), "--t", "0,1e300"]) == 0
        rows = rows_of(capsys.readouterr().out)
        assert rows[1][1:] == rows[2][1:] and rows[2][0] == "1e+300"

    def test_bad_packet_file_is_a_parse_error(self, tmp_path, capsys):
        net = tmp_path / "mirror.net"
        pk = tmp_path / "bad.pk"
        net.write_text(MIRROR_NET, encoding="utf-8")
        pk.write_text("0 0 0 0 1\n", encoding="utf-8")
        code = main(["average", "--net", str(net), "--packet", str(pk)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 1" in err


    def test_mode_component_beyond_the_limit_exits_two(self, tmp_path, capsys):
        """4294967296 overflowed the int64 energies with a traceback."""
        net = tmp_path / "mirror.net"
        pk = tmp_path / "big.pk"
        net.write_text(MIRROR_NET, encoding="utf-8")
        pk.write_text("4294967296 0 0 0 1 0\n", encoding="utf-8")
        code = main(["average", "--net", str(net), "--packet", str(pk)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: line 1: mode components")
        assert f"exceed {MAX_MODE_COMPONENT}" in captured.err
        assert captured.out == ""

    def test_huge_coefficients_renormalize_without_overflow(self, tmp_path, capsys):
        """1e308 1e308 overflowed the squared norm with a traceback."""
        net = tmp_path / "mirror.net"
        net.write_text(MIRROR_NET, encoding="utf-8")
        (tmp_path / "huge.pk").write_text("0 0 1 0 1e308 1e308\n", encoding="utf-8")
        r = 1.0 / math.sqrt(2.0)
        (tmp_path / "unit.pk").write_text(f"0 0 1 0 {r} {r}\n", encoding="utf-8")
        argv = ["average", "--net", str(net), "--t", "0,0.5", "--packet"]
        assert main(argv + [str(tmp_path / "unit.pk")]) == 0
        unit = capsys.readouterr().out
        with pytest.warns(UserWarning, match="packet norm was 1.41421356e[+]308; renormalizing"):
            assert main(argv + [str(tmp_path / "huge.pk")]) == 0
        assert capsys.readouterr().out == unit

    def test_output_past_the_size_limit_exits_two_before_any_work(self, tmp_path, capsys):
        """A 1->23 net writes 2^24 probability columns: 0.5 GB of CSV from several GB."""
        net = tmp_path / "wide.net"
        net.write_text("layers = [1, 23]\n", encoding="utf-8")
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code = main(["average", "--net", str(net)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        needed = 2**24 * (24 + 3 + 2)
        assert captured.err.startswith("error: average output for 24 neurons at 1 time(s) ")
        assert f"needs at least {needed} bytes" in captured.err
        assert elapsed < 1.0 and peak < 2**20, (elapsed, peak)

    def test_output_under_the_size_limit_matches_the_per_value_templates(self, tmp_path, capsys):
        """A 1->19 net (2^20 columns, 26 MB) still runs, byte for byte as the templates wrote."""
        net = tmp_path / "wide.net"
        net.write_text("layers = [1, 19]\n", encoding="utf-8")
        out = tmp_path / "wide.csv"
        assert main(["average", "--net", str(net), "--out", str(out)]) == 0
        spec, inputs = parse_network_config("layers = [1, 19]\n")
        expected = csv_oracle.average_csv(spec, [WavePacket.uniform()], (0.0,), inputs)
        assert out.read_text(encoding="utf-8") == expected


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_repeated_flags_do_not_pile_up_across_calls(self, tmp_path, capsys):
        net = tmp_path / "mirror.net"
        net.write_text(MIRROR_NET, encoding="utf-8")
        runs = []
        for phi in ("0,0,0,0", "0,0,0,pi", "0,0,0,0"):
            assert main(["run", "--net", str(net), "--phi", phi]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[2] != runs[1]
        pk = tmp_path / "one.pk"
        pk.write_text("0 0 0 0 1 0\n", encoding="utf-8")
        for _ in range(2):
            assert main(["average", "--net", str(net), "--packet", str(pk)]) == 0
            assert capsys.readouterr().out.count("\n") == 2


class TestModuleEntryPoint:
    def test_python_dash_m_runs_a_scenario(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qfnn", "scenario", "table1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("scenario,")


def test_no_command_loads_numpy_ma(tmp_path):
    """``numpy.ma`` costs ~1 MB of RSS; ``np.unique`` without indices, ``np.union1d``
    and ``np.setdiff1d`` import it, so no command may reach them.  Nor may any
    command load ``csv``: every output goes through ``qfnn.csvtext``."""
    (tmp_path / "hv.net").write_text(HV_NET, encoding="utf-8")
    (tmp_path / "mirror.net").write_text(MIRROR_NET, encoding="utf-8")
    (tmp_path / "mirror.fn").write_text(MIRROR_FN, encoding="utf-8")
    (tmp_path / "uniform.pk").write_text(UNIFORM_PACKET, encoding="utf-8")
    out = ["--out", str(tmp_path / "out.csv")]
    commands = [
        ["run", "--net", str(tmp_path / "hv.net"), "--phi", "1,2,3,4", *out],
        ["average", "--net", str(tmp_path / "mirror.net"), "--packet", str(tmp_path / "uniform.pk"),
         "--t", "0,0.5", *out],
        ["verify", "--net", str(tmp_path / "mirror.net"), "--fn", str(tmp_path / "mirror.fn"), *out],
    ] + [["scenario", name, "--seed=5", *out] for name in SCENARIOS]
    code = (
        "import sys\n"
        "from qfnn.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "    assert 'numpy.ma' not in sys.modules, argv\n"
        "    assert 'csv' not in sys.modules, argv\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def hadamard_everywhere(tmp_path, width):
    """Config of layers [1, width - 1] with a Hadamard on every neuron: all 2^width branches."""
    net = tmp_path / f"full{width}.net"
    net.write_text(f"layers = [1, {width - 1}]\n[step]\nkind = post_unitary\n"
                   f"targets = {list(range(1, width + 1))}\ngate = hadamard\n", encoding="utf-8")
    return net


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedOutput:
    """Every CSV is written a bounded chunk at a time, to a target opened only after the
    input has passed every check."""

    def test_run_peaks_at_its_history_plus_a_fixed_bound(self, tmp_path):
        """Full support at N=18: 9.5 MB of CSV, which whole-body formatting held ~5 times over."""
        net, out = hadamard_everywhere(tmp_path, 18), tmp_path / "run.csv"
        spec, inputs = parse_network_config(net.read_text(encoding="utf-8"))
        history = traced_peak(lambda: _history(spec, [parse_phi("0,0,0,1")], inputs))
        argv = ["run", "--net", str(net), "--phi", "0,0,0,1", "--out", str(out)]
        peak = traced_peak(lambda: main(argv))
        assert out.stat().st_size > 9 * 2**20
        assert peak <= history + 2**20, (peak, history)

    def test_average_peaks_at_its_ensembles_plus_a_fixed_bound(self, tmp_path):
        """Full support at N=16 and four times: 5.7 MB of CSV, once all held until the end."""
        net, out = hadamard_everywhere(tmp_path, 16), tmp_path / "average.csv"
        spec, inputs = parse_network_config(net.read_text(encoding="utf-8"))
        times = (0.0, 0.5, 1.0, 1.5)

        def ensembles():  # each time's probabilities as one dense row, kept until the next
            rows = []
            for w, idx, amps in _averaged_ensembles(spec, [WavePacket.uniform()], times, inputs):
                row = np.zeros(2**16)
                row[idx] = np.clip(w @ np.abs(amps) ** 2, 0.0, None)
                rows[:] = [row]

        reference = traced_peak(ensembles)
        peak = traced_peak(lambda: main(["average", "--net", str(net), "--t", "0,0.5,1,1.5",
                                         "--out", str(out)]))
        assert out.stat().st_size > 5 * 2**20
        assert peak <= reference + 2**20, (peak, reference)

    def test_run_refused_on_its_budget_keeps_an_existing_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("qfnn.cli._CSV_BUDGET", 8)
        net, out = tmp_path / "mirror.net", tmp_path / "kept.csv"
        net.write_text(MIRROR_NET, encoding="utf-8")
        out.write_bytes(b"earlier,bytes\n")
        assert main(["run", "--net", str(net), "--phi", "0,0,0,pi", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: run output of 2 branches needs at least 14 bytes of CSV; the limit is 8\n"
        )
        assert out.read_bytes() == b"earlier,bytes\n"

    def test_average_refused_on_its_times_keeps_an_existing_file(self, tmp_path, capsys):
        net, out = tmp_path / "mirror.net", tmp_path / "kept.csv"
        net.write_text(MIRROR_NET, encoding="utf-8")
        out.write_bytes(b"earlier,bytes\n")
        assert main(["average", "--net", str(net), "--t", "0,nan", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: t must be finite, got nan\n"
        assert out.read_bytes() == b"earlier,bytes\n"

    def test_average_failing_at_a_later_time_leaves_the_earlier_rows(self, tmp_path, capsys,
                                                                     monkeypatch):
        """The first time group is checked before any byte is written; a later group that
        fails its check ends the output after the rows already written."""
        def failing_after_one(*args):
            yield next(_averaged_ensembles(*args))
            raise ValueError("state vector is not normalized: |psi|^2 = 2")

        monkeypatch.setattr("qfnn.cli._averaged_ensembles", failing_after_one)
        net = tmp_path / "mirror.net"
        net.write_text(MIRROR_NET, encoding="utf-8")
        assert main(["average", "--net", str(net), "--t", "0,0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: state vector is not normalized: |psi|^2 = 2\n"
        assert captured.out == "t,trace,purity,entropy_bits,p_00,p_01,p_10,p_11\n0,1,0.5,1,0.5,0,0,0.5\n"

    def test_average_failing_its_first_group_writes_nothing(self, tmp_path, capsys, monkeypatch):
        """``average`` runs and norm-checks its first time group before ``--out`` opens and
        before any byte reaches stdout."""
        runner = network._run_steps

        def doubled(idx, amps, net):
            idx, amps = runner(idx, amps, net)
            return idx, 2.0 * amps

        monkeypatch.setattr(network, "_run_steps", doubled)
        net, out = tmp_path / "mirror.net", tmp_path / "kept.csv"
        net.write_text(MIRROR_NET, encoding="utf-8")
        out.write_bytes(b"earlier,bytes\n")
        argv = ["average", "--net", str(net), "--t", "0,0.5"]
        for extra in (["--out", str(out)], []):
            assert main(argv + extra) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: state vector is not normalized: |psi|^2 = ")
            assert captured.out == ""
        assert out.read_bytes() == b"earlier,bytes\n"

    def test_stdout_without_a_byte_buffer_takes_the_same_text(self, tmp_path, capsys):
        """``main`` under ``redirect_stdout`` to a ``StringIO`` (no ``.buffer``) still prints."""
        net = tmp_path / "hv.net"
        net.write_text(HV_NET, encoding="utf-8")
        argv = ["run", "--net", str(net), "--phi", "1,2,3,4"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        with contextlib.redirect_stdout(io.StringIO()) as text:
            assert main(argv) == 0
        assert text.getvalue() == printed and printed.startswith("branch,re,im\n")
