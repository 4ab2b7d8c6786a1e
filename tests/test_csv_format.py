"""The CLI's number formatter and CSV bodies against the per-value templates.

``csvtext._g12`` formats each distinct float64 bit pattern once; these
properties hold it, and the ``run``, ``verify`` and ``average`` CSVs built
on it, to the ``%.12g`` templates kept in ``csv_oracle.py``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csv_oracle
from qfnn import (
    BooleanFunction,
    BooleanStep,
    GateParams,
    NetworkSpec,
    UnitaryStep,
    WavePacket,
    fixed_gate,
    format_truth_table,
    parse_packet,
    random_packet,
)
from qfnn import csvtext
from qfnn.cli import main, parse_network_config
from qfnn.csvtext import _G12_WIDTH, _g12
from torus_oracle import format_packet

SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
            1e-300, -1e-300, 1.0, -1.0, math.inf, -math.inf, math.nan]
numbers = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIALS)


@st.composite
def float_arrays(draw):
    """Rows of 1-3 columns, drawn mostly from a small pool so that values repeat."""
    pool = draw(st.lists(numbers, min_size=1, max_size=6))
    values = draw(st.lists(st.sampled_from(pool) | numbers, max_size=60))
    cols = draw(st.integers(1, 3))
    return np.array(values[: len(values) // cols * cols], dtype=np.float64).reshape(-1, cols)


def texts(cells):
    return [bytes(c).rstrip(b" ") for c in cells.reshape(-1, _G12_WIDTH)]


@settings(max_examples=200)
@given(float_arrays())
def test_g12_is_per_value_formatting(values):
    cells = _g12(values)
    assert cells.shape == values.shape + (_G12_WIDTH,)
    assert np.all(cells[..., -1] == ord(" "))
    assert texts(cells) == [b"%.12g" % v for v in values.ravel().tolist()]


@settings(max_examples=50)
@given(st.lists(st.floats(allow_nan=False), unique=True, max_size=200))
def test_g12_on_all_distinct_values(values):
    assert texts(_g12(values)) == [b"%.12g" % v for v in values]


def test_g12_keeps_the_sign_of_zero():
    assert texts(_g12([0.0, -0.0, 0.0, -0.0])) == [b"0", b"-0", b"0", b"-0"]


angles = st.tuples(*[st.floats(0.0, 6.28)] * 4).map(lambda a: GateParams(*a))


@st.composite
def layered_nets(draw, max_layers=3):
    """Random tables layer to layer (N <= 10), fixed gates on random neurons."""
    layers = draw(
        st.lists(st.integers(1, 4), min_size=2, max_size=max_layers).filter(lambda w: sum(w) <= 10)
    )
    bounds = np.cumsum([0] + layers)
    neurons = [list(range(bounds[k] + 1, bounds[k + 1] + 1)) for k in range(len(layers))]
    steps = []
    for k in range(len(layers) - 1):
        m, n = layers[k], layers[k + 1]
        table = draw(st.lists(st.integers(0, 2**n - 1), min_size=2**m, max_size=2**m))
        steps.append(BooleanStep(BooleanFunction(m, n, table), neurons[k], neurons[k + 1]))
        targets = draw(st.lists(st.sampled_from(range(1, bounds[-1] + 1)), unique=True))
        if targets:
            name = draw(st.sampled_from(["hadamard", "not", "identity"]))
            steps.append(UnitaryStep((fixed_gate(name),) * len(targets), targets))
    return NetworkSpec(layers, tuple(steps))


def config_text(net):
    """Network config text for ``qfnn`` that reproduces ``net``."""
    names = {fixed_gate(name).tobytes(): name for name in ("hadamard", "not", "identity")}
    text = f"layers = {list(net.layers)}\n"
    for step in net.steps:
        if isinstance(step, BooleanStep):
            table = ", ".join(format_truth_table(step.function).splitlines())
            text += (f"[step]\nkind = boolean\ncontrols = {list(step.controls)}\n"
                     f"targets = {list(step.targets)}\ntable = {table}\n")
        else:
            name = names[step.gates[0].tobytes()]
            text += f"[step]\nkind = post_unitary\ntargets = {list(step.targets)}\ngate = {name}\n"
    return text


def phi_arg(phi):
    return "--phi=" + ",".join(repr(a) for a in (phi.phi0, phi.phi1, phi.phi2, phi.phi3))


@settings(max_examples=40)
@given(layered_nets(), st.data())
def test_run_csv_is_the_per_value_template(tmp_path_factory, net, data):
    path = tmp_path_factory.mktemp("run") / "net.cfg"
    path.write_text(config_text(net))
    _, inputs = parse_network_config(path.read_text())
    phis = [data.draw(angles) for _ in inputs]
    out = path.with_suffix(".csv")
    assert main(["run", "--net", str(path), *map(phi_arg, phis), "--out", str(out)]) == 0
    assert out.read_text() == csv_oracle.run_csv(net, phis, inputs)


def test_run_csv_prints_negative_zero(tmp_path):
    """Two inputs with phi2 = 0 multiply to an amplitude whose imaginary part is -0.0."""
    path = tmp_path / "pair.cfg"
    path.write_text("layers = [2, 1]\n")
    phis = [GateParams(0.0, 0.0, 0.0, 1.0), GateParams(0.0, 0.0, 0.0, 2.0)]
    out = tmp_path / "pair.csv"
    assert main(["run", "--net", str(path), *map(phi_arg, phis), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.splitlines()[-1].endswith(",-0") and ",0\n" in text
    assert text == csv_oracle.run_csv(parse_network_config(path.read_text())[0], phis, (1, 2))


@settings(max_examples=30)
@given(layered_nets(max_layers=2), st.data())
def test_verify_csv_is_the_per_value_template(tmp_path_factory, net, data):
    m, n = net.layers
    table = data.draw(st.lists(st.integers(0, 2**n - 1), min_size=2**m, max_size=2**m))
    g = BooleanFunction(m, n, table)
    d = tmp_path_factory.mktemp("verify")
    (d / "net.cfg").write_text(config_text(net))
    (d / "g.fn").write_text(format_truth_table(g))
    out = d / "o.csv"
    main(["verify", "--net", str(d / "net.cfg"), "--fn", str(d / "g.fn"), "--out", str(out)])
    assert out.read_text() == csv_oracle.verify_csv(net, g)


@settings(max_examples=25)
@given(layered_nets(), st.data())
def test_average_csv_is_the_per_value_template(tmp_path_factory, net, data):
    """Up to six times, repeats and 0 among them: ``qfnn average`` runs them in one pass,
    and the template calls ``averaged_ensemble`` once per time."""
    d = tmp_path_factory.mktemp("average")
    (d / "net.cfg").write_text(config_text(net))
    _, inputs = parse_network_config(config_text(net))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    packets = [data.draw(st.sampled_from([WavePacket.uniform(), random_packet(2, 4, rng)]))
               for _ in inputs]
    times = data.draw(st.lists(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 5.0), min_size=1, max_size=6))
    argv = ["average", "--net", str(d / "net.cfg"), "--t", ",".join(map(repr, times))]
    for k, p in enumerate(packets):
        (d / f"{k}.pk").write_text(format_packet(p))
        argv += ["--packet", str(d / f"{k}.pk")]
    assert main(argv + ["--out", str(d / "o.csv")]) == 0
    packets = [parse_packet((d / f"{k}.pk").read_text()) for k in range(len(packets))]
    assert (d / "o.csv").read_text() == csv_oracle.average_csv(net, packets, times, inputs)


# Chunk boundaries.  ``csvtext._chunks`` formats ``_CHUNK_ROWS`` rows (``average``: cells
# of one line) at a time; each output is held to its template at one chunk less one,
# exactly one, one more and three or more, and stdout must carry the bytes ``--out`` gets.

CHUNK = csvtext._CHUNK_ROWS
LONGEST = -1.23456789012e-100  # "%.12g" takes 19 bytes, one short of a cell


def chunk_sizes(items):
    """``_CHUNK_ROWS`` values that put ``items`` rows at chunk - 1, chunk, chunk + 1, >= 3 chunks."""
    return [items + 1, items, items - 1, items // 3]


def both_ways(argv, out, capsysbinary):
    """``qfnn`` output to stdout and to ``--out``: equal bytes, returned as text."""
    code = main(argv)
    printed = capsysbinary.readouterr().out
    assert main(argv + ["--out", str(out)]) == code
    assert capsysbinary.readouterr().out == b""
    assert out.read_bytes() == printed
    return printed.decode()


def test_write_opens_its_target_before_the_first_chunk(tmp_path):
    """``_write`` pulls no chunk ahead: the target is open, and the header on its way, before
    the first chunk is asked for.  Refusing bad input is the caller's job."""
    out = tmp_path / "o.csv"
    out.write_bytes(b"earlier,bytes\n")

    def refused():
        assert out.read_bytes() == b""  # opened "wb" already
        raise ValueError("refused")
        yield

    with pytest.raises(ValueError, match="refused"):
        csvtext._write(str(out), b"h\n", refused())
    assert out.read_bytes() == b"h\n"


def test_chunks_format_each_value_as_the_template_at_every_boundary(monkeypatch):
    values = np.array([LONGEST, -0.0, 0.0, 1e300, 5e-324, -1.0 / 3.0, math.nan, -math.inf] * 4)
    for rows in chunk_sizes(len(values)):
        monkeypatch.setattr(csvtext, "_CHUNK_ROWS", rows)
        for line in (False, True):

            def fill(cells, part):
                cells[:, 0] = _g12(values[part])

            text = b"".join(csvtext._chunks(len(values), (1, _G12_WIDTH), fill, line))
            cells = [b"%.12g" % v for v in values.tolist()]
            assert text == (b",".join(cells) + b"\n" if line else b"\n".join(cells) + b"\n")


@pytest.mark.parametrize("chunk_of", [None] + [lambda r, k=k: chunk_sizes(r)[k] for k in range(4)],
                         ids=["4-chunks", "chunk-1", "chunk", "chunk+1", "3-chunks"])
def test_run_csv_at_chunk_boundaries(tmp_path, capsysbinary, monkeypatch, chunk_of):
    """13 inputs with phi2 = 0 and no step: 2^13 rows, four chunks at the module's own
    size, with -0 cells and 18-byte ones such as -1.05714606492e-05."""
    net = tmp_path / "wide.net"
    net.write_text("layers = [13]\n")
    phis = [GateParams(0.0, 0.0, 0.0, 1.0 + k % 3) for k in range(13)]
    if chunk_of is not None:
        monkeypatch.setattr(csvtext, "_CHUNK_ROWS", chunk_of(2**13))
    text = both_ways(["run", "--net", str(net), *map(phi_arg, phis)], tmp_path / "o.csv",
                     capsysbinary)
    assert text.count("\n") == 2**13 + 1 and ",-0\n" in text and ",-1.05714606492e-05," in text
    assert text == csv_oracle.run_csv(parse_network_config(net.read_text())[0], phis, range(1, 14))


@pytest.mark.parametrize("chunk_of", [None] + [lambda r, k=k: chunk_sizes(r)[k] for k in range(4)],
                         ids=["one-chunk", "chunk-1", "chunk", "chunk+1", "3-chunks"])
def test_verify_csv_at_chunk_boundaries(tmp_path, capsysbinary, monkeypatch, chunk_of):
    """2^11 drives, exactly one chunk at the module's own size; the table checked differs
    from the net's on every odd input, so both verdicts print."""
    m, n = 11, 2
    rng = np.random.default_rng(11)
    h = BooleanFunction(m, n, rng.integers(0, 2**n, 2**m).tolist())
    g = BooleanFunction(m, n, [v ^ (s & 1) for s, v in enumerate(h.outputs)])
    spec = NetworkSpec((m, n), (BooleanStep(h, range(1, m + 1), (12, 13)),))
    (tmp_path / "net.cfg").write_text(config_text(spec))
    (tmp_path / "g.fn").write_text(format_truth_table(g))
    if chunk_of is not None:
        monkeypatch.setattr(csvtext, "_CHUNK_ROWS", chunk_of(2**m))
    argv = ["verify", "--net", str(tmp_path / "net.cfg"), "--fn", str(tmp_path / "g.fn")]
    text = both_ways(argv, tmp_path / "o.csv", capsysbinary)
    assert ",true\n" in text and ",false\n" in text
    assert text == csv_oracle.verify_csv(spec, g)


@pytest.mark.parametrize("chunk", [2**8 + 5, 2**8 + 4, 2**8 + 3, 2**8 + 1, 2**8, 2**8 - 1, 2**8 // 3])
def test_average_csv_at_chunk_boundaries(tmp_path, capsysbinary, monkeypatch, chunk):
    """2^8 header columns and 2^8 + 4 cells per time, each one chunk less one, exactly one
    and one more, or three chunks and more; the times print -0 and a 19-byte cell."""
    net = tmp_path / "wide.net"
    net.write_text("layers = [2, 6]\n[step]\nkind = post_unitary\ntargets = [3, 5, 8]\n"
                   "gate = hadamard\n")
    monkeypatch.setattr(csvtext, "_CHUNK_ROWS", chunk)
    times = (-0.0, LONGEST, 0.5)
    argv = ["average", "--net", str(net), "--t=" + ",".join(map(repr, times))]
    text = both_ways(argv, tmp_path / "o.csv", capsysbinary)
    assert "\n-0," in text and f"\n{LONGEST:.12g}," in text and len(f"{LONGEST:.12g}") == 19
    spec, inputs = parse_network_config(net.read_text())
    assert text == csv_oracle.average_csv(spec, [WavePacket.uniform()] * 2, times, inputs)


def test_average_csv_in_three_chunks_and_more_at_the_module_size(tmp_path, capsysbinary):
    net = tmp_path / "wide.net"
    net.write_text("layers = [1, 12]\n[step]\nkind = post_unitary\ntargets = [2, 7, 13]\n"
                   "gate = hadamard\n")
    assert 2**13 >= 3 * CHUNK
    text = both_ways(["average", "--net", str(net), "--t", "0,0.5"], tmp_path / "o.csv",
                     capsysbinary)
    spec, inputs = parse_network_config(net.read_text())
    assert text == csv_oracle.average_csv(spec, [WavePacket.uniform()], (0.0, 0.5), inputs)
