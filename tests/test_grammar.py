"""The grammar the three input files share: line breaks, ``#`` comments, blank lines, line
numbers and number tokens.

Each file format is driven with the same noise, so a rule that one parser reads differently
from the others shows up as a changed result or a shifted line number.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfnn import BooleanStep, ParseError, parse_packet, parse_truth_table
from qfnn.cli import main, parse_network_config

CONFIG = """\
layers = [2, 1]
inputs = [1, 2]
[step]
kind = boolean
controls = [1, 2]
targets = [3]
table = 00 -> 0, 01 -> 1, 10 -> 1, 11 -> 0
[step]
kind = post_unitary
targets = [3]
gate = hadamard
"""
TRUTH_TABLE = "00 -> 0\n01 -> 1\n10 -> 1\n11 -> 0\n"
PACKET = "0 0 0 0 0.6 0\n0 1 1 0 0 0.8\n-1 0 2 3 0 0\n"


def config_summary(text):
    net, inputs = parse_network_config(text)
    boolean = [s for s in net.steps if isinstance(s, BooleanStep)]
    unitary = [(s.targets, [g.tobytes() for g in s.gates]) for s in net.steps if s not in boolean]
    return net.layers, inputs, boolean, unitary


def packet_summary(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the noise must not change the norm either
        packet = parse_packet(text)
    return packet.modes, packet._values.tobytes()


#: format name -> (valid text, what its parse is compared by, a bad line and its message).
FORMATS = {
    "config": (CONFIG, config_summary, "garbage", "expected 'key = value', got 'garbage'"),
    "truth table": (TRUTH_TABLE, parse_truth_table, "1 = 0",
                    "expected 'input -> output', got '1 = 0'"),
    "packet": (PACKET, packet_summary, "0 0 0 0 1",
               "expected 'n0 n1 n2 n3 re im' (6 fields), got 5"),
}

#: Whitespace that ``str.strip`` drops; ``str.splitlines`` also broke lines at the last two.
PADDING = st.text(st.sampled_from(" \t\x0c\u2028"), max_size=3)
#: A trailing comment or none: anything but the three line breaks, form feeds, U+2028 and
#: ``#`` included.
COMMENT = st.one_of(st.just(""), st.text(st.characters(blacklist_characters="\r\n",
                                                       blacklist_categories=("Cs",)),
                                         max_size=6).map("#".__add__))
ENDING = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def noisy_lines(draw, lines):
    """``lines`` padded, with trailing comments and with blank or comment-only lines between
    them; the first line is a comment that holds a form feed and a U+2028."""
    out = [draw(PADDING) + "# \x0c page \u2028 break"]
    for line in lines:
        out += [draw(PADDING) + draw(COMMENT) for _ in range(draw(st.integers(0, 2)))]
        out.append(draw(PADDING) + line + draw(PADDING) + draw(COMMENT))
    return out


def joined(draw, lines):
    """``lines`` with drawn endings.  A ``\\r`` before an empty line and its ``\\n`` would
    read as one ``\\r\\n`` break, as ``open()`` reads them, so such a line keeps ``\\n``."""
    endings = [draw(ENDING) for _ in lines]
    return "".join(line + (end if nxt or end != "\r" else "\n")
                   for line, end, nxt in zip(lines, endings, lines[1:] + ["end"]))


@settings(max_examples=150)
@given(st.sampled_from(sorted(FORMATS)), st.data())
def test_noise_leaves_the_parse_unchanged_and_a_bad_line_keeps_its_number(name, data):
    text, summary, bad, message = FORMATS[name]
    lines = data.draw(noisy_lines(text.splitlines()))
    assert summary(joined(data.draw, lines)) == summary(text)
    k = data.draw(st.integers(1, len(lines)))  # the bad line goes before line k, so it is line k
    lines.insert(k - 1, data.draw(PADDING) + bad)
    with pytest.raises(ParseError) as info:
        summary(joined(data.draw, lines))
    assert str(info.value) == f"line {k}: {message}"


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_a_form_feed_or_u2028_inside_a_line_does_not_end_it(name):
    """``str.splitlines`` read ``0 0 0 0 0.6 0<FF>0 0 0 1 0.8 0`` as two packet modes."""
    text, summary, _, _ = FORMATS[name]
    first, second, *rest = text.splitlines()
    for mark in "\x0c\u2028\x85\x1c":
        with pytest.raises(ParseError, match="^line 1: "):
            summary("\n".join([first + mark + second, *rest]) + "\n")


@pytest.mark.parametrize("text, token", [("1_0 0 0 0 1 0\n", "1_0"),
                                         ("0 0 0 0 1 0\n1 0 0 0 0_5 0\n", "0_5")])
def test_packet_numbers_refuse_digit_group_underscores(text, token, tmp_path, capsys):
    """``int`` and ``float`` read ``1_0`` as 10 and ``0_5`` as 5, so these files once loaded."""
    line = text.count("\n")
    message = f"line {line}: digit-group underscore in number '{token}'"
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_packet(text)
    net, packet = tmp_path / "mirror.net", tmp_path / "bad.pk"
    net.write_text("layers = [1, 1]\n")
    packet.write_text(text)
    assert main(["average", "--net", str(net), "--packet", str(packet)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
