"""BLIF parsing and writing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from parity import check_equivalent
from repro.errors import BlifParseError, ReproError
from repro.netlist import parse_blif, validate_network, write_blif
from repro.workloads import generate_circuit
from repro.workloads.suites import BenchmarkSpec


class TestParse:
    def test_basic(self, tiny_seq):
        assert tiny_seq.name == "tiny"
        assert tiny_seq.n_pis == 3 and tiny_seq.n_latches == 1

    def test_comments_and_continuations(self):
        net = parse_blif(
            ".model m  # trailing comment\n"
            ".inputs a \\\n b\n"
            ".outputs f\n"
            ".names a b f\n11 1\n.end\n"
        )
        assert net.n_pis == 2

    def test_out_of_order_names(self):
        net = parse_blif(
            ".model m\n.inputs a\n.outputs f\n"
            ".names t f\n1 1\n"       # uses t before it's defined
            ".names a t\n0 1\n.end\n"
        )
        validate_network(net)

    def test_const_names(self):
        net = parse_blif(
            ".model m\n.inputs a\n.outputs f one\n"
            ".names one\n1\n.names a one f\n11 1\n.end\n"
        )
        assert net.func(net.require("one")).const_value() == 1

    def test_offset_polarity(self):
        net = parse_blif(
            ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 0\n.end\n"
        )
        tt = net.func(net.require("f"))
        assert tt.eval_point([1, 1]) == 0 and tt.eval_point([0, 1]) == 1

    def test_latch_init_parsing(self):
        net = parse_blif(
            ".model m\n.inputs a\n.outputs q\n.latch a q re clk 1\n.end\n"
        )
        assert net.latches[0].init == 1

    def test_mixed_polarity_rejected(self):
        with pytest.raises(BlifParseError):
            parse_blif(
                ".model m\n.inputs a b\n.outputs f\n"
                ".names a b f\n11 1\n00 0\n.end\n"
            )

    def test_unsupported_subckt(self):
        with pytest.raises(BlifParseError):
            parse_blif(".model m\n.subckt foo a=b\n.end\n")

    def test_undefined_signal(self):
        with pytest.raises(BlifParseError):
            parse_blif(".model m\n.inputs a\n.outputs f\n.names ghost f\n1 1\n.end\n")

    def test_plane_width_mismatch(self):
        with pytest.raises(BlifParseError) as e:
            parse_blif(".model m\n.inputs a b\n.outputs f\n.names a b f\n1 1\n.end\n")
        assert e.value.line_no is not None

    def test_stray_plane(self):
        with pytest.raises(BlifParseError):
            parse_blif(".model m\n11 1\n.end\n")

    def test_output_without_driver(self):
        with pytest.raises(BlifParseError):
            parse_blif(".model m\n.inputs a\n.outputs zz\n.end\n")

    def test_latch_redefined(self):
        with pytest.raises(BlifParseError):
            parse_blif(
                ".model m\n.inputs a\n.outputs q\n"
                ".latch a q 0\n.latch a q 0\n.end\n"
            )

    def test_bad_cube_character(self):
        with pytest.raises(BlifParseError) as e:
            parse_blif(".model m\n.inputs a b\n.outputs f\n.names a b f\nx1 1\n")
        assert e.value.line_no == 5


#: A valid sequential BLIF the fuzzer below mutates: constants, a
#: continuation line, an off-set cover and two latches.
_FUZZ_BASE = """\
.model fuzz
.inputs a b \\
 c
.outputs f g
.names a b t1
11 1
.names t1 c t2
1- 1
-1 1
.names one
1
.latch t2 q 0
.latch t1 r re clk 1
.names q a one f
101 1
.names t2 r g
11 0
.end
"""

#: Tokens the fuzzer inserts or substitutes: the base's own words plus
#: characters no BLIF construct accepts where they land.
_FUZZ_TOKENS = st.sampled_from(
    _FUZZ_BASE.split()
    + ["x", "2", "-", "0", "11", "1x", "", "#", "\\", ".subckt", ".names"]
)


@st.composite
def _mutated_blif(draw) -> str:
    lines = _FUZZ_BASE.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(lines)))
        op = draw(
            st.sampled_from(
                ["delete", "insert", "substitute", "token-delete",
                 "token-insert", "token-substitute"]
            )
        )
        if op == "insert":
            lines.insert(at, " ".join(draw(st.lists(_FUZZ_TOKENS, max_size=4))))
            continue
        if at == len(lines):
            continue
        if op == "delete":
            del lines[at]
        elif op == "substitute":
            lines[at] = draw(st.sampled_from(lines))
        else:
            tokens = lines[at].split()
            pos = draw(st.integers(0, len(tokens)))
            if op == "token-insert":
                tokens.insert(pos, draw(_FUZZ_TOKENS))
            elif pos < len(tokens) and op == "token-delete":
                del tokens[pos]
            elif pos < len(tokens):
                tokens[pos] = draw(_FUZZ_TOKENS)
            lines[at] = " ".join(tokens)
    return "\n".join(lines) + "\n"


class TestMalformed:
    def test_fuzz_base_is_valid(self):
        validate_network(parse_blif(_FUZZ_BASE))

    @settings(max_examples=400, deadline=None)
    @given(_mutated_blif())
    def test_only_typed_errors_escape(self, text):
        # deleting, inserting and substituting lines and tokens may make
        # the text invalid, but never an untyped crash
        try:
            parse_blif(text)
        except ReproError:
            pass


class TestWrite:
    def test_roundtrip_function(self, tiny_seq):
        text = write_blif(tiny_seq)
        again = parse_blif(text)
        validate_network(again)
        assert check_equivalent(tiny_seq, again, n_vectors=64, n_cycles=6)

    def test_writes_latches(self, tiny_seq):
        assert ".latch" in write_blif(tiny_seq)

    def test_const_zero_gate(self):
        net = parse_blif(
            ".model m\n.inputs a\n.outputs f z\n"
            ".names z\n.names a z f\n10 1\n.end\n"
        )
        text = write_blif(net)
        again = parse_blif(text)
        assert again.func(again.require("z")).const_value() == 0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**31))
    def test_generated_roundtrip(self, seed):
        spec = BenchmarkSpec(
            name="rt",
            n_gates=40,
            golden_depth=4,
            paper_initial_luts=0,
            paper_sm_luts=0,
            paper_abc_luts=0,
            paper_proposed_luts=0,
            paper_tluts=0,
            paper_tcons=0,
            n_latches=3,
            n_pis=5,
            n_pos=4,
            gate_depth_target=6,
        )
        net = generate_circuit(spec, seed)
        again = parse_blif(write_blif(net))
        validate_network(again)
        assert check_equivalent(net, again, n_vectors=64, n_cycles=4)
