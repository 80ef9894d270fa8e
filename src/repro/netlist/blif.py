"""BLIF (Berkeley Logic Interchange Format) reader and writer.

The subset implemented is what the academic mapping flows (VTR, ABC,
SimpleMap) emit and consume: ``.model``, ``.inputs``, ``.outputs``,
``.names`` (SOP planes), ``.latch`` (with optional type/clock and initial
value) and ``.end``.  Line continuations with ``\\`` and ``#`` comments are
handled.  Unsupported constructs (``.subckt``, ``.gate``) raise
:class:`~repro.errors.BlifParseError` so silent misreads cannot happen.
"""

from __future__ import annotations

import io
from typing import Iterable, TextIO

from repro.errors import BlifParseError, NetlistError
from repro.netlist.network import LogicNetwork, NodeKind
from repro.netlist.sop import Cover, Cube, cover_to_truthtable, truthtable_to_cover
from repro.netlist.truthtable import TruthTable

__all__ = ["parse_blif", "parse_blif_file", "write_blif"]


def _logical_lines(text: str) -> Iterable[tuple[int, str]]:
    """Yield (line_no, logical_line) with continuations joined, comments cut."""
    pending = ""
    pending_start = 0
    for i, raw in enumerate(text.splitlines(), start=1):
        hash_pos = raw.find("#")
        if hash_pos >= 0:
            raw = raw[:hash_pos]
        raw = raw.rstrip()
        if not raw and not pending:
            continue
        if raw.endswith("\\"):
            if not pending:
                pending_start = i
            pending += raw[:-1] + " "
            continue
        if pending:
            line = pending + raw
            pending = ""
            yield pending_start, line.strip()
        else:
            if raw.strip():
                yield i, raw.strip()
    if pending.strip():
        yield pending_start, pending.strip()


class _PendingNames:
    """A .names block accumulated before resolution (two-pass parse)."""

    __slots__ = ("line_no", "signals", "cubes", "output_value")

    def __init__(self, line_no: int, signals: list[str]) -> None:
        self.line_no = line_no
        self.signals = signals
        self.cubes: list[Cube] = []
        self.output_value: int | None = None


def parse_blif(text: str, name_hint: str = "top") -> LogicNetwork:
    """Parse BLIF text into a :class:`LogicNetwork`.

    >>> net = parse_blif('''
    ... .model ex
    ... .inputs a b
    ... .outputs f
    ... .names a b f
    ... 11 1
    ... .end
    ... ''')
    >>> net.n_gates, net.po_names
    (1, ['f'])
    """
    model_name = name_hint
    inputs: list[str] = []
    outputs: list[str] = []
    names_blocks: list[_PendingNames] = []
    latch_decls: list[tuple[int, str, str, int]] = []  # line, d, q, init
    current: _PendingNames | None = None
    seen_end = False

    for line_no, line in _logical_lines(text):
        if line.startswith("."):
            current = None
            tokens = line.split()
            directive = tokens[0]
            if directive == ".model":
                model_name = tokens[1] if len(tokens) > 1 else name_hint
            elif directive == ".inputs":
                inputs.extend(tokens[1:])
            elif directive == ".outputs":
                outputs.extend(tokens[1:])
            elif directive == ".names":
                if len(tokens) < 2:
                    raise BlifParseError(".names needs at least an output", line_no)
                current = _PendingNames(line_no, tokens[1:])
                names_blocks.append(current)
            elif directive == ".latch":
                # .latch input output [type [clock]] [init]
                body = tokens[1:]
                if len(body) < 2:
                    raise BlifParseError(".latch needs input and output", line_no)
                d_name, q_name = body[0], body[1]
                init = 3
                rest = body[2:]
                if rest and rest[-1] in ("0", "1", "2", "3"):
                    init = int(rest[-1])
                latch_decls.append((line_no, d_name, q_name, init))
            elif directive == ".end":
                seen_end = True
                break
            elif directive in (".subckt", ".gate", ".mlatch", ".exdc"):
                raise BlifParseError(f"unsupported construct {directive}", line_no)
            else:
                # Unknown dot-directives (e.g. .default_input_arrival) are
                # timing annotations we can safely skip.
                continue
        else:
            if current is None:
                raise BlifParseError(f"stray plane line {line!r}", line_no)
            tokens = line.split()
            n_ins = len(current.signals) - 1
            if n_ins == 0:
                if len(tokens) != 1 or tokens[0] not in ("0", "1"):
                    raise BlifParseError("bad constant plane", line_no)
                out_val = int(tokens[0])
                cube = Cube(0, 0)
            else:
                if len(tokens) != 2:
                    raise BlifParseError("plane line must be '<ins> <out>'", line_no)
                plane, out_tok = tokens
                if len(plane) != n_ins:
                    raise BlifParseError(
                        f"plane width {len(plane)} != fanin count {n_ins}", line_no
                    )
                if out_tok not in ("0", "1"):
                    raise BlifParseError(f"bad output token {out_tok!r}", line_no)
                out_val = int(out_tok)
                try:
                    cube = Cube.from_blif(plane)
                except ValueError as exc:
                    raise BlifParseError(str(exc), line_no) from None
            if current.output_value is None:
                current.output_value = out_val
            elif current.output_value != out_val:
                raise BlifParseError("mixed output polarities in one .names", line_no)
            current.cubes.append(cube)

    net = LogicNetwork(model_name)
    for pi in inputs:
        net.add_pi(pi)

    # Latch Q nodes exist before gate bodies (forward references allowed).
    for line_no, _d, q_name, init in latch_decls:
        if net.find(q_name) is not None:
            raise BlifParseError(f"latch output {q_name!r} redefined", line_no)
        net.add_latch(q_name, init=init)

    # Two passes over .names blocks so fan-ins may be defined in any order.
    # First create placeholder ordering: topologically BLIF allows any order,
    # so create all gate shells after resolving dependencies iteratively.
    unresolved = list(names_blocks)
    progress = True
    while unresolved and progress:
        progress = False
        still: list[_PendingNames] = []
        for block in unresolved:
            in_names = block.signals[:-1]
            out_name = block.signals[-1]
            fanins = [net.find(s) for s in in_names]
            if any(f is None for f in fanins):
                still.append(block)
                continue
            output_value = 1 if block.output_value is None else block.output_value
            cover = Cover(len(in_names), tuple(block.cubes), output_value)
            tt = cover_to_truthtable(cover)
            try:
                net.add_gate(out_name, [f for f in fanins if f is not None], tt)
            except NetlistError as exc:
                raise BlifParseError(str(exc), block.line_no) from exc
            progress = True
        unresolved = still
    if unresolved:
        missing = sorted(
            {
                s
                for block in unresolved
                for s in block.signals[:-1]
                if net.find(s) is None
            }
        )[:5]
        raise BlifParseError(
            f"undefined signals (or gate cycle): {missing}",
            unresolved[0].line_no,
        )

    for line_no, d_name, q_name, _init in latch_decls:
        d = net.find(d_name)
        if d is None:
            raise BlifParseError(f"latch input {d_name!r} undefined", line_no)
        net.set_latch_driver(net.require(q_name), d)

    for out in outputs:
        if net.find(out) is None:
            raise BlifParseError(f"output {out!r} has no driver")
        net.add_po(out)

    if not seen_end and not (inputs or outputs or names_blocks):
        raise BlifParseError("no BLIF content found")
    return net


def parse_blif_file(path: str) -> LogicNetwork:
    """Parse a BLIF file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_blif(fh.read())


def write_blif(net: LogicNetwork, fh: TextIO | None = None) -> str:
    """Serialize a network to BLIF text (also writes to ``fh`` if given).

    Gate bodies are re-derived from truth tables via ISOP, so a
    parse→write→parse round trip preserves function (and this is tested by
    a hypothesis property).
    """
    out = io.StringIO()
    out.write(f".model {net.name}\n")
    if net.pis:
        out.write(".inputs " + " ".join(net.node_name(p) for p in net.pis) + "\n")
    if net.po_names:
        out.write(".outputs " + " ".join(net.po_names) + "\n")
    for latch in net.latches:
        if latch.driver < 0:
            raise NetlistError(
                f"latch {net.node_name(latch.q)!r} has no driver; cannot write"
            )
        out.write(
            f".latch {net.node_name(latch.driver)} {net.node_name(latch.q)}"
            f" re clk {latch.init}\n"
        )
    for nid in net.gates():
        func = net.func(nid)
        assert func is not None
        sig_names = [net.node_name(f) for f in net.fanins(nid)]
        out.write(".names " + " ".join(sig_names + [net.node_name(nid)]) + "\n")
        const = func.const_value()
        if const == 0:
            pass  # empty body == constant 0
        elif const == 1 and func.n_vars == 0:
            out.write("1\n")
        else:
            cover = truthtable_to_cover(func)
            for line in cover.to_blif_lines():
                out.write(line + "\n")
    out.write(".end\n")
    text = out.getvalue()
    if fh is not None:
        fh.write(text)
    return text
