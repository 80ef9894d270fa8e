"""Parameter spaces, assignments and the parameterized bitstream."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from benchmarks import ref_scg
from repro.core.boolfunc import (
    BoolExpr,
    bf_and,
    bf_conj,
    bf_const,
    bf_not,
    bf_or,
    bf_var,
    bf_xor,
)
from repro.core.parameters import ParameterAssignment, ParameterSpace
from repro.core.pconf import ParameterizedBitstream
from repro.core.scg import SpecializedConfigGenerator
from repro.errors import ParameterError, SpecializationError
from tests.test_boolfunc import exprs


class TestParameterSpace:
    def test_ordering(self):
        sp = ParameterSpace(["a", "b", "c"])
        assert sp.names == ["a", "b", "c"]
        assert sp.index_of("b") == 1

    def test_duplicate(self):
        with pytest.raises(ParameterError):
            ParameterSpace(["a", "a"])

    def test_unknown(self):
        with pytest.raises(ParameterError):
            ParameterSpace(["a"]).index_of("b")

    def test_assignment_defaults(self):
        sp = ParameterSpace(["a", "b"])
        a = sp.assignment({"b": 1})
        assert a["a"] == 0 and a["b"] == 1

    def test_assignment_bad_value(self):
        sp = ParameterSpace(["a"])
        with pytest.raises(ParameterError):
            sp.assignment({"a": 2})

    def test_diff(self):
        sp = ParameterSpace(["a", "b", "c"])
        x = sp.assignment({"a": 1})
        y = sp.assignment({"a": 1, "c": 1})
        assert x.diff(y) == ["c"]

    def test_as_dict(self):
        sp = ParameterSpace(["a", "b"])
        assert sp.assignment({"a": 1}).as_dict() == {"a": 1, "b": 0}


class TestPConf:
    def make(self) -> tuple[ParameterSpace, ParameterizedBitstream]:
        sp = ParameterSpace(["p", "q"])
        pb = ParameterizedBitstream(sp, 16)
        return sp, pb

    def test_constant_bits(self):
        sp, pb = self.make()
        pb.set_constant(3, 1)
        bits, _ = pb.specialize(sp.zeros())
        assert bits[3] == 1 and bits[0] == 0

    def test_tunable_bit(self):
        sp, pb = self.make()
        pb.set_tunable(5, bf_var(0) & bf_not(bf_var(1)))
        bits, _ = pb.specialize(sp.assignment({"p": 1}))
        assert bits[5] == 1
        bits, _ = pb.specialize(sp.assignment({"p": 1, "q": 1}))
        assert bits[5] == 0

    def test_const_expr_becomes_static(self):
        sp, pb = self.make()
        pb.set_tunable(2, bf_const(1))
        assert pb.n_tunable == 0
        assert pb.baseline[2] == 1

    def test_out_of_range(self):
        sp, pb = self.make()
        with pytest.raises(SpecializationError):
            pb.set_constant(99, 1)

    def test_constant_over_tunable_rejected(self):
        sp, pb = self.make()
        pb.set_tunable(4, bf_var(0))
        with pytest.raises(SpecializationError):
            pb.set_constant(4, 1)

    def test_unknown_param_index_rejected(self):
        sp, pb = self.make()
        with pytest.raises(SpecializationError):
            pb.set_tunable(1, bf_var(9))

    def test_param_index_bounds(self):
        # one past the last parameter and a negative index (which bf_var
        # refuses to build, so it is made directly) are both unknown
        sp, pb = self.make()
        n = len(sp)
        for bad in (n, -1):
            expr = bf_var(0) & BoolExpr._make("var", var=bad)
            with pytest.raises(
                SpecializationError,
                match=rf"bit 3: expression uses unknown parameter indices "
                rf"\[{bad}\]$",
            ):
                pb.set_tunable(3, expr)
        assert pb.n_tunable == 0
        pb.set_tunable(3, bf_var(0) & bf_var(n - 1))  # the edges are known
        assert pb.n_tunable == 1

    def test_wrong_space(self):
        sp, pb = self.make()
        other = ParameterSpace(["p", "q"])
        with pytest.raises(SpecializationError):
            pb.specialize(other.zeros())

    def test_stats_counting(self):
        sp, pb = self.make()
        shared = bf_var(0)
        pb.set_tunable(0, shared)
        pb.set_tunable(1, shared)
        pb.set_tunable(2, bf_not(bf_var(1)))
        bits, stats = pb.specialize(sp.assignment({"p": 1}))
        assert stats.n_tunable_bits == 3
        assert pb.n_distinct_exprs == 2
        assert bits[0] == bits[1] == 1 and bits[2] == 1

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 63),
                st.lists(st.tuples(st.integers(0, 7), st.integers(0, 1)), max_size=3),
            ),
            max_size=20,
        ),
        st.integers(0, 255),
    )
    def test_specialize_matches_direct_eval(self, entries, assignment_bits):
        sp = ParameterSpace([f"p{i}" for i in range(8)])
        pb = ParameterizedBitstream(sp, 64)
        exprs = {}
        for idx, lits in entries:
            e = bf_conj(lits)
            pb.set_tunable(idx, e)
            exprs[idx] = e
        vec = np.array(
            [(assignment_bits >> i) & 1 for i in range(8)], dtype=np.uint8
        )
        assign = sp.assignment(
            {f"p{i}": int(vec[i]) for i in range(8)}
        )
        bits, _ = pb.specialize(assign)
        for idx, e in exprs.items():
            assert bits[idx] == e.evaluate(vec)

    def test_mutation_after_specialize_changes_the_next_result(self):
        sp, pb = self.make()
        pb.set_tunable(1, bf_var(0))
        bits, stats = pb.specialize(sp.zeros())
        assert bits[1] == 0 and stats.n_tunable_bits == 1
        pb.set_tunable(1, bf_not(bf_var(0)))
        pb.set_tunable(2, bf_var(1))
        bits, stats = pb.specialize(sp.zeros())
        assert bits[1] == 1 and stats.n_tunable_bits == 2
        pb.set_constant(7, 1)
        bits, _ = pb.specialize(sp.zeros())
        assert bits[7] == 1
        pb.set_tunable(1, bf_const(0))  # a constant expression: static
        bits, stats = pb.specialize(sp.zeros())
        assert bits[1] == 0 and stats.n_tunable_bits == 1

    def test_pickle_after_specialize(self):
        sp, pb = self.make()
        pb.set_constant(0, 1)
        pb.set_tunable(3, bf_var(0) ^ bf_var(1))
        assign = sp.assignment({"p": 1})
        bits, stats = pb.specialize(assign)
        clone = pickle.loads(pickle.dumps(pb))
        got, got_stats = clone.specialize(
            ParameterAssignment(clone.space, assign.vector)
        )
        assert np.array_equal(got, bits) and got_stats == stats


N_VARS = 6


@st.composite
def pconfs(draw) -> ParameterizedBitstream:
    """Random PConfs: shared subexpressions, static bits from
    ``set_constant`` and from constant expressions, bits set twice."""
    sp = ParameterSpace([f"p{i}" for i in range(N_VARS)])
    n_bits = draw(st.integers(1, 40))
    pb = ParameterizedBitstream(sp, n_bits)
    pool = draw(st.lists(exprs(n_vars=N_VARS), min_size=1, max_size=5))
    for i, j, op in draw(
        st.lists(
            st.tuples(
                st.integers(0, len(pool) - 1),
                st.integers(0, len(pool) - 1),
                st.sampled_from([bf_and, bf_or, bf_xor]),
            ),
            max_size=4,
        )
    ):
        pool.append(op(pool[i], bf_not(pool[j])))  # reuses pooled DAGs
    for index, what in draw(
        st.lists(
            st.tuples(
                st.integers(0, n_bits - 1),
                st.one_of(st.integers(0, 1), st.sampled_from(pool)),
            ),
            max_size=2 * n_bits,
        )
    ):
        if isinstance(what, int):
            if index not in pb.tunable:
                pb.set_constant(index, what)
        else:
            pb.set_tunable(index, what)
    return pb


def assignments(sp: ParameterSpace):
    """0/1 assignments, and directly built ones holding any ``uint8``."""
    return st.one_of(
        st.lists(st.integers(0, 1), min_size=N_VARS, max_size=N_VARS).map(
            lambda bits: sp.assignment(
                {name: b for name, b in zip(sp.names, bits)}
            )
        ),
        st.lists(st.integers(0, 255), min_size=N_VARS, max_size=N_VARS).map(
            lambda vals: ParameterAssignment(sp, np.array(vals, dtype=np.uint8))
        ),
    )


class TestSpecializeParity:
    """The compiled plan against the reference evaluator of
    ``benchmarks/ref_scg.py``: bits, every stat and the frame sets."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        pb = data.draw(pconfs())
        seq = data.draw(st.lists(assignments(pb.space), min_size=1, max_size=5))
        frame_bits = data.draw(st.integers(1, 8))
        fast = SpecializedConfigGenerator(pb, frame_bits=frame_bits)
        ref = ref_scg.ReferenceSCG(pb, frame_bits=frame_bits)
        for k, assign in enumerate(seq):
            bits, stats = pb.specialize(assign)
            want, want_stats = ref_scg.specialize(pb, assign)
            assert bits.dtype == want.dtype == np.uint8
            assert np.array_equal(bits, want)
            assert stats == want_stats
            step = "load_full" if k == 0 else "respecialize"
            got_rec = getattr(fast, step)(assign)
            want_rec = getattr(ref, step)(assign)
            assert got_rec.frames_touched == want_rec.frames_touched
            assert got_rec.stats == want_rec.stats

    def test_direct_nodes(self):
        """Nodes only ``BoolExpr._make`` builds: constants inside a DAG,
        one- and zero-argument gates, wide xors."""
        sp = ParameterSpace([f"p{i}" for i in range(4)])
        a, b, c, d = (bf_var(i) for i in range(4))
        make = BoolExpr._make
        nodes = [
            make("and", (a, bf_const(1))),
            make("or", (b, bf_const(0))),
            make("not", (bf_const(0),)),
            make("xor", (c,)),
            make("xor", ()),
            make("and", ()),
            make("or", ()),
            make("xor", (a, b, c, d)),
            make("and", (make("xor", (a, b, c)), bf_not(d))),
        ]
        pb = ParameterizedBitstream(sp, len(nodes))
        for i, e in enumerate(nodes):
            pb.set_tunable(i, e)
        for point in range(16):
            assign = sp.assignment(
                {name: (point >> i) & 1 for i, name in enumerate(sp.names)}
            )
            bits, stats = pb.specialize(assign)
            want, want_stats = ref_scg.specialize(pb, assign)
            assert np.array_equal(bits, want) and stats == want_stats
