"""Parameter spaces, assignments and the parameterized bitstream."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.boolfunc import BoolExpr, bf_conj, bf_const, bf_not, bf_var
from repro.core.parameters import ParameterSpace
from repro.core.pconf import ParameterizedBitstream
from repro.errors import ParameterError, SpecializationError


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

    def test_with_values_copy(self):
        sp = ParameterSpace(["a"])
        base = sp.zeros()
        mod = base.with_values({"a": 1})
        assert base["a"] == 0 and mod["a"] == 1

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

    def test_specialize_packed(self):
        sp, pb = self.make()
        pb.set_constant(0, 1)
        words, _ = pb.specialize_packed(sp.zeros())
        assert int(words[0]) & 1 == 1
