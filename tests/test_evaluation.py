"""The evaluation contract of black-box operators, and what it validates.

groups.validated is the one routine that checks shape and finiteness and
keeps a private read-only copy.  A Signal runs it on its values; a checker
runs it once on each (cases, order) stack and hands the box every row as a
read-only Signal viewing that copy; a box's output is the Signal it built.
The counts below guard that no input row is validated again one by one.
"""

import sys
import warnings

import numpy as np
import pytest

from convalg import (Group, Operator, Signal, apply, check_conv_homomorphism,
                     check_exchange_axioms, check_involution_symmetry,
                     classify_exchange, compose, construct_exchange)
from convalg import groups, operators
from convalg.exchange import SWEEP_SIGNALS
from convalg.operators import apply_each, random_values

BAD = [complex(np.nan, 0), complex(0, np.nan), complex(np.inf, 0), complex(-np.inf, 0),
       complex(0, np.inf), complex(0, -np.inf)]
HUGE = [1e308, -1e308, 1e308j, -1e308j, 1e308 * (1 + 1j), -1.7e308 * (1 - 1j)]


def watching(group: Group, fn, seen: list) -> Operator:
    """Black box running fn, which appends each input Signal itself to seen."""
    def run(a: Signal) -> Signal:
        seen.append(a)
        return fn(a)
    return Operator.from_function(group, run)


@pytest.fixture
def validations(monkeypatch):
    """The shape of every groups.validated call, wherever convalg binds it."""
    shapes = []
    real = groups.validated

    def counting(values, shape, *args):
        shapes.append(shape)
        return real(values, shape, *args)

    for name, mod in list(sys.modules.items()):
        if name == "convalg" or name.startswith("convalg."):
            for key, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, key, counting)
    return shapes


class TestEvaluationContract:
    def test_box_meets_read_only_rows_of_the_stacks_in_order(self):
        g = Group((2, 3))
        rng = np.random.default_rng(0)
        stacks = [random_values(g, rng, 4) for _ in range(3)]
        seen = []
        out = apply_each(watching(g, lambda a: Signal(g, 2 * a.values), seen), *stacks)
        assert len(seen) == 12
        for k, a in enumerate(seen):
            i, s = divmod(k, 3)
            assert type(a) is Signal and a.group is g
            assert not a.values.flags.writeable
            assert a.values.tobytes() == stacks[s][i].tobytes()
        for s, o in zip(stacks, out):
            assert np.array_equal(o, 2 * s)

    def test_writing_to_the_input_inside_the_box_raises(self):
        g = Group(4)

        def writer(a):
            a.values[0] = 7.0
            return a
        with pytest.raises(ValueError, match="read-only"):
            apply_each(Operator.from_function(g, writer), np.eye(4))

    def test_caller_stack_mutations_change_nothing(self):
        g = Group(5)
        stack = random_values(g, np.random.default_rng(1), 3)
        before = stack.copy()

        def scribbler(a):
            stack[:] = 0.0      # during the evaluation: later rows are unaffected
            return a
        seen = []
        out = apply_each(watching(g, scribbler, seen), stack)[0]
        assert np.array_equal(out, before)
        stack[:] = 9.0          # after it returns
        assert all(np.array_equal(a.values, row) for a, row in zip(seen, before))
        assert np.array_equal(out, before)

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("which", [0, 1])
    def test_nonfinite_stack_raises_before_any_evaluation(self, bad, which):
        g = Group(3)
        stacks = [np.ones((2, 3), dtype=complex), np.ones((2, 3), dtype=complex)]
        stacks[which][1, 2] = bad
        seen = []
        with pytest.raises(ValueError, match="finite"):
            apply_each(watching(g, lambda a: a, seen), *stacks)
        assert seen == []

    def test_misshapen_stacks_raise_before_any_evaluation(self):
        g = Group(3)
        seen = []
        for stacks in ([np.ones((2, 4))], [np.ones((2, 3)), np.ones((3, 3))]):
            with pytest.raises(ValueError, match="shape"):
                apply_each(watching(g, lambda a: a, seen), *stacks)
        assert seen == []

    @pytest.mark.parametrize("bad", BAD)
    def test_box_returning_nonfinite_values_is_refused(self, bad):
        g = Group(3)
        T = Operator.from_function(g, lambda a: Signal(g, a.values + bad))
        with pytest.raises(ValueError, match="^signal values must be finite$"):
            apply_each(T, np.eye(3))
        with pytest.raises(ValueError, match="^signal values must be finite$"):
            check_conv_homomorphism(T, "sampled", count=2)

    @pytest.mark.parametrize("box", [
        lambda a: Signal(Group(4), np.ones(4)),         # another group
        lambda a: Signal(Group((3, 1)), a.values),      # same order, other factors
        lambda a: a.values,                             # not a Signal
    ])
    def test_box_returning_a_stranger_is_refused(self, box):
        T = Operator.from_function(Group(3), box)
        with pytest.raises(ValueError, match="wrong group"):
            apply_each(T, np.eye(3))
        with pytest.raises(ValueError, match="wrong group"):
            check_exchange_axioms(T, count=1)

    def test_equal_groups_need_not_be_the_same_object(self):
        T = Operator.from_function(Group(3), lambda a: Signal(Group(3), a.values))
        assert np.array_equal(apply(T, Signal(Group(3), [1, 2, 3])).values, [1, 2, 3])

    def test_sweep_and_involution_boxes_meet_read_only_draws(self):
        g = Group(6)
        seen = []
        T = watching(g, construct_exchange(g, 5, True), seen)
        assert classify_exchange(T, seed=3).eta == 5
        sweep = random_values(g, np.random.default_rng(3), SWEEP_SIGNALS)
        assert [a.values.tobytes() for a in seen[-SWEEP_SIGNALS:]] == [
            row.tobytes() for row in sweep]
        seen.clear()
        dft = Operator.dft(g, unitary=True)
        assert check_involution_symmetry(watching(g, dft, seen), samples=3, seed=4).passed
        draw = random_values(g, np.random.default_rng(4), 3)
        assert [a.values.tobytes() for a in seen[::2]] == [row.tobytes() for row in draw]
        assert all(a.group is g and not a.values.flags.writeable for a in seen)


class TestFiniteness:
    @pytest.mark.parametrize("big", HUGE)
    def test_entries_near_the_largest_float_are_accepted_silently(self, big):
        g = Group(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Signal(g, [big, 0, -big])[0] == big
            assert Operator.from_table(g, np.full((3, 3), big)).table[2, 1] == big
            out = apply_each(Operator.from_function(g, lambda a: a), np.full((2, 3), big))
            assert np.array_equal(out[0], np.full((2, 3), big))

    def test_values_and_tables_are_private_read_only_copies(self):
        v = np.arange(3, dtype=complex)
        table = np.eye(3, dtype=complex)
        a, T = Signal(Group(3), v), Operator.from_table(Group(3), table)
        v[0], table[0, 0] = 5.0, 5.0
        assert a.values[0] == 0 and T.table[0, 0] == 1
        assert not a.values.flags.writeable and not T.table.flags.writeable

    @pytest.mark.parametrize("op, reference", [
        (groups.dft, lambda v: np.fft.fftn(v.reshape(3, 4)).ravel()),
        (groups.idft, lambda v: np.fft.ifftn(v.reshape(3, 4)).ravel()),
        (lambda a: groups.convolve(a, a), lambda v: groups.convolve_values(v, v, Group((3, 4)))),
        (lambda a: groups.pointwise_mul(a, a), lambda v: v * v),
    ], ids=["dft", "idft", "convolve", "pointwise_mul"])
    def test_computed_signals_are_checked_and_frozen_in_place(self, op, reference,
                                                              validations):
        a = Signal(Group((3, 4)), random_values(Group(12), np.random.default_rng(2), 1)[0])
        validations.clear()
        out = op(a)
        assert validations == []
        assert out.values.tobytes() == reference(a.values).tobytes()
        assert not out.values.flags.writeable
        huge = Signal(Group((3, 4)), np.full(12, 1e308))
        # pytest's error::RuntimeWarning filter turns a leaked warning into a failure
        with pytest.raises(ValueError, match="^signal values must be finite$"):
            op(huge)

    def test_tables_are_copied_in_row_order(self):
        # a column-ordered table would send T.table @ x through another BLAS
        # kernel, whose sums round differently
        g = Group(8)
        m = random_values(g, np.random.default_rng(6), 8)
        x = random_values(g, np.random.default_rng(7), 1)[0]
        T = Operator.from_table(g, np.asfortranarray(m))
        assert T.table.flags.c_contiguous
        assert (T.table @ x).tobytes() == (np.ascontiguousarray(m) @ x).tobytes()


class TestValidatedOnce:
    def test_sampled_check_validates_each_stack_once(self, validations):
        g, count = Group(12), 5
        calls = []
        T = watching(g, lambda a: Signal(g, np.fft.fft(a.values)), calls)
        assert check_conv_homomorphism(T, "sampled", count=count).passed
        # the convolved, f and g stacks, then one output per evaluation
        assert validations == [(count, 12)] * 3 + [(12,)] * (3 * count)
        assert len(calls) == 3 * count

    def test_exchange_axioms_validate_each_stack_once(self, validations):
        g = Group(8)
        calls = []
        assert check_exchange_axioms(watching(g, construct_exchange(g, 3), calls),
                                     count=4).passed
        cases = 4 + 4 + 4          # random pairs, constants, point masses
        assert validations == [(cases, 8)] * 4 + [(8,)] * (4 * cases)
        assert len(calls) == 4 * cases

    def test_classify_exchange_validates_its_probes_and_stacks_once(self, validations):
        n = 10
        g = Group(n)
        calls = []
        assert classify_exchange(watching(g, construct_exchange(g, 3), calls)).eta == 3
        # each step's probe stack, then one output per evaluation of it
        steps = (3, n - 1, 4, SWEEP_SIGNALS)
        assert validations == [v for m in steps for v in [(m, n)] + [(n,)] * m]
        assert len(calls) == sum(steps)

    def test_involution_validates_its_draw_once(self, validations):
        g, samples = Group(9), 6
        calls = []
        T = watching(g, lambda a: Signal(g, np.fft.fft(a.values, norm="ortho")), calls)
        assert check_involution_symmetry(T, samples=samples).passed
        assert validations == [(samples, 9)] + [(9,)] * (2 * samples)
        assert len(calls) == 2 * samples


class TestDenseCompose:
    def test_dense_after_box_multiplies_the_image_once(self, monkeypatch):
        g = Group(7)

        def flip(a):
            return Signal(g, np.conj(a.values[::-1]))
        calls, applied = [], []
        C = compose(Operator.idft(g), watching(g, flip, calls))
        real_apply = operators.apply

        def counting(T, x):
            applied.append(T)
            return real_apply(T, x)
        monkeypatch.setattr(operators, "apply", counting)
        a = Signal(g, random_values(g, np.random.default_rng(2), 1)[0])
        got = C(a)
        # C itself, then the box; the dense inverse is no nested apply
        assert len(applied) == 2 and applied[0] is C and len(calls) == 1
        assert got.values.tobytes() == (Operator.idft(g).table @ flip(a).values).tobytes()
