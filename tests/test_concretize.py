import math
import random
from fractions import Fraction

import numpy as np
import pytest

import support
from flexnum.concretize import Concretization
from flexnum.errors import FullNotConcretizable, NumericOverflow
from flexnum.extnum import from_neutrix, lt, monomial
from flexnum.scale import FULL, MICRO, OSLASH, ZERO, oslash, pound


class TestRadius:
    def test_formulas(self):
        conc = Concretization(eps0=1e-4)
        assert math.isclose(conc.radius(OSLASH), 1e-2)
        assert conc.radius(ZERO) == 0.0
        assert math.isclose(conc.radius(pound(1)), 1e-2)  # flagged boundary: equals radius(o)
        assert math.isclose(conc.radius(MICRO), 1e-32)

    def test_monotone_with_inclusion(self, conc):
        pool = [ZERO, MICRO] + [k(q) for q in range(-3, 4) for k in (oslash, pound)]
        for a in pool:
            for b in pool:
                if a <= b:
                    assert conc.radius(a) <= conc.radius(b)

    def test_full_rejected(self, conc):
        with pytest.raises(FullNotConcretizable):
            conc.radius(FULL)

    def test_validation(self):
        with pytest.raises(ValueError):
            Concretization(eps0=0.5)
        with pytest.raises(ValueError):
            Concretization(eps0=-1e-3)

    def test_delta_keeps_e_times_L_inside_o(self):
        # At delta = 1/2, e*L and o share a radius; above it e*L would be wider.
        conc = Concretization(delta=Fraction(1, 2))
        assert conc.radius(pound(1)) == conc.radius(OSLASH)
        with pytest.raises(ValueError, match=r"^delta must be at most 1/2, got 51/100$"):
            Concretization(delta=Fraction(51, 100))
        with pytest.raises(ValueError, match=r"^delta must be at most 1/2, got 1$"):
            Concretization(delta=Fraction(1))

    def test_micro_exp_keeps_M_inside_o(self):
        conc = Concretization(micro_exp=Fraction(51, 100))
        assert conc.radius(MICRO) < conc.radius(OSLASH)
        with pytest.raises(ValueError, match=r"^micro_exp must exceed delta \(1/2\), got 1/2$"):
            Concretization(micro_exp=Fraction(1, 2))
        with pytest.raises(ValueError, match=r"^micro_exp must exceed delta \(1/8\), got 0$"):
            Concretization(delta=Fraction(1, 8), micro_exp=Fraction(0))


class TestSampling:
    def test_contains_examples(self):
        conc = Concretization(eps0=1e-4)
        five_o = monomial(5) + from_neutrix(OSLASH)
        assert conc.contains(5.0000001, five_o)
        assert not conc.contains(5.5, five_o)

    def test_samples_always_contained(self, conc):
        rng = conc.rng(1)
        random_state = random.Random(17)
        for i in range(100):
            x = support.rand_extnum(random_state)
            if x.neutrix.is_full:
                continue
            xs = conc.sample(x, rng, size=32)
            assert all(conc.contains(v, x) for v in np.atleast_1d(xs))

    def test_determinism_under_seed(self):
        a = Concretization(eps0=1e-3, seed=5)
        b = Concretization(eps0=1e-3, seed=5)
        x = monomial(1) + from_neutrix(OSLASH)
        assert np.array_equal(a.sample(x, a.rng(3), size=16), b.sample(x, b.rng(3), size=16))
        c = Concretization(eps0=1e-3, seed=6)
        assert not np.array_equal(a.sample(x, a.rng(3), size=16), c.sample(x, c.rng(3), size=16))

    def test_stream_independence(self, conc):
        x = from_neutrix(OSLASH)
        s1 = conc.sample(x, conc.rng(1), size=8)
        s2 = conc.sample(x, conc.rng(2), size=8)
        assert not np.array_equal(s1, s2)


class TestSampler:
    """The block drawer against per-step ``sample`` calls and the per-draw
    formula ``c + rng.uniform(-r, r, size)`` that it stands for."""

    NUMBERS = [
        from_neutrix(ZERO),
        monomial(3),
        monomial(Fraction(-7, 4), 2),
        from_neutrix(MICRO),
        monomial(2) + from_neutrix(MICRO),
    ] + [
        monomial(Fraction(1, 3)) + from_neutrix(kind(q))
        for q in (-2, 0, Fraction(1, 2), 3)
        for kind in (oslash, pound)
    ]
    PRECISE = NUMBERS[:3]

    @staticmethod
    def per_draw(conc, a, rng, size):
        r = conc.radius(a.neutrix)
        return conc.center(a) + rng.uniform(-r, r, size=size) if r else np.full(size, conc.center(a))

    @pytest.mark.parametrize("index", range(len(NUMBERS)))
    def test_draws_exactly_what_sample_draws(self, conc, index):
        a = self.NUMBERS[index]
        centers, noisy, draw = conc.drawer([a])
        assert centers == [conc.center(a)] and noisy == ([0] if index >= 3 else [])
        rng, twin, loop = conc.rng(41), conc.rng(41), conc.rng(41)
        for steps, size in ((1, 1), (3, 7), (2, 64)):
            block = draw(rng, steps, size)
            assert block.dtype == float and block.shape == (steps, len(noisy), size)
            for i in range(steps):
                got = conc.sample(a, twin, size=size)
                want = self.per_draw(conc, a, loop, size)
                assert got.dtype == want.dtype and got.shape == want.shape == (size,)
                assert got.tobytes() == want.tobytes()
                if noisy:
                    assert block[i, 0].tobytes() == want.tobytes()
        # All three generators stand at the same place afterwards.
        assert rng.random() == twin.random() == loop.random()

    @pytest.mark.parametrize("index", range(3))
    def test_precise_value_consumes_no_randomness(self, conc, index):
        a = self.PRECISE[index]
        centers, noisy, draw = conc.drawer([a])
        assert noisy == [] and centers == [conc.center(a)]
        rng, fresh = conc.rng(42), conc.rng(42)
        assert draw(rng, 4, 5).shape == (4, 0, 5)
        assert np.all(conc.sample(a, rng, size=5) == conc.center(a))
        assert rng.random() == fresh.random()

    def test_full_line_refused_when_built(self, conc):
        for a in (from_neutrix(FULL), monomial(1) + from_neutrix(FULL)):
            with pytest.raises(FullNotConcretizable):
                conc.drawer([monomial(2), a])

    def test_block_equals_per_step_draws(self, conc):
        # All numbers in one list: precise ones interleave with noisy ones.
        centers, noisy, draw = conc.drawer(self.NUMBERS)
        assert centers == [conc.center(a) for a in self.NUMBERS]
        assert noisy == list(range(3, len(self.NUMBERS)))
        rng, loop = conc.rng(41), conc.rng(41)
        for steps, size in ((1, 1), (3, 7), (2, 64)):
            block = draw(rng, steps, size)
            assert block.shape == (steps, len(noisy), size)
            for i in range(steps):
                for j, a in enumerate(self.NUMBERS):
                    want = self.per_draw(conc, a, loop, size)
                    if j in noisy:
                        assert block[i, noisy.index(j)].tobytes() == want.tobytes()
        assert rng.random() == loop.random()

    def test_draws_contained(self, conc):
        _, noisy, draw = conc.drawer(self.NUMBERS)
        block = draw(conc.rng(43), 3, 32)
        for k, j in enumerate(noisy):
            assert all(conc.contains(x, self.NUMBERS[j]) for x in block[:, k].ravel())

    @pytest.mark.parametrize("index", range(len(NUMBERS)))
    def test_neutrix_draws_are_sample_draws(self, conc, index):
        # sample_neutrix draws what uniform(-r, r) drew before it went
        # through sample: bit for bit, leaving the generator at the same place.
        nx = self.NUMBERS[index].neutrix
        rng, loop = conc.rng(44), conc.rng(44)
        one = conc.sample_neutrix(nx, rng)
        r = conc.radius(nx)
        assert type(one) is float and one == (loop.uniform(-r, r) if r else 0.0)
        for size in (1, 7, 1000):
            got = conc.sample_neutrix(nx, rng, size=size)
            want = loop.uniform(-r, r, size=size) if r else np.zeros(size)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert rng.random() == loop.random()

    def test_unbounded_span_refused_naming_the_neutrix(self):
        conc = Concretization(eps0=1e-2)
        a = from_neutrix(pound(Fraction(-307, 2)))
        r = conc.radius(a.neutrix)
        with pytest.raises(OverflowError):
            conc.rng(0).uniform(-r, r, size=3)
        msg = r"^neutrix w\^\(307/2\)\*L has no interval at eps0=0\.01: its width overflows a double$"
        with pytest.raises(NumericOverflow, match=msg):
            conc.drawer([monomial(2), from_neutrix(pound(1)), a])[2](conc.rng(0), 1, 3)
        # No step, no draw: a step-by-step loop would never call uniform.
        assert conc.drawer([a])[2](conc.rng(0), 0, 3).shape == (0, 1, 3)

    def test_overflowing_radius_refused_naming_the_neutrix(self):
        conc = Concretization(eps0=1e-2)
        msg = r"^neutrix w\^200\*L has no interval at eps0=0\.01: its radius overflows a double$"
        with pytest.raises(NumericOverflow, match=msg):
            conc.radius(pound(-200))
        with pytest.raises(NumericOverflow, match=msg):
            conc.drawer([monomial(1) + from_neutrix(pound(-200))])


    @pytest.mark.parametrize("a, text", [
        (monomial(1, -400), r"w\^400"),
        (monomial(Fraction(10 ** 400), 1), r"\d+\*e"),
        (monomial(Fraction(10 ** 300), -100), r"\d+\*w\^100"),
        (monomial(Fraction(10 ** 300), -100) - monomial(Fraction(10 ** 300), -99), r"\d+\*w\^100 - \d+\*w\^99"),
    ], ids=["power", "coefficient", "product", "difference"])
    def test_overflowing_center_refused_naming_the_series(self, a, text):
        msg = rf"^{text} has no value at eps0=0\.001: it overflows a double$"
        with pytest.raises(NumericOverflow, match=msg):
            Concretization(eps0=1e-3).center(a)


class TestOrderSoundness:
    def test_separated_lt_pairs_sample_in_order(self, conc):
        rng_sym = random.Random(23)
        found = 0
        for i in range(400):
            a, b = support.rand_extnum(rng_sym), support.rand_extnum(rng_sym)
            if a.neutrix.is_full or b.neutrix.is_full:
                continue
            if not (lt(a, b) and conc.separated(a, b)):
                continue
            found += 1
            rng = conc.rng(500 + i)
            xs = conc.sample(a, rng, size=64)
            ys = conc.sample(b, rng, size=64)
            assert np.max(xs) < np.min(ys), (str(a), str(b))
        assert found > 30
