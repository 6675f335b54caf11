import math
import random
from fractions import Fraction

import numpy as np
import pytest

import support
from flexnum.concretize import Concretization
from flexnum.errors import FullNotConcretizable
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

    @pytest.mark.parametrize("index", range(len(NUMBERS)))
    def test_draws_exactly_what_sample_draws(self, conc, index):
        a = self.NUMBERS[index]
        draw = conc.sampler(a)
        rng, twin = conc.rng(41), conc.rng(41)
        for size in (1, 7, 7, 64):
            got = draw(rng, size)
            want = conc.sample(a, twin, size=size)
            assert got.dtype == want.dtype and got.shape == want.shape == (size,)
            assert got.tobytes() == want.tobytes()
        # Both generators stand at the same place afterwards.
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("index", range(3))
    def test_precise_value_consumes_no_randomness(self, conc, index):
        a = self.NUMBERS[index]
        rng, fresh = conc.rng(42), conc.rng(42)
        assert np.all(conc.sampler(a)(rng, 5) == conc.center(a))
        assert rng.random() == fresh.random()

    def test_full_line_refused_when_built(self, conc):
        with pytest.raises(FullNotConcretizable):
            conc.sampler(from_neutrix(FULL))
        with pytest.raises(FullNotConcretizable):
            conc.sampler(monomial(1) + from_neutrix(FULL))


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

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("FLEX_EPS0", "1e-4")
        monkeypatch.setenv("FLEX_SEED", "99")
        conc = Concretization.from_env()
        assert conc.eps0 == 1e-4 and conc.seed == 99
        conc2 = Concretization.from_env(seed=3)
        assert conc2.seed == 3
