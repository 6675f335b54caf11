"""Flexible recurrences: sampled representative paths and near-stability.

A recurrence with external-number coefficients is solved by envelopes of
internal paths: every step draws a fresh representative of each coefficient.
That convention is what makes repeated multiplication by the infinitesimal
neutrix produce the family L*exp(-n*oo) (recognized by |x|^(1/n) being
infinitesimal) instead of a fixed monomial.

Stability verdicts are honest about decidability: affine systems get proofs,
everything else can only be falsified by sampling.
"""

from fractions import Fraction

import numpy as np

from flexnum.concretize import Concretization
from flexnum.extnum import from_neutrix, monomial
from flexnum.recur import (
    OslashPow,
    RecurrenceSpec,
    affine_spec,
    classify_stability,
    sample_paths,
)
from flexnum.scale import OSLASH, pound
from flexnum.seq import Const, Mul, Var

conc = Concretization(eps0=1e-3, seed=7)

print("== powers of the infinitesimal neutrix ==")
spec = RecurrenceSpec(Mul(Const(from_neutrix(OSLASH)), Var("u")), monomial(1), horizon=8)
path = sample_paths(spec, conc, count=1, seed=1)[0]
for n, value in enumerate(path.values):
    member = "-" if n == 0 else OslashPow(n).contains(value, conc)
    print(f"  t_{n} = {value: .3e}   in o^{n}: {member}")

print()
print("== affine contraction u_{n+1} = (1/2 + o) u_n + e*L ==")
alpha = monomial(Fraction(1, 2)) + from_neutrix(OSLASH)
spec = affine_spec(alpha, pound(1), monomial(1), horizon=60)
paths = sample_paths(spec, conc, count=2000, seed=2)
print(f"  2000 paths, horizon 60; final spread max|t_60| = {np.abs(paths.values[-1]).max():.3e},"
      f" a limited multiple of the e*L radius {conc.radius(pound(1)):.3e}"
      " (groups absorb limited factors, so the paths sit inside e*L)")
verdict = classify_stability(spec, monomial(0), pound(1), conc)
print(f"  verdict: stable={verdict.stable.value}, "
      f"asymptotic={verdict.asymptotically_stable.value}, "
      f"strong={verdict.strongly_asymptotically_stable.value}")
print(f"  differences settle in {verdict.evidence['limit_neutrix']} = e*L/(1 - |1/2 + o|)")

print()
print("== a drain: stable without attracting ==")
# u_{n+1} = (-1 + n^-2) u_n + 2 - n^-2 + (-1)^n (n^-2 - (n+1)^-2 - n^-4)
# has the solution 1 + (-1)^n/n^2.  Perturbations neither blow up nor decay:
# the difference equation d_{n+1} = (-1 + n^-2) d_n contracts only by a
# convergent product, so an appreciable kick stays appreciable forever.
from flexnum.seq import ALT, Add, N, Pow

n_2 = Pow(N, Fraction(-2))
np1_2 = Pow(Add(N, Const(monomial(1))), Fraction(-2))
n_4 = Pow(N, Fraction(-4))
f = (
    Mul(Add(Const(monomial(-1)), n_2), Var("u"))
    + Const(monomial(2))
    - n_2
    + Mul(ALT, n_2 - np1_2 - n_4)
)
drain = RecurrenceSpec(f, monomial(Fraction(5, 4)), horizon=400, n0=2)

path = sample_paths(drain, conc, count=1, seed=3, compensated=True)[0]
errs = [abs(path.values[i] - (1 + (-1) ** n / n ** 2)) for i, n in enumerate(range(2, 402))]
print(f"  the sampled path tracks 1 + (-1)^n/n^2 to {max(errs):.2e}")
dv = classify_stability(drain, drain.u0, OSLASH, conc, samples=300, seed=4)
print(f"  o-stability: {dv.stable.value} (small kicks stay small: not falsified)")
print(f"  o-asymptotic stability: {dv.asymptotically_stable.value}"
      " (appreciable kicks never die out)")
