"""Averaged character twists of a Hecke eigenform, two ways.

For a synthetic eigenform at a composite discriminant D = 15, the averaged
twist f*[l] can be evaluated either as a sum over the subsets of the prime
divisors of D or by a closed product formula; the library cross-checks the
two on every call.  This demo prints a few coefficients of f*[1], verifies
the twisted form lands in the plus space (l-th coefficient vanishes when
the class number count a_D(l) does), and shows that at a prime
discriminant the full twist is plain complex conjugation.

Run:  python3 demos/eigenform_twists.py
"""

import random

from hermlift import QuadField, a_D, is_prime
from hermlift.ikeda import (fQ_coeff, fstar_coeff, fstar_plus_check,
                            rho_coeff, synthetic_eigendata)

primes = [p for p in range(2, 260) if is_prime(p)]

f = QuadField(15)
ed = synthetic_eigendata(f, 7, 1, primes, random.Random(4))
print("synthetic eigendata at D = 15, weight 7; a(p) for small p:")
for p in (2, 3, 5, 7, 11, 13):
    print(f"  a({p}) = {ed.a(p)}")

print("\ncoefficients of the averaged twist f*[1] "
      "(subset sum == product form, checked internally):")
for M in range(1, 13):
    print(f"  a_f*(M={M:2d}) = {fstar_coeff(ed, 1, M)}")

assert fstar_plus_check(ed, 1, 150)
print("\nplus-space membership: a_f*(n) = 0 whenever a_D(n) = 0, n <= 150.")
zeros = [n for n in range(1, 30) if a_D(f, n) == 0]
print(f"  (first such n: {zeros[:8]})")

g = QuadField(7)
ed7 = synthetic_eigendata(g, 7, 1, primes, random.Random(1))
assert all((fQ_coeff(ed7, {7}, M) - rho_coeff(ed7, M)).is_zero()
           for M in range(1, 150))
print("\nat prime D = 7 the full twist f_{7} equals f^rho "
      "(conjugated coefficients), checked for M < 150.")
