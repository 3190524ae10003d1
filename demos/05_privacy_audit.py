"""Demonstration: certified privacy audit on neighboring datasets.

At desk scale the reference output laws are computed exactly (as interval
pmfs), so the privacy inequality can be checked per event with certified
bounds instead of noisy sampling: the audit flags a violation only when
some event provably exceeds the budget. The mode comes from the params
object: PureParams for the pure release, ApproxParams for the approximate
one. Both are audited below.
"""

from fractions import Fraction

from frugaldp import CountVector, derive_approx_params, derive_pure_params, privacy_audit


def show(title, report, eps, delta):
    print(title)
    print(f"  certified max log-ratio : {report.epsilon_hat:.6f} (budget {float(eps):.6f})")
    print(f"  certified delta slack   : {report.delta_slack:.3e} (budget {float(delta):.3e})")
    print(f"  events examined         : {report.events_examined}")
    print(f"  verdict                 : {'PASS' if report.passed else 'FAIL'}")
    print()


# Pure DP at eps = 1/16 for one counting query; neighboring datasets differ
# by one row whose predicate bit is 1.
eps = Fraction(1, 16)
params = derive_pure_params(eps, d=1, s=2)
base = CountVector(d=1, n=10, sums=(4,))
neighbor = CountVector(d=1, n=10, sums=(5,))

show("pure release, eps = 1/16", privacy_audit(base, neighbor, params, eps, Fraction(0)), eps, 0)

# Auditing against a tighter budget than the mechanism provides must fail.
strict = privacy_audit(base, neighbor, params, eps / 4, Fraction(0))
print(f"the pure mechanism audited at eps/4: {'PASS' if strict.passed else 'FAIL'} "
      f"(slack {strict.delta_slack:.3e})")
print()

# Approximate DP at eps = 1/2, delta = 2**-10 on the same neighbors: the
# oracle is the truncated Gaussian on (-r, r), pushed onto the grid r * s.
a_eps, a_delta = Fraction(1, 2), Fraction(1, 1 << 10)
a_params = derive_approx_params(a_eps, a_delta, d=1, s=2)
a_report = privacy_audit(base, neighbor, a_params, a_eps, a_delta)
show(f"approximate release, eps = 1/2, delta = 2**-10 (r = {a_params.r})", a_report, a_eps, a_delta)

print("The audit is one-sided and sound: it reports FAIL only on a provable")
print("violation, never because of enclosure width or sampling noise.")
