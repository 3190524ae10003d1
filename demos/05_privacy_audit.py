"""Demonstration: certified privacy audit on neighboring datasets.

At desk scale the reference output laws are computed exactly (as interval
pmfs), so the privacy inequality can be checked per event with certified
bounds instead of noisy sampling: the audit flags a violation only when
some event provably exceeds the budget. The mode comes from the params
object: PureParams here, ApproxParams for the approximate release.
"""

from fractions import Fraction

from frugaldp import CountVector, derive_pure_params, privacy_audit

# Pure DP at eps = 1/16 for one counting query; neighboring datasets differ
# by one row whose predicate bit is 1.
eps = Fraction(1, 16)
params = derive_pure_params(eps, d=1, s=2)
base = CountVector(d=1, n=10, sums=(4,))
neighbor = CountVector(d=1, n=10, sums=(5,))

report = privacy_audit(base, neighbor, params, eps, Fraction(0))
print("pure release, eps = 1/16")
print(f"  certified max log-ratio : {report.epsilon_hat:.6f} (budget {float(eps):.6f})")
print(f"  certified delta slack   : {report.delta_slack:.3e} (budget 0)")
print(f"  events examined         : {report.events_examined}")
print(f"  verdict                 : {'PASS' if report.passed else 'FAIL'}")
print()

# Auditing against a tighter budget than the mechanism provides must fail.
strict = privacy_audit(base, neighbor, params, eps / 4, Fraction(0))
print(f"same mechanism audited at eps/4: {'PASS' if strict.passed else 'FAIL'} "
      f"(slack {strict.delta_slack:.3e})")
print()
print("The audit is one-sided and sound: it reports FAIL only on a provable")
print("violation, never because of enclosure width or sampling noise.")
