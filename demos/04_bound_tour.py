"""Every closed-form bound on one problem, and how the modulus tightens them.

The four gap bounds consume |f'| at the endpoints (and midpoint) under phi
plus the certified modulus c of |f'|^q; larger c subtracts a larger
quadratic correction inside each bracket, so every bound decreases until its
bracket hits zero. Past that c, gap_bound returns an ERROR row, not a value.
The sandwich bounds the integral mean of f itself from both sides.
"""

from hhbounds import derivative_inputs, gap_bound, run_check, spec_from_config, validate

spec = validate(
    spec_from_config(
        {"f": "exp(x)", "a": 0, "b": 1, "q": 2, "c_f": 0.5, "c_deriv": 2.0,
         "id": "exp-demo"}
    )
)
report = run_check(spec)
print(f"spec {report.spec_id}: gap = {report.gap:.8f}, mean = {report.mean:.8f}")
print(f"{'row':>22} {'status':>8} {'bound':>12} {'margin':>12} {'tightness':>10}")
for row in report.rows:
    bound = "" if row.bound is None else f"{row.bound:12.8f}"
    margin = "" if row.margin is None else f"{row.margin:12.8f}"
    tight = "" if row.tightness is None else f"{row.tightness:10.4f}"
    print(f"{row.theorem_id:>22} {row.status:>8} {bound:>12} {margin:>12} {tight:>10}")

print("\nSweeping the modulus on f = x^2, q = 2 (|f'|^2 = 4x^2 admits c up to 4):")
print(f"{'c':>4} {'power_mean':>12} {'split':>12} {'relaxed':>12} {'holder':>12}")
for c in (0.0, 1.0, 2.0, 3.0, 4.0):
    s = validate(spec_from_config({"f": "x^2", "a": 0, "b": 1, "q": 2, "c_deriv": c}))
    rows = [gap_bound(tid, derivative_inputs(s))
            for tid in ("power_mean", "split_holder", "split_holder_relaxed", "holder")]
    cells = [f"{'bracket < 0':>12}" if bv.value is None else f"{bv.value:12.8f}" for bv in rows]
    print(f"{c:4.1f} " + " ".join(cells))

print("\nAt c = 4 the midpoint brackets go negative: the midpoint derivative")
print("is too small to absorb the full correction, so those bounds refuse")
print("to evaluate rather than emit a NaN.")
