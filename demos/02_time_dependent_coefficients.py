"""Time-dependent coefficients: the two-clock splitting and CF4 backward pass.

With time-varying data the backward pass uses the commutator-free
fourth-order Magnus integrator, and the forward splitting treats time as
two separate coordinates so that each sub-flow stays exactly solvable.
The terminal gain defect then decays at the order of the scheme, which
gives a free accuracy estimate per run.
"""

import numpy as np

from splitlq import LQProblem, TimeMatrix, backward_nonautonomous, integrate_forward

# Drift that ramps from ~1 to ~3 mid-horizon, discounted weights.
a = lambda t: np.array([[2.0 + np.tanh(5.0 * (t - 0.5))]])
q = lambda t: np.array([[(2.0 / 11.0) * np.exp(-0.1 * t)]])
r = lambda t: np.array([[(11.0 / 2.0) * np.exp(-0.1 * t)]])

prob = LQProblem(
    A=TimeMatrix.from_function(a, (1, 1)),
    B=TimeMatrix.from_constant([[1.0]]),
    Q=TimeMatrix.from_function(q, (1, 1)),
    R=TimeMatrix.from_function(r, (1, 1)),
    QT=np.zeros((1, 1)),
    x0=[10.0],
    t0=0.0,
    T=1.0,
)

flow0 = backward_nonautonomous(prob, steps=128)
print(f"backward pass done: U(0) = {flow0.U[0,0]:.10f}, V(0) = {flow0.V[0][0, 0]:.10f}")

print("\nterminal-defect decay per scheme (the defect ~ h^order):")
print("steps   sp2          sp4          sp6")
for steps in (8, 16, 32, 64):
    defects = [integrate_forward(prob, flow0, steps, method=m).terminal_gain_defect
               for m in ("sp2", "sp4", "sp6")]
    print(f"{steps:4d}  " + "  ".join(f"{d:.5e}" for d in defects))

print("\nhalving h divides the sp2 column by ~4 and the sp4 column by ~16")
print("until they reach the backward-pass noise floor (~1e-11 here), which")
print("sp6 hits almost immediately.")
