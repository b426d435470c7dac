"""A two-player zero-sum game: coupled Riccati equations, no linearization.

Cross weights couple the two Riccati equations quadratically, so the
linear-block trick is unavailable.  The solver integrates backward with a
symmetric second-order map (exact linear part, Taylor quadratic part)
and Richardson extrapolation over three step sizes, then forward with the
same map composed to order four.  The extrapolated backward pass converges
at order five: the degree-4 Taylor substep is not time-symmetric, so the
base map keeps an h^5 error term that the extrapolation does not remove.  The terminal-condition defect doubles
as the accuracy readout.
"""

import numpy as np

from splitlq import GameProblem, TimeMatrix, solve_zero_sum

C = TimeMatrix.from_constant

game = GameProblem(
    A=C([[-1.0]]),
    B=(C([[1.0]]), C([[1.0]])),
    R=(C([[2.0]]), C([[3.0]])),          # each player's own effort weight
    Q=(C([[1.0]]), C([[0.5]])),
    QT=(np.array([[0.4]]), np.array([[0.2]])),
    x0=np.array([1.5]),
    cross_R={(1, 2): C([[5.0]]), (2, 1): C([[4.0]])},  # opponent weights
)

traj = solve_zero_sum(game, steps_backward=16, steps_forward=32)

print("   t     x        P1        P2       u_1       u_2")
for k in range(0, 33, 8):
    print(f"{traj.times[k]:5.3f}  {traj.states[k][0]:.5f}  "
          f"{traj.gains[k][0][0,0]:.6f}  {traj.gains[k][1][0,0]:.6f}  "
          f"{traj.controls[0][k][0]:+.5f}  {traj.controls[1][k][0]:+.5f}")

print(f"\nterminal-condition defect (accuracy estimate): "
      f"{traj.terminal_gain_defect:.2e}")

# Sanity check: sending the cross weights to infinity recovers the
# plain (non-zero-sum) game in which each cost ignores the other control.
relaxed = GameProblem(
    A=game.A, B=game.B, R=game.R, Q=game.Q, QT=game.QT, x0=game.x0,
    cross_R={(1, 2): C([[1e8]]), (2, 1): C([[1e8]])},
)
t2 = solve_zero_sum(relaxed, steps_backward=16, steps_forward=32)
print(f"with negligible cross coupling, x(T) moves from "
      f"{traj.terminal_state[0]:.6f} to {t2.terminal_state[0]:.6f}")
