"""Cross-check the closed forms against the independent numerical oracles.

Two routes, coded independently of the analytics:
  * a Crank-Nicolson finite-difference solver for the reduced PDE in the
    numeraire coordinate x = V/Z, and
  * Monte-Carlo engines, one on the reduced dynamics and one simulating the
    raw two-factor (r, V) system with a Brownian-bridge barrier correction.
"""

import numpy as np

from credbond import (
    BondSpec,
    GridConfig,
    MarketState,
    ModelParams,
    OptionSpec,
    bond_price,
    cn_solve,
    mc_forward,
    mc_spot,
    puttable_bond_price,
)
from credbond.bond import survival_curve

params = ModelParams(theta=1.0, mu=0.05, s_r=0.01, s_V=0.2, rho=-0.3,
                     barrier_b=0.6, recovery_r=0.4)
bond = BondSpec(maturity_T=2.0)
option = OptionSpec(expiry_T1=1.0, exercise_e=0.9)
state = MarketState(r=0.05, v=1.0, t=0.0)

closed = bond_price(state, bond, params)
print(f"closed-form bond price      : {closed.price:.6f}")

# finite differences on the survival PDE, then reassemble the price
sol = cn_solve(lambda x: np.ones_like(x), 0.0, 2.0, 2.0,
               params, grid=GridConfig(nx=400, nt=400))
w_fd = float(sol.interpolate(closed.x, 0.0))
fd_price = (params.recovery_r + (1 - params.recovery_r) * w_fd) * closed.z
print(f"finite-difference price     : {fd_price:.6f} "
      f"(rel err {abs(fd_price - closed.price) / closed.price:.1e})")

# reduced-coordinate Monte-Carlo with exact lognormal stepping
est = mc_forward(closed.x, 0.0, 2.0, params, 100_000, seed=1)
print(f"forward-measure Monte-Carlo : {est.mean * closed.z:.6f} "
      f"+- {est.std_error * closed.z:.6f}")

# full two-factor simulation of (r, V), the most independent check
est2 = mc_spot(state, bond, None, params, 50_000, steps_per_year=200, seed=1)
print(f"two-factor Monte-Carlo      : {est2.mean:.6f} +- {est2.std_error:.6f}")

# the same machinery verifies the option formulas; here the puttable bond
est3 = mc_spot(state, bond, option, params, 50_000, steps_per_year=200,
               seed=1, kind="puttable")
print(f"\nputtable bond closed form   : "
      f"{puttable_bond_price(state, option, bond, params):.6f}")
print(f"puttable bond Monte-Carlo   : {est3.mean:.6f} +- {est3.std_error:.6f}")
