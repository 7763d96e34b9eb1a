"""Finding limit cycles and periods.

Each registered oscillator is scouted for 20 time units, a Poincare
section is placed through the coordinate with the largest swing, and two
section crossings give a first guess of the period and of 16 segment
starts along one period.  Multiple-shooting Newton then solves for the
segment starts and the period together.  The result is a uniform-phase
sampled orbit, 32 samples per converged segment.
"""
import numpy as np

from floqnet import find_limit_cycle, vdp_model, repressilator_model, \
    linear_rotation_model

print("= Van der Pol, mu = 1")
vdp = vdp_model(1.0)
lc = find_limit_cycle(vdp)
print(f"  period            {lc.period:.9f}")
print(f"  closure residual  {lc.closure_residual:.2e}")
print(f"  anchor            {np.round(lc.anchor, 6)}")
print(f"  amplitude of x1   {lc.samples[:, 0].min():+.4f} .. "
      f"{lc.samples[:, 0].max():+.4f}")

print("\n= Repressilator, alpha=1000, alpha0=1, beta=5, n=2")
rep = repressilator_model()
lc_rep = find_limit_cycle(rep)
print(f"  period            {lc_rep.period:.9f}")
print(f"  closure residual  {lc_rep.closure_residual:.2e}")
print(f"  mRNA m1 swing     {lc_rep.samples[:, 0].min():.2f} .. "
      f"{lc_rep.samples[:, 0].max():.2f}")
print(f"  protein p1 swing  {lc_rep.samples[:, 1].min():.2f} .. "
      f"{lc_rep.samples[:, 1].max():.2f}")

print("\n= Harmonic rotation (analytic sanity: period 2*pi)")
lc_rot = find_limit_cycle(linear_rotation_model())
print(f"  period            {lc_rot.period:.12f}")
print(f"  2*pi              {2 * np.pi:.12f}")
