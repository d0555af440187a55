"""
The hostility model, checked against its own closed form
=========================================================

Hostility is a per-iteration coin flip: every alive agent dies with
probability p, independently, forever.  Plans specify hostility as the
expected fraction lost by a horizon iteration; death_fraction_to_prob
inverts that into p.  Here we convert the two standard presets (15%
and 30% lost by iteration 500), then run a seeded Monte Carlo through
the engine's death channel and compare against the expectation
N * (1 - p)^t.
"""

import numpy as np

from swarmtopo import death_fraction_to_prob
from swarmtopo.engine import CHANNEL_DEATH, make_rand_source

AGENTS = 100
HORIZON = 500
TRIALS = 400

for fraction in (0.15, 0.30):
    prob = death_fraction_to_prob(fraction, HORIZON)
    print(f"death fraction {fraction:.0%} by iteration {HORIZON} -> p = {prob:.9f}")

    # lanes are independent streams, so one source row carries all trials
    rand = make_rand_source([2024])
    alive = np.ones((AGENTS, TRIALS), dtype=bool)
    checkpoints = {100: None, 250: None, 500: None}
    for iteration in range(1, HORIZON + 1):
        alive &= rand(CHANNEL_DEATH, iteration, AGENTS, TRIALS)[0] >= prob
        if iteration in checkpoints:
            checkpoints[iteration] = alive.sum(axis=0).mean()

    print(f"  {'t':>4}  {'simulated':>9}  {'expected':>8}")
    for iteration, simulated in checkpoints.items():
        expected = AGENTS * (1.0 - prob) ** iteration
        print(f"  {iteration:>4}  {simulated:>9.2f}  {expected:>8.2f}")
    print()
