"""The engine's three-step update trace, computed by hand, shared by the
engine tests and the acceptance gate.

Two agents on a line maximize -x^2 over the complete graph of two,
under the fixed social-only constriction update

    v' = clip(CHI * (v + PHI * r * (g - x)), -10, 10),   x' = x + v',

where ``g`` is the best position of the leader (the agent with the
higher best score before the step, ties to agent 0) and ``r`` is the
agent's pinned draw, ``TRACE_DRAWS[step - 1][agent]``.  An agent keeps
its best unless its new score is higher.

Start: x = (1, -9.5), v = (0.5, 0), bests at x; agent 0 leads (-1 > -90.25).

1. Leader 0, g = 1.  Agent 0: g - x = 0, so v = CHI * 0.5 = 0.3649219,
   x = 1.3649219, no new best.  Agent 1: CHI * 2.05 * 0.75 * 10.5 =
   11.78241584625 hits the clamp: v = 10, x = 0.5, a new best.
2. Leader 1 (-0.25 > -1): the leader switches.  Agent 0:
   CHI * (0.3649219 + 2.05 * 0.5 * (0.5 - 1.3649219))
   = CHI * -0.5216230475 = -0.3807033471549805, x = 0.9842185528450195,
   a new best.  Agent 1: g - x = 0, so v = CHI * 10 = 7.298438,
   x = 7.798438, no new best.
3. Leader 1.  Agent 0: CHI * (-0.3807033471549805 + 2.05 * 0.25
   * (0.5 - 0.9842185528450195)) = CHI * -0.628865355488053
   = -0.4589734807377515, x = 0.525245072107268, a new best.
   Agent 1: CHI * (7.298438 + 2.05 * 0.5 * (0.5 - 7.798438))
   = CHI * -0.18246095 = -0.13316799309961, x = 7.66527000690039,
   no new best.
"""

import numpy as np

from swarmtopo.engine import CHANNEL_VELOCITY_SOCIAL, SwarmState

# the update's constants, as the constriction setup states them
CHI = 0.7298438
PHI = 2.05
V_MAX = 10.0


class Parabola:
    """Maximize -x^2 on a line."""

    dimension = 1
    lower = -5.0
    upper = 5.0

    def score_many(self, points):
        return -(np.asarray(points)[:, 0] ** 2)


# the social draw of each agent, rows: steps 1..3
TRACE_DRAWS = [[0.5, 0.75], [0.5, 0.25], [0.25, 0.5]]

# (positions, velocities, best positions) after steps 1..3
TRACE = [
    ([1.3649219, 0.5], [0.3649219, 10.0], [1.0, 0.5]),
    (
        [0.9842185528450195, 7.798438],
        [-0.3807033471549805, 7.298438],
        [0.9842185528450195, 0.5],
    ),
    (
        [0.525245072107268, 7.66527000690039],
        [-0.4589734807377515, -0.13316799309961],
        [0.525245072107268, 0.5],
    ),
]


def trace_rand(channel, iteration, agent_count, lanes=1):
    """The pinned draws; a step draws on the social channel only."""
    assert channel == CHANNEL_VELOCITY_SOCIAL
    assert agent_count == 2 and lanes == 1
    return np.array(TRACE_DRAWS[iteration - 1], dtype=np.float64).reshape(1, 2, 1)


def trace_start() -> SwarmState:
    """The trace's starting swarm, a batch of one."""
    positions = np.array([[[1.0], [-9.5]]])
    return SwarmState(
        positions=positions.copy(),
        velocities=np.array([[[0.5], [0.0]]]),
        best_positions=positions.copy(),
        best_scores=Parabola().score_many(positions[0])[None],
        alive=np.ones((1, 2), dtype=bool),
    )
