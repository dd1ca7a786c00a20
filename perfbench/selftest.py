"""Self-test of the benchmark's own checks; a run is trusted only if it passes.

Takes about a second, most of it importing scipy.  ``run()`` returns one
message per failed expectation, so an empty list means the oracle and the
assignment checks behave as they must:

* the MILP optimum of a one-device, one-channel frame equals the value
  computed by hand;
* it equals ``solve_exhaustive``'s optimum on a 2x3 frame;
* the assignment check accepts that optimum, and rejects it with a split
  moved onto a channel its device does not hold, with a channel used by two
  devices, and with a wrong ``psi``.
"""

from __future__ import annotations

import numpy as np

import oracle


def run() -> list[str]:
    failures = []

    # One device, one channel: all bits on the channel, so the cost is
    # (lambda_t + lambda_e * p) * L / R.
    rate, power, task, lt, le = 3.0e7, 1.2, 4.0e6, 1.0, 0.25
    by_hand = (lt + le * power) * task / rate
    got = oracle.milp_optimum([[rate]], [power], [task], lt, le)
    if got is None or abs(got - by_hand) > 1e-12 * by_hand:
        failures.append(f"1x1 frame: MILP optimum {got!r}, by hand {by_hand!r}")

    from mecoffload.bnb import solve_exhaustive
    from mecoffload.scenario import ScenarioConfig, generate_frame

    frame = generate_frame(ScenarioConfig(num_mds=2, num_channels=3, rng_seed=7))
    cfg = frame.config
    args = (frame.rates_bps, frame.powers_w, frame.task_bits, cfg.lambda_t, cfg.lambda_e)
    exact = solve_exhaustive(frame)
    got = oracle.milp_optimum(*args)
    if got is None or abs(got - exact.best_psi) > oracle.OBJECTIVE_RTOL * exact.best_psi:
        failures.append(f"2x3 frame: MILP optimum {got!r}, exhaustive {exact.best_psi!r}")

    x, split, psi = exact.best_x.astype(float), exact.best_split, exact.best_psi
    if oracle.assignment_faults(*args, x, split, psi):
        failures.append("the exhaustive optimum of the 2x3 frame was rejected")

    s, k = np.argwhere(split > 0)[0]
    other = int(np.flatnonzero(x[s] == 0)[0])      # a channel device s does not hold
    moved = split.copy()
    moved[s, other], moved[s, k] = moved[s, k], 0.0
    if not oracle.assignment_faults(*args, x, moved, psi):
        failures.append("a split on a channel its device does not hold was accepted")

    doubled = x.copy()
    doubled[1 - s, k] = 1.0
    if not oracle.assignment_faults(*args, doubled, split, psi):
        failures.append("a channel used by two devices was accepted")

    if not oracle.assignment_faults(*args, x, split, psi * (1 + 1e-6)):
        failures.append("a wrong psi was accepted")
    return failures
