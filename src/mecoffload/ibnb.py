"""Branch-and-bound with a learned pruning gate.

The search is one ``bnb.solve_bnb`` with a gate: a fractional node that
survives the (strict) bound check is branched only if the classifier's
score exceeds the threshold; otherwise it is recorded as model-pruned.  If
the gate over-prunes and the heap drains with no incumbent, ``solve_bnb``
branches the nodes it rejected and searches on without it, so every frame
with a channel for each device yields a solution no matter how badly the
model behaves; the report then says ``fell_back_to_exact``.  A frame with
more devices than channels, the only infeasible kind, is answered with no
node solved and the model never asked.

Node counts include model-pruned pops (each one still costs a relaxation
solve plus a classifier evaluation); a reopened node is not solved again,
and the whole search never solves more than the node budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bnb import Node, SolveReport, solve_bnb
from .dataset import feature_length, featurize
from .mlp import MlpModel, forward
from .scenario import Scenario

__all__ = [
    "ThresholdPolicy",
    "solve_ibnb",
]


@dataclass(frozen=True)
class ThresholdPolicy:
    """The pruning threshold: the gate branches a node only on a score above it."""

    theta0: float = 1e-7

    def __post_init__(self) -> None:
        if not 0 < self.theta0 < 1:
            raise ValueError(f"need 0 < theta0 < 1, got {self.theta0}")


def solve_ibnb(
    scenario: Scenario,
    model: MlpModel,
    policy: ThresholdPolicy | None = None,
) -> SolveReport:
    """Learned-pruning search: ``solve_bnb`` gated by ``model`` at the
    policy's threshold.

    Whenever the frame has a channel for each device, a solution is
    returned: either the gated search finds an incumbent, or it reopens
    what the gate pruned and ends at the exact optimum.
    """
    theta = (policy or ThresholdPolicy()).theta0
    expected_m = feature_length(scenario.num_mds, scenario.num_channels)
    if model.num_features != expected_m:
        raise ValueError(
            f"model expects {model.num_features} features, scenario needs {expected_m}"
        )

    def model_gate(node: Node, root_psi: float) -> bool:
        # Branch only on a score strictly above the threshold.
        return forward(model, featurize(node, root_psi)) > theta

    return solve_bnb(scenario, model_gate)
