"""Search traces to labeled training samples.

Each solved node becomes one sample whose label says whether the node lies
on the ancestor chain of the final incumbent, i.e. whether an oracle would
have kept it.  Features are the node attributes the pruning classifier will
see during a live search (never anything about descendants), normalized so
that a network with saturating activations can digest them:

  [log2(1+j)/(S*K), g/(S*K), f, psi/root_psi, x (S*K), l/L_s (S*K)]

The x entries are the indicators the relaxation reads off its flows: at a
leaf the binary channel map, elsewhere the flow share min(l/L_s, 1), and 1
wherever the node's fixing vector holds a 1.  Away from leaves and such
fixings they duplicate the l/L_s entries, but for shares too small to
count as carried flow, which x keeps and l drops.

Infeasible nodes keep f=0, a fixed sentinel in place of the cost ratio, and
zeroed solution entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bnb import NodeAction, NodeRecord, SolveReport, SolveStatus, csv_float
from .scenario import Scenario

__all__ = [
    "PSI_SENTINEL",
    "NodeSample",
    "Dataset",
    "DatasetFormatError",
    "feature_length",
    "featurize",
    "label_trace",
    "write_dataset",
    "read_dataset",
]

#: Stand-in cost ratio for nodes whose relaxation was infeasible.
PSI_SENTINEL = 10.0


@dataclass
class NodeSample:
    features: np.ndarray
    label: int
    frame_id: int
    node_id: int


@dataclass
class Dataset:
    samples: list[NodeSample]
    num_mds: int
    num_channels: int
    config_hash: str = ""

    def __post_init__(self) -> None:
        m = self.feature_len
        for sample in self.samples:
            if sample.features.size != m:
                raise ValueError(
                    f"sample feature length {sample.features.size} != expected {m}"
                )
            if sample.label not in (0, 1):
                raise ValueError(f"label must be 0/1, got {sample.label!r}")

    @property
    def feature_len(self) -> int:
        return feature_length(self.num_mds, self.num_channels)

    @property
    def positives(self) -> int:
        return sum(s.label for s in self.samples)

    @property
    def negatives(self) -> int:
        return len(self.samples) - self.positives

    def feature_matrix(self) -> np.ndarray:
        return np.array([s.features for s in self.samples], dtype=float)

    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=float)


def feature_length(num_mds: int, num_channels: int) -> int:
    return 4 + 2 * num_mds * num_channels


def featurize(record: NodeRecord, root_psi: float, task_bits: np.ndarray) -> np.ndarray:
    """Feature vector of one node record.

    ``root_psi`` is the root relaxation value of the same search pass;
    splitting it out keeps every feature computable at node-pop time.
    """
    if not root_psi > 0:
        raise ValueError(f"root_psi must be positive, got {root_psi!r}")
    task_bits = np.asarray(task_bits, dtype=float)
    n = record.x.size
    k_n = n // task_bits.size
    features = np.zeros(feature_length(task_bits.size, k_n))
    features[0] = np.log2(1.0 + record.node_id) / n
    features[1] = record.depth / n
    if record.action is not NodeAction.PRUNED_INFEASIBLE:
        features[2] = 1.0
        features[3] = record.psi / root_psi
        features[4:4 + n] = record.x
        features[4 + n:] = record.split_bits / task_bits.repeat(k_n)
    else:
        features[3] = PSI_SENTINEL
    return features


def label_trace(report: SolveReport, scenario: Scenario, frame_id: int = 0) -> list[NodeSample]:
    """Label every trace node: 1 on the incumbent's ancestor chain, else 0."""
    if report.status is not SolveStatus.OPTIMAL:
        raise ValueError(f"can only label optimal traces, got {report.status}")
    records = report.trace
    root_psi = records[0].psi

    incumbent_id = None
    for rec in records:
        if rec.action is NodeAction.NEW_INCUMBENT:
            incumbent_id = rec.node_id
    if incumbent_id is None:
        raise ValueError("optimal report has no incumbent record")

    parents = {rec.node_id: rec.parent_id for rec in records}
    chain: set[int] = set()
    cursor: int | None = incumbent_id
    while cursor is not None:
        chain.add(cursor)
        cursor = parents[cursor]

    return [
        NodeSample(
            features=featurize(rec, root_psi, scenario.task_bits),
            label=int(rec.node_id in chain),
            frame_id=frame_id,
            node_id=rec.node_id,
        )
        for rec in records
    ]


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


class DatasetFormatError(ValueError):
    """Malformed dataset file; the message carries the offending line."""


def write_dataset(ds: Dataset, path) -> None:
    m = ds.feature_len
    header = f"# dataset-v1 m={m} S={ds.num_mds} K={ds.num_channels}"
    if ds.config_hash:
        header += f" cfg={ds.config_hash}"
    columns = "frame_id,node_id,label," + ",".join(f"f{i + 1}" for i in range(m))
    lines = [header, columns]
    for sample in ds.samples:
        row = [str(sample.frame_id), str(sample.node_id), str(sample.label)]
        row += [csv_float(v) for v in sample.features]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# dataset-v1"):
        raise DatasetFormatError(f"{path}:1: missing '# dataset-v1' header")
    fields = dict(
        token.split("=", 1) for token in lines[0].split()[2:] if "=" in token
    )
    try:
        m = int(fields["m"])
        s_n = int(fields["S"])
        k_n = int(fields["K"])
    except KeyError as exc:
        raise DatasetFormatError(f"{path}:1: header lacks {exc.args[0]!r}") from None
    if m != feature_length(s_n, k_n):
        raise DatasetFormatError(
            f"{path}:1: m={m} inconsistent with S={s_n}, K={k_n}"
        )
    if len(lines) < 2:
        raise DatasetFormatError(f"{path}:2: missing column header")

    samples: list[NodeSample] = []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3 + m:
            raise DatasetFormatError(
                f"{path}:{lineno}: expected {3 + m} columns, got {len(parts)}"
            )
        try:
            samples.append(NodeSample(
                features=np.array([float(v) for v in parts[3:]]),
                label=int(parts[2]),
                frame_id=int(parts[0]),
                node_id=int(parts[1]),
            ))
        except ValueError as exc:
            raise DatasetFormatError(f"{path}:{lineno}: {exc}") from None
    return Dataset(
        samples=samples,
        num_mds=s_n,
        num_channels=k_n,
        config_hash=fields.get("cfg", ""),
    )
