"""Search traces to labeled training samples.

Each solved node becomes one sample whose label says whether the node's
fixings agree with the answer's channel map, that is whether it lies on the
ancestor chain of the final incumbent, where an oracle would have kept it.
Features are the node attributes the pruning classifier will see during a
live search (never anything about descendants), normalized so that a
network with saturating activations can digest them:

  [g/(S*K), psi/root_psi, x (S*K)]

The x entries are the indicators the relaxation reads off the node's
flows, by the rule of :func:`relax.node_x`: at a leaf the binary channel
map, elsewhere the share min(l/L_s, 1), and 1 wherever the node's fixing
vector holds a 1.  The shares l/L_s themselves are no feature: every node
a gate scores is a non-leaf, where they equal x but on the channels its
fixings give to a device and on LP round-off, which x keeps and the
shares drop.
A ``dataset-v1`` file, of the earlier 4 + 2*S*K layout, is refused.

A :class:`Dataset` holds the samples of many frames as columns, the arrays
training reads: one feature row per node, its label, frame id and node id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bnb import Node, SolveReport, SolveStatus, csv_float
from .relax import node_x

__all__ = [
    "Dataset",
    "DatasetFormatError",
    "feature_length",
    "featurize",
    "label_trace",
    "write_dataset",
    "read_dataset",
]


@dataclass
class Dataset:
    features: np.ndarray    # (n, m): row i is node node_ids[i] of frame frame_ids[i]
    labels: np.ndarray      # (n,) 0/1
    frame_ids: np.ndarray   # (n,)
    node_ids: np.ndarray    # (n,)
    num_mds: int
    num_channels: int
    config_hash: str = ""

    def __post_init__(self) -> None:
        n, m = self.labels.size, self.feature_len
        if self.features.shape != (n, m):
            raise ValueError(f"features of shape {self.features.shape} != expected {(n, m)}")
        if any(ids.shape != (n,) for ids in (self.labels, self.frame_ids, self.node_ids)):
            raise ValueError(f"labels, frame ids and node ids must be ({n},) vectors")
        bad = (self.labels != 0) & (self.labels != 1)
        if bad.any():
            raise ValueError(f"label must be 0/1, got {self.labels[bad][0]}")

    @property
    def feature_len(self) -> int:
        return feature_length(self.num_mds, self.num_channels)

    @property
    def positives(self) -> int:
        return int(self.labels.sum())

    @property
    def negatives(self) -> int:
        return self.labels.size - self.positives


def feature_length(num_mds: int, num_channels: int) -> int:
    return 2 + num_mds * num_channels


def featurize(node: Node, root_psi: float) -> np.ndarray:
    """Feature vector of one solved node, ``[g/(S*K), psi/root_psi, x]``,
    written into one new float64 array: x by :func:`relax.node_x` in place,
    so the vector equals ``np.concatenate(([g/(S*K), psi/root_psi],
    node.arrays()[0]))`` bit for bit, leaves included.

    ``root_psi`` is the root relaxation value of the same search;
    splitting it out keeps every feature computable at node-pop time.
    """
    if not root_psi > 0:
        raise ValueError(f"root_psi must be positive, got {root_psi!r}")
    n = node.fixed.size
    features = np.empty(2 + n)
    features[0] = node.depth / n
    features[1] = node.psi / root_psi
    node_x(node.flows, node.fixed, node.first_fractional is None, features[2:])
    return features


def label_trace(report: SolveReport) -> tuple[np.ndarray, np.ndarray]:
    """Features (one row per trace node) and labels: 1 where the node's
    fixings agree with the answer's map ``report.best_x``, else 0.

    Two nodes whose fixings agree with one map lie on one root path, since
    their lowest common ancestor's children fix its index apart, and the
    incumbent leaf agrees with the map read off it, so the positives are
    the incumbent's ancestor chain."""
    if report.status is not SolveStatus.OPTIMAL:
        raise ValueError(f"can only label optimal traces, got {report.status}")
    records = report.trace
    if not records:
        raise ValueError("can only label the trace of a tree search, got an empty trace")
    root_psi = records[0].psi
    features = np.array([featurize(rec, root_psi) for rec in records])
    fixed = np.array([rec.fixed for rec in records])
    labels = np.all((fixed < 0) | (fixed == report.best_x.ravel()), axis=1).astype(int)
    return features, labels


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


class DatasetFormatError(ValueError):
    """Malformed dataset file; the message carries the offending line."""


def write_dataset(ds: Dataset, path) -> None:
    m = ds.feature_len
    header = f"# dataset-v2 m={m} S={ds.num_mds} K={ds.num_channels}"
    if ds.config_hash:
        header += f" cfg={ds.config_hash}"
    columns = "frame_id,node_id,label," + ",".join(f"f{i + 1}" for i in range(m))
    lines = [header, columns]
    for row in zip(ds.frame_ids, ds.node_ids, ds.labels, ds.features):
        lines.append(",".join([*(str(int(v)) for v in row[:3]), *map(csv_float, row[3])]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines and lines[0].startswith("# dataset-v1"):
        raise DatasetFormatError(f"{path}:1: '# dataset-v1' is an old layout; rerun gen-data")
    if not lines or not lines[0].startswith("# dataset-v2"):
        raise DatasetFormatError(f"{path}:1: missing '# dataset-v2' header")
    fields = dict(
        token.split("=", 1) for token in lines[0].split()[2:] if "=" in token
    )
    sizes = []
    for key in ("m", "S", "K"):
        if key not in fields:
            raise DatasetFormatError(f"{path}:1: header lacks {key!r}")
        if not fields[key].isdecimal() or int(fields[key]) < 1:
            raise DatasetFormatError(f"{path}:1: {key}={fields[key]} is not an integer >= 1")
        sizes.append(int(fields[key]))
    m, s_n, k_n = sizes
    if m != feature_length(s_n, k_n):
        raise DatasetFormatError(
            f"{path}:1: m={m} inconsistent with S={s_n}, K={k_n}"
        )
    if len(lines) < 2:
        raise DatasetFormatError(f"{path}:2: missing column header")

    features, labels, frame_ids, node_ids = [], [], [], []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3 + m:
            raise DatasetFormatError(
                f"{path}:{lineno}: expected {3 + m} columns, got {len(parts)}"
            )
        try:
            features.append([float(v) for v in parts[3:]])
            labels.append(int(parts[2]))
            frame_ids.append(int(parts[0]))
            node_ids.append(int(parts[1]))
        except ValueError as exc:
            raise DatasetFormatError(f"{path}:{lineno}: {exc}") from None
        if labels[-1] not in (0, 1):
            raise DatasetFormatError(f"{path}:{lineno}: label must be 0/1, got {labels[-1]!r}")
        if not all(map(math.isfinite, features[-1])):
            i = next(i for i, v in enumerate(features[-1]) if not math.isfinite(v))
            raise DatasetFormatError(
                f"{path}:{lineno}: feature f{i + 1} is {features[-1][i]!r}, not finite")
    return Dataset(np.array(features, dtype=float).reshape(-1, m),
                   *(np.array(column, dtype=int) for column in (labels, frame_ids, node_ids)),
                   s_n, k_n, fields.get("cfg", ""))
