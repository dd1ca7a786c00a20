import numpy as np
import pytest

from mecoffload.bnb import NodeAction, NodeRecord, solve_bnb
from mecoffload.dataset import (
    PSI_SENTINEL,
    Dataset,
    DatasetFormatError,
    NodeSample,
    feature_length,
    featurize,
    label_trace,
    read_dataset,
    write_dataset,
)

from conftest import make_frame


def build_corpus(num_frames=8, num_mds=2, num_channels=3, seed0=400):
    frames, reports, samples = [], [], []
    for i in range(num_frames):
        frame = make_frame(num_mds=num_mds, num_channels=num_channels,
                           seed=seed0 + 2 * i)
        report = solve_bnb(frame)
        frames.append(frame)
        reports.append(report)
        samples.extend(label_trace(report, frame, frame_id=i))
    return frames, reports, samples


class TestFeaturize:
    def _record(self, **overrides):
        defaults = dict(
            node_id=0, depth=0, parent_id=None,
            action=NodeAction.BRANCHED, psi=2.0, zub_at_pop=np.inf,
            x=np.full(6, 0.5), split_bits=np.full(6, 1e6),
            fixed=np.full(6, -1, dtype=np.int8),
        )
        defaults.update(overrides)
        return NodeRecord(**defaults)

    def test_root_normalizes_to_unit(self):
        rec = self._record()
        f = featurize(rec, root_psi=2.0, task_bits=np.array([2e6, 4e6]))
        assert f[0] == 0.0   # log2(1 + 0)
        assert f[1] == 0.0
        assert f[2] == 1.0
        assert f[3] == 1.0
        assert f.size == feature_length(2, 3)

    def test_infeasible_sentinel(self):
        rec = self._record(action=NodeAction.PRUNED_INFEASIBLE, psi=float("nan"),
                           x=np.zeros(6), split_bits=np.zeros(6))
        f = featurize(rec, root_psi=2.0, task_bits=np.array([2e6, 4e6]))
        assert f[2] == 0.0
        assert f[3] == PSI_SENTINEL
        assert np.all(f[4:] == 0.0)

    def test_splits_normalized_per_device(self):
        rec = self._record(x=np.ones(6), split_bits=np.array(
            [1e6, 1e6, 0.0, 4e6, 0.0, 0.0]))
        f = featurize(rec, root_psi=2.0, task_bits=np.array([2e6, 4e6]))
        assert np.allclose(f[10:], [0.5, 0.5, 0.0, 1.0, 0.0, 0.0])

    def test_rejects_nonpositive_root(self):
        with pytest.raises(ValueError):
            featurize(self._record(), root_psi=0.0, task_bits=np.array([1e6, 1e6]))

    def test_cost_ratio_dominates_root_bound_corpus_wide(self):
        frames, reports, _ = build_corpus(num_frames=5)
        for frame, report in zip(frames, reports):
            root_psi = report.trace[0].psi
            for rec in report.trace:
                f = featurize(rec, root_psi, frame.task_bits)
                if rec.action is not NodeAction.PRUNED_INFEASIBLE:
                    assert f[3] >= 1.0 - 1e-9


class TestLabelTrace:
    def test_root_only_trace(self):
        frame = make_frame(num_mds=1, num_channels=1, seed=5)
        report = solve_bnb(frame)
        samples = label_trace(report, frame)
        assert len(samples) == len(report.trace)
        assert samples[0].label == 1

    def test_chain_length_matches_incumbent_depth(self):
        frames, reports, _ = build_corpus(num_frames=6)
        for frame, report in zip(frames, reports):
            incumbent = [r for r in report.trace
                         if r.action is NodeAction.NEW_INCUMBENT][-1]
            samples = label_trace(report, frame)
            assert sum(s.label for s in samples) == incumbent.depth + 1

    def test_positives_form_single_root_anchored_path(self):
        frames, reports, _ = build_corpus(num_frames=6)
        for frame, report in zip(frames, reports):
            samples = label_trace(report, frame)
            positive_ids = {s.node_id for s in samples if s.label}
            parents = {r.node_id: r.parent_id for r in report.trace}
            assert 0 in positive_ids  # root anchored
            # Each positive except the deepest has exactly one positive child.
            child_count = {nid: 0 for nid in positive_ids}
            for nid in positive_ids:
                p = parents[nid]
                if p is not None:
                    assert p in positive_ids  # upward closed
                    child_count[p] += 1
            assert all(c <= 1 for c in child_count.values())

    def test_infeasible_nodes_never_positive(self):
        frames, reports, _ = build_corpus(num_frames=6)
        for frame, report in zip(frames, reports):
            for sample, rec in zip(label_trace(report, frame), report.trace):
                if rec.action is NodeAction.PRUNED_INFEASIBLE:
                    assert sample.label == 0

    def test_minority_positive_class(self):
        # At the desk size that gen-data trains on.  At 2x3 the search
        # solves about five nodes per frame, and once children whose key
        # reaches the incumbent go unsolved and untraced, the incumbent's
        # chain is most of them.
        _, _, samples = build_corpus(num_frames=10, num_mds=3, num_channels=5)
        positives = sum(s.label for s in samples)
        assert 0 < positives < 0.5 * len(samples)

    def test_label_determinism(self):
        frame = make_frame(num_mds=2, num_channels=3, seed=404)
        report = solve_bnb(frame)
        a = [s.label for s in label_trace(report, frame)]
        b = [s.label for s in label_trace(report, frame)]
        assert a == b

    def test_requires_optimal_report(self):
        frame = make_frame(num_mds=2, num_channels=1, seed=6)
        report = solve_bnb(frame)
        with pytest.raises(ValueError):
            label_trace(report, frame)


class TestPersistence:
    def _dataset(self, n=50):
        rng = np.random.default_rng(0)
        m = feature_length(2, 3)
        samples = [
            NodeSample(features=rng.uniform(0, 2, m), label=int(rng.random() < 0.3),
                       frame_id=i // 7, node_id=i)
            for i in range(n)
        ]
        return Dataset(samples, 2, 3, config_hash="abc123")

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "ds.csv"
        write_dataset(Dataset([], 2, 3), path)
        loaded = read_dataset(path)
        assert loaded.samples == []
        assert (loaded.num_mds, loaded.num_channels) == (2, 3)

    def test_round_trip_identity(self, tmp_path):
        ds = self._dataset(1000)
        path = tmp_path / "ds.csv"
        write_dataset(ds, path)
        loaded = read_dataset(path)
        assert len(loaded.samples) == 1000
        assert loaded.config_hash == "abc123"
        for a, b in zip(ds.samples, loaded.samples):
            assert a.label == b.label
            assert a.frame_id == b.frame_id
            assert a.node_id == b.node_id
            assert np.array_equal(a.features, b.features)

    def test_wrong_column_count_names_line(self, tmp_path):
        ds = self._dataset(5)
        path = tmp_path / "ds.csv"
        write_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[4] += ",0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=":5:"):
            read_dataset(path)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("# dataset-v1 m=5 S=2 K=3\nframe_id,node_id,label\n")
        with pytest.raises(DatasetFormatError, match="inconsistent"):
            read_dataset(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("frame_id,node_id,label\n")
        with pytest.raises(DatasetFormatError, match="dataset-v1"):
            read_dataset(path)

    def test_counts(self):
        ds = self._dataset(50)
        assert ds.positives + ds.negatives == 50
        assert ds.positives == sum(s.label for s in ds.samples)
