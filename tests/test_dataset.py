from dataclasses import replace

import numpy as np
import pytest

from mecoffload.bnb import Node, NodeAction, SolveStatus, solve_bnb, solve_exhaustive
from mecoffload.dataset import (
    Dataset,
    DatasetFormatError,
    feature_length,
    featurize,
    label_trace,
    read_dataset,
    write_dataset,
)
from mecoffload.lp import FEASIBILITY_TOL

from conftest import make_frame


def build_corpus(num_frames=8, num_mds=2, num_channels=3, seed0=400):
    reports, labels = [], []
    for i in range(num_frames):
        frame = make_frame(num_mds=num_mds, num_channels=num_channels,
                           seed=seed0 + 2 * i)
        report = solve_bnb(frame)
        reports.append(report)
        labels.append(label_trace(report)[1])
    return reports, np.concatenate(labels)


class TestFeaturize:
    def _record(self, flows=None, **overrides):
        # A record of two devices on three channels, off a leaf with nothing
        # fixed: x is its flows, each a share of its device's task, clipped
        # to [0, 1].
        flows = np.full(6, 0.5) if flows is None else np.asarray(flows)
        defaults = dict(
            node_id=0, depth=0, parent_id=None,
            action=NodeAction.BRANCHED, psi=2.0, zub_at_pop=np.inf,
            fixed=np.full(6, -1, dtype=np.int8), first_fractional=0,
            flows=flows,
        )
        defaults.update(overrides)
        return Node(**defaults)

    def test_root_normalizes_to_unit(self):
        rec = self._record()
        f = featurize(rec, root_psi=2.0)
        assert f[0] == 0.0   # depth 0
        assert f[1] == 1.0
        assert f.size == feature_length(2, 3)

    def test_length_is_two_scalars_and_the_indicators(self):
        assert feature_length(3, 5) == 17
        assert feature_length(4, 6) == 26

    def test_layout_is_depth_bound_and_indicators(self):
        # [g/(S*K), psi/root_psi, x]: a share too small to count as carried
        # flow, at or below the LP's feasibility tolerance, stays in x but
        # reads 0 in the counted shares the trace writes as l, and a fixing
        # to 1 reads 1 whatever its flow.  No share block follows.
        flows = [0.5, 0.5 - 5e-10, 5e-10, 0.0, 0.25, 0.75]
        assert 5e-10 <= FEASIBILITY_TOL
        fixed = np.array([-1, -1, -1, 0, -1, 1], dtype=np.int8)
        rec = self._record(flows=flows, depth=2, psi=3.0, fixed=fixed)
        f = featurize(rec, root_psi=2.0)
        assert f.tolist() == [2 / 6, 1.5, 0.5, 0.5 - 5e-10, 5e-10, 0.0, 0.25, 1.0]
        x, counted = rec.arrays()
        assert np.array_equal(f[2:], x)
        assert counted.tolist() == [0.5, 0.5 - 5e-10, 0.0, 0.0, 0.25, 0.75]

        # The same layout, bit for bit, on every node of exact traces,
        # leaves included: the gate scores only fractional nodes, and
        # label_trace reads leaves too.
        for num_mds, num_channels, seed in ((3, 5, 1), (3, 5, 2), (4, 6, 1), (4, 6, 2)):
            report = solve_bnb(make_frame(num_mds=num_mds, num_channels=num_channels,
                                          seed=seed))
            root_psi, n = report.trace[0].psi, num_mds * num_channels
            for rec in report.trace:
                layout = np.concatenate(([rec.depth / n, rec.psi / root_psi], rec.arrays()[0]))
                assert featurize(rec, root_psi).tobytes() == layout.tobytes()
            assert any(rec.first_fractional is None for rec in report.trace)

    def test_every_corpus_row_is_finite(self):
        # Every traced node is feasible, so the cost ratio is finite on
        # every row of a corpus.
        reports, _ = build_corpus(num_frames=5)
        for report in reports:
            features, _ = label_trace(report)
            assert np.all(np.isfinite(features))

    def test_rejects_nonpositive_root(self):
        with pytest.raises(ValueError):
            featurize(self._record(), root_psi=0.0)

    def test_cost_ratio_dominates_root_bound_corpus_wide(self):
        reports, _ = build_corpus(num_frames=5)
        for report in reports:
            root_psi = report.trace[0].psi
            for rec in report.trace:
                assert featurize(rec, root_psi)[1] >= 1.0 - 1e-9


class TestLabelTrace:
    def test_root_only_trace(self):
        frame = make_frame(num_mds=1, num_channels=1, seed=5)
        report = solve_bnb(frame)
        features, labels = label_trace(report)
        assert features.shape == (len(report.trace), feature_length(1, 1))
        assert labels.tolist() == [1] * len(report.trace)

    def test_rows_are_the_featurized_trace(self):
        reports, _ = build_corpus(num_frames=3)
        for report in reports:
            features, labels = label_trace(report)
            root_psi = report.trace[0].psi
            assert features.shape == (len(report.trace), feature_length(2, 3))
            assert labels.shape == (len(report.trace),)
            for row, rec in zip(features, report.trace):
                assert np.array_equal(row, featurize(rec, root_psi))

    def test_chain_length_matches_incumbent_depth(self):
        reports, _ = build_corpus(num_frames=6)
        for report in reports:
            incumbent = [r for r in report.trace
                         if r.action is NodeAction.NEW_INCUMBENT][-1]
            assert label_trace(report)[1].sum() == incumbent.depth + 1

    def test_positives_form_single_root_anchored_path(self):
        reports, _ = build_corpus(num_frames=6)
        for report in reports:
            labels = label_trace(report)[1]
            positive_ids = {r.node_id for r, label in zip(report.trace, labels) if label}
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

    def test_positives_are_branched_nodes_and_the_incumbent(self):
        # A node pruned by bound has no descendant, so it is positive only
        # if it is the incumbent leaf itself.
        reports, _ = build_corpus(num_frames=6)
        for report in reports:
            for label, rec in zip(label_trace(report)[1], report.trace):
                if label:
                    assert rec.action in (NodeAction.BRANCHED, NodeAction.NEW_INCUMBENT)

    def test_minority_positive_class(self):
        # At the desk size that gen-data trains on.  At 2x3 the search
        # solves about five nodes per frame, and once children whose key
        # reaches the incumbent go unsolved and untraced, the incumbent's
        # chain is most of them.
        _, labels = build_corpus(num_frames=10, num_mds=3, num_channels=5)
        assert 0 < labels.sum() < 0.5 * labels.size

    def test_label_determinism(self):
        frame = make_frame(num_mds=2, num_channels=3, seed=404)
        report = solve_bnb(frame)
        a, b = label_trace(report), label_trace(report)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_requires_optimal_report(self):
        frame = make_frame(num_mds=2, num_channels=1, seed=6)
        report = solve_bnb(frame)
        with pytest.raises(ValueError):
            label_trace(report)

    def test_requires_a_search_trace(self):
        # The exhaustive oracle's answer is optimal but has no trace.
        frame = make_frame(num_mds=2, num_channels=3, seed=404)
        report = solve_exhaustive(frame)
        assert report.status is SolveStatus.OPTIMAL and report.trace == []
        with pytest.raises(ValueError, match="empty trace"):
            label_trace(report)

    def test_requires_an_incumbent_in_the_trace(self):
        # An optimal report whose trace holds only its branched root names
        # no node to label the chain from.
        frame = make_frame(num_mds=2, num_channels=3, seed=404)
        report = solve_bnb(frame)
        root = report.trace[0]
        assert report.status is SolveStatus.OPTIMAL and root.action is NodeAction.BRANCHED
        with pytest.raises(ValueError, match="no incumbent record"):
            label_trace(replace(report, trace=[root]))


def dataset(n=50, num_mds=2, num_channels=3, **overrides) -> Dataset:
    rng = np.random.default_rng(0)
    columns = dict(
        features=rng.uniform(0, 2, (n, feature_length(num_mds, num_channels))),
        labels=(rng.random(n) < 0.3).astype(int),
        frame_ids=np.arange(n) // 7,
        node_ids=np.arange(n),
    )
    columns.update(overrides)
    return Dataset(**columns, num_mds=num_mds, num_channels=num_channels,
                   config_hash="abc123")


class TestDataset:
    def test_counts(self):
        ds = dataset(50)
        assert ds.positives + ds.negatives == 50
        assert ds.positives == int(np.count_nonzero(ds.labels == 1))

    def test_wrong_feature_width_rejected(self):
        with pytest.raises(ValueError, match="features of shape"):
            dataset(5, features=np.zeros((5, feature_length(2, 3) - 1)))

    @pytest.mark.parametrize("column, value", [
        ("node_ids", np.arange(4)),
        ("frame_ids", np.zeros((5, 1), dtype=int)),
        ("labels", np.zeros((5, 1), dtype=int)),
    ])
    def test_columns_must_be_vectors_of_one_length(self, column, value):
        with pytest.raises(ValueError, match=r"must be \(5,\) vectors"):
            dataset(5, **{column: value})

    def test_label_outside_zero_one_rejected(self):
        with pytest.raises(ValueError, match="label must be 0/1, got 2"):
            dataset(5, labels=np.array([0, 1, 2, 0, 1]))


class TestPersistence:
    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "ds.csv"
        write_dataset(dataset(0), path)
        loaded = read_dataset(path)
        assert loaded.labels.size == 0
        assert loaded.features.shape == (0, feature_length(2, 3))
        assert (loaded.num_mds, loaded.num_channels) == (2, 3)

    def test_round_trip_identity(self, tmp_path):
        ds = dataset(1000)
        path = tmp_path / "ds.csv"
        write_dataset(ds, path)
        loaded = read_dataset(path)
        assert loaded.labels.size == 1000
        assert loaded.config_hash == "abc123"
        for column in ("features", "labels", "frame_ids", "node_ids"):
            assert np.array_equal(getattr(loaded, column), getattr(ds, column))

    def _rewrite_line(self, tmp_path, lineno, edit):
        path = tmp_path / "ds.csv"
        write_dataset(dataset(5), path)
        lines = path.read_text().splitlines()
        lines[lineno - 1] = edit(lines[lineno - 1])
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_wrong_column_count_names_line(self, tmp_path):
        path = self._rewrite_line(tmp_path, 5, lambda line: line + ",0.5")
        with pytest.raises(DatasetFormatError, match=":5:"):
            read_dataset(path)

    @pytest.mark.parametrize("label", ["2", "-1"])
    def test_bad_label_names_line(self, tmp_path, label):
        def relabel(line):
            frame_id, node_id, _, rest = line.split(",", 3)
            return ",".join([frame_id, node_id, label, rest])

        path = self._rewrite_line(tmp_path, 4, relabel)
        with pytest.raises(DatasetFormatError,
                           match=f":4: label must be 0/1, got {label}$"):
            read_dataset(path)

    def test_unparsable_value_names_line(self, tmp_path):
        path = self._rewrite_line(tmp_path, 6, lambda line: line[:line.rindex(",")] + ",x")
        with pytest.raises(DatasetFormatError, match=":6: could not convert"):
            read_dataset(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_feature_names_line(self, tmp_path, value):
        # Python parses both, and training on them writes a NaN model.
        path = self._rewrite_line(tmp_path, 6, lambda line: line[:line.rindex(",")] + f",{value}")
        with pytest.raises(DatasetFormatError, match=f":6: feature f\\d+ is {value}, not finite$"):
            read_dataset(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = self._rewrite_line(tmp_path, 4, lambda line: line + "\n")
        assert "\n\n" in path.read_text()
        loaded, written = read_dataset(path), dataset(5)
        for column in ("features", "labels", "frame_ids", "node_ids"):
            assert np.array_equal(getattr(loaded, column), getattr(written, column))

    @pytest.mark.parametrize("text, match", [
        ("# dataset-v2 m=5 S=2 K=3\nframe_id,node_id,label\n", ":1: m=5 inconsistent"),
        ("# dataset-v2 m=8 S=2\nframe_id,node_id,label\n", ":1: header lacks 'K'"),
        ("# dataset-v2 m=8 S=2 K=3\n", ":2: missing column header"),
    ], ids=["inconsistent", "lacks-key", "no-column-header"])
    def test_header_mismatch_rejected(self, tmp_path, text, match):
        path = tmp_path / "ds.csv"
        path.write_text(text)
        with pytest.raises(DatasetFormatError, match=match):
            read_dataset(path)

    @pytest.mark.parametrize("header, match", [
        ("m=x S=2 K=3", "m=x is not"),
        ("m=8 S=2.0 K=3", "S=2.0 is not"),
        ("m=8 S=2 K=0", "K=0 is not"),
        ("m=8 S=-2 K=3", "S=-2 is not"),
        ("m=8 S= K=3", "S= is not"),
    ], ids=["m-letter", "S-float", "K-zero", "S-negative", "S-empty"])
    def test_header_size_not_a_positive_integer_rejected(self, tmp_path, header, match):
        path = tmp_path / "ds.csv"
        path.write_text(f"# dataset-v2 {header}\nframe_id,node_id,label\n")
        with pytest.raises(DatasetFormatError, match=f"ds.csv:1: {match} an integer >= 1$"):
            read_dataset(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("frame_id,node_id,label\n")
        with pytest.raises(DatasetFormatError, match="ds.csv:1: missing '# dataset-v2' header"):
            read_dataset(path)

    def test_dataset_v1_is_refused_by_name(self, tmp_path):
        # A well-formed file of the old layout, 4 + 2*S*K features a row,
        # is refused on its header line, not read with shifted columns.
        path = tmp_path / "ds.csv"
        row = ",".join(["0", "0", "1", *["0.5"] * 16])
        columns = ",".join(["frame_id", "node_id", "label", *(f"f{i + 1}" for i in range(16))])
        path.write_text(f"# dataset-v1 m=16 S=2 K=3 cfg=abc123\n{columns}\n{row}\n")
        with pytest.raises(DatasetFormatError,
                           match="ds.csv:1: '# dataset-v1' is an old layout; rerun gen-data$"):
            read_dataset(path)
