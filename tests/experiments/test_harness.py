"""Experiment harness: scales, workspace caching, table rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (SCALES, ExperimentScale, Workspace, get_scale,
                               render_table)
from repro.experiments.common import get_datasets, get_v1, get_v2


class TestScales:
    def test_presets_exist(self):
        assert {"tiny", "small", "full"} <= set(SCALES)

    def test_get_scale_by_name(self):
        assert get_scale("tiny").name == "tiny"

    def test_get_scale_passthrough(self):
        scale = SCALES["tiny"]
        assert get_scale(scale) is scale

    def test_get_scale_unknown(self):
        with pytest.raises(KeyError):
            get_scale("galactic")

    def test_get_scale_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert get_scale(None).name == "tiny"

    def test_model_config_override(self):
        config = SCALES["tiny"].model_config(head_style="joint")
        assert config.head_style == "joint"
        assert config.d_model == SCALES["tiny"].d_model

    def test_with_seed(self):
        scale = SCALES["tiny"].with_seed(99)
        assert scale.seed == 99 and scale.name == "tiny"

    def test_full_scale_matches_paper_split(self):
        full = SCALES["full"]
        assert full.train_samples == 80000
        assert full.test_samples == 20000


class TestWorkspaceCaching:
    def test_dataset_cached_across_calls(self, tmp_path):
        workspace = Workspace(tmp_path)
        scale = SCALES["tiny"]
        train1, test1 = get_datasets(scale, workspace)
        train2, test2 = get_datasets(scale, workspace)
        np.testing.assert_array_equal(train1.inputs, train2.inputs)
        np.testing.assert_array_equal(test1.inputs, test2.inputs)

    def test_dataset_sizes_match_scale(self, tmp_path):
        workspace = Workspace(tmp_path)
        scale = SCALES["tiny"]
        train, test = get_datasets(scale, workspace)
        assert len(train) == scale.train_samples
        assert len(test) == scale.test_samples

    def test_different_seeds_different_dirs(self, tmp_path):
        workspace = Workspace(tmp_path)
        a = workspace.dataset_key(SCALES["tiny"], "train")
        b = workspace.dataset_key(SCALES["tiny"].with_seed(1), "train")
        assert a != b


class TestModelFingerprints:
    """A cached model's manifest fingerprint names the run that trained
    it; what the fit returns (e.g. a loss history) stays out of it."""

    @pytest.mark.parametrize("getter, tag", [(get_v2, "v2_uov_k16_c1p1"),
                                             (get_v1, "v1_joint")])
    def test_fingerprint_is_scale_seed_tag(self, session_workspace, getter,
                                           tag):
        scale = get_scale("tiny")
        train, _ = get_datasets(scale, session_workspace)
        getter(scale, train, session_workspace)
        artifact = session_workspace.registry.artifact(
            session_workspace.model_id(scale, tag))
        assert set(artifact.fingerprint) == {"scale", "seed", "tag"}


class TestRenderTable:
    def test_contains_headers_and_rows(self):
        text = render_table(["a", "b"], [[1, 2.5], ["x", 3.0]], title="T")
        assert "T" in text and "a" in text
        assert "2.50" in text and "x" in text

    def test_column_alignment(self):
        text = render_table(["col"], [["short"], ["a-much-longer-cell"]])
        lines = text.splitlines()
        assert len({len(l) for l in lines if "|" not in l or True}) >= 1
