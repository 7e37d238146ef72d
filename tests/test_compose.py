import json

import numpy as np
import pytest

from embedjive.compose import (
    CompositionSpec,
    compose,
    parse_composition,
    report_json_dict,
    standard_compositions,
    write_report,
)
from embedjive.jive import JiveConfig, jive_fit, variance_explained
from embedjive.linalg import principal_angle_sines
from embedjive.synthetic import make_planted


@pytest.fixture(scope="module")
def fitted():
    model = make_planted(
        (14, 16), 60, 5, (3, 4),
        joint_scales=np.linspace(3.0, 2.0, 5),
        individual_scales=(np.linspace(1.5, 1.0, 3), np.linspace(1.5, 1.0, 4)),
        noise_sigma=0.01,
        seed=4,
    )
    result = jive_fit(model.blocks, JiveConfig(joint_rank=5, individual_ranks=(3, 4), epsilon=1e-9))
    vocab = [f"w{i:03d}" for i in range(60)]
    return model, result, vocab


class TestCompose:
    def test_row_counts(self, fitted):
        _, result, vocab = fitted
        spec = parse_composition("joint+ind0+ind1", 2)
        assert compose(result, spec, vocab).dim == 12
        assert compose(result, parse_composition("ind0+ind1", 2), vocab).dim == 7
        assert compose(result, parse_composition("joint", 2), vocab).dim == 5

    def test_joint_row_space(self, fitted):
        _, result, vocab = fitted
        out = compose(result, parse_composition("joint", 2), vocab)
        basis = out.data / np.linalg.norm(out.data, axis=1, keepdims=True)
        assert principal_angle_sines(basis, result.joint_vt).max() <= 1e-8

    def test_individual_gram_against_direct_svd(self, fitted):
        _, result, vocab = fitted
        out = compose(result, parse_composition("ind0", 2), vocab)
        individual = result.individual_block(0)
        u, s, vt = np.linalg.svd(individual, full_matrices=False)
        scores = s[:3, None] * vt[:3]
        gram_out = out.data.T @ out.data
        gram_oracle = scores.T @ scores
        assert np.abs(gram_out - gram_oracle).max() <= 1e-10

    def test_energy_additivity(self, fitted):
        _, result, vocab = fitted
        joint = compose(result, parse_composition("joint", 2), vocab)
        ind0 = compose(result, parse_composition("ind0", 2), vocab)
        both = compose(result, parse_composition("joint+ind0", 2), vocab)
        lhs = np.sum(both.data**2)
        rhs = np.sum(joint.data**2) + np.sum(ind0.data**2)
        assert abs(lhs - rhs) <= 1e-10 * max(lhs, 1.0)

    def test_standard_menu_has_seven_entries(self):
        names = [s.name for s in standard_compositions(2)]
        assert names == ["joint", "ind0", "ind1", "joint+ind0", "joint+ind1", "ind0+ind1", "joint+ind0+ind1"]

    def test_empty_composition_rejected(self, rng):
        blocks = [rng.standard_normal((4, 30)), rng.standard_normal((5, 30))]
        result = jive_fit(blocks, JiveConfig(joint_rank=2, individual_ranks=(0, 0)))
        vocab = [f"w{i}" for i in range(30)]
        with pytest.raises(ValueError, match="empty composition"):
            compose(result, parse_composition("ind0", 2), vocab)

    def test_unknown_part(self):
        with pytest.raises(ValueError, match="valid parts"):
            parse_composition("ind7", 2)
        with pytest.raises(ValueError, match="valid parts"):
            parse_composition("bogus", 2)

    def test_duplicate_part(self):
        with pytest.raises(ValueError, match="repeats"):
            CompositionSpec(parts=("joint", "joint"), name="joint+joint")

    def test_vocabulary_attached(self, fitted):
        _, result, vocab = fitted
        out = compose(result, parse_composition("joint", 2), vocab)
        assert out.vocab == vocab


class TestVarianceReportOutput:
    def test_pure_joint(self, rng):
        x = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 40))
        result = jive_fit([x, x.copy()], JiveConfig(joint_rank=3, individual_ranks=(0, 0)))
        report = variance_explained(result)
        assert abs(report.joint_pct[0] - 100.0) <= 1e-9
        assert report.individual_pct[0] <= 1e-9
        assert report.residual_pct[0] <= 1e-9

    def test_planted_sums(self, fitted):
        model, result, _ = fitted
        report = variance_explained(result)
        for i in range(2):
            assert 0.0 < report.residual_pct[i] < 5.0
            assert 99.9 <= report.joint_pct[i] + report.individual_pct[i] + report.residual_pct[i] <= 100.1

    def test_percentages_invariant_under_block_order(self, fitted):
        model, _, _ = fitted
        config = JiveConfig(joint_rank=5, individual_ranks=(3, 4), epsilon=1e-9)
        forward = variance_explained(jive_fit(model.blocks, config))
        config_swapped = JiveConfig(joint_rank=5, individual_ranks=(4, 3), epsilon=1e-9)
        backward = variance_explained(jive_fit(model.blocks[::-1], config_swapped))
        np.testing.assert_allclose(forward.joint_pct, backward.joint_pct[::-1], atol=1e-6)
        np.testing.assert_allclose(forward.residual_pct, backward.residual_pct[::-1], atol=1e-6)

    def test_write_deterministic(self, fitted, tmp_path):
        model, result, _ = fitted
        report = variance_explained(result)
        for fmt in ("tsv", "json"):
            a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
            write_report(report, a, fmt, provenance={"seed": 0})
            write_report(report, b, fmt, provenance={"seed": 0})
            assert a.read_bytes() == b.read_bytes()

    def test_tsv_schema(self, fitted, tmp_path):
        model, result, _ = fitted
        report = variance_explained(result)
        path = tmp_path / "report.tsv"
        write_report(report, path, "tsv")
        lines = path.read_text().splitlines()
        assert lines[0] == "block\tjoint_pct\tindiv_pct\tresid_pct\tjoint_rank\tindiv_rank"
        assert len(lines) == 3
        first = lines[1].split("\t")
        assert first[0] == "block0"
        assert first[4] == "5" and first[5] == "3"

    def test_json_round_trip_full_precision(self, fitted, tmp_path):
        model, result, _ = fitted
        report = variance_explained(result)
        path = tmp_path / "report.json"
        write_report(report, path, "json", provenance={"epsilon": 1e-9, "seed": 3})
        parsed = json.loads(path.read_text())
        expected = report_json_dict(report, provenance={"epsilon": 1e-9, "seed": 3})
        for i, block in enumerate(parsed["blocks"]):
            for key in ("joint_pct", "individual_pct", "residual_pct"):
                reference = expected["blocks"][i][key]
                assert block[key] == pytest.approx(reference, rel=1e-15)

    def test_unknown_format(self, fitted, tmp_path):
        model, result, _ = fitted
        report = variance_explained(result)
        with pytest.raises(ValueError, match="report format"):
            write_report(report, tmp_path / "x", "yaml")
