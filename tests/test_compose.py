import json

import numpy as np
import pytest

from embedjive.compose import CompositionSpec, compose, parse_composition, selected_parts, standard_compositions
from embedjive.jive import PCT_KEYS, JiveConfig, jive_fit, report_tsv, variance_explained
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
        # A part has one spelling: no leading zeros, no other digits.
        for token in ("ind00", "ind01", "ind\u0661", "joint+ind0+ind00"):
            with pytest.raises(ValueError, match="valid parts"):
                parse_composition(token, 2)
        with pytest.raises(ValueError, match="unknown composition part 'ind01'"):
            selected_parts(CompositionSpec(parts=("ind01",), name="ind01"), [2, 1, 1])

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
        assert abs(report["blocks"][0]["joint_pct"] - 100.0) <= 1e-9
        assert report["blocks"][0]["individual_pct"] <= 1e-9
        assert report["blocks"][0]["residual_pct"] <= 1e-9

    def test_planted_sums(self, fitted):
        model, result, _ = fitted
        report = variance_explained(result)
        for i in range(2):
            assert 0.0 < report["blocks"][i]["residual_pct"] < 5.0
            assert 99.9 <= sum(report["blocks"][i][key] for key in PCT_KEYS) <= 100.1

    def test_percentages_invariant_under_block_order(self, fitted):
        model, _, _ = fitted
        config = JiveConfig(joint_rank=5, individual_ranks=(3, 4), epsilon=1e-9)
        forward = variance_explained(jive_fit(model.blocks, config))
        config_swapped = JiveConfig(joint_rank=5, individual_ranks=(4, 3), epsilon=1e-9)
        backward = variance_explained(jive_fit(model.blocks[::-1], config_swapped))
        for a, b in zip(forward["blocks"], backward["blocks"][::-1], strict=True):
            assert a["joint_pct"] == pytest.approx(b["joint_pct"], abs=1e-6)
            assert a["residual_pct"] == pytest.approx(b["residual_pct"], abs=1e-6)

    def test_write_deterministic(self, fitted):
        model, result, _ = fitted
        again = jive_fit(model.blocks, JiveConfig(joint_rank=5, individual_ranks=(3, 4), epsilon=1e-9))
        reports = [variance_explained(r) for r in (result, again)]
        assert report_tsv(reports[0]) == report_tsv(reports[1])
        assert json.dumps(reports[0], sort_keys=True) == json.dumps(reports[1], sort_keys=True)

    def test_tsv_schema(self, fitted):
        model, result, _ = fitted
        lines = report_tsv(variance_explained(result)).splitlines()
        assert lines[0] == "block\tjoint_pct\tindiv_pct\tresid_pct\tjoint_rank\tindiv_rank"
        assert len(lines) == 3
        first = lines[1].split("\t")
        assert first[0] == "block0"
        assert first[4] == "5" and first[5] == "3"

    def test_json_round_trip_full_precision(self, fitted):
        model, result, _ = fitted
        report = variance_explained(result)
        assert sorted(report) == ["blocks", "joint_rank"]
        assert [sorted(b) for b in report["blocks"]] == [sorted(["name", *PCT_KEYS, "individual_rank"])] * 2
        assert json.loads(json.dumps(report, sort_keys=True, indent=2)) == report
