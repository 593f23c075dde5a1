"""Randomized verification families: determinism and small-scale runs."""

import json
from dataclasses import replace
from fractions import Fraction as F

from conedom import suite
from conedom.cones import ConeMembership
from conedom.separation import hulls_disjoint, strict_separator
from conedom.suite import (
    CORPUS_SEED,
    DEFAULT_COUNTS,
    FAMILIES,
    build_invariance_corpus,
    run_suite,
)

SMALL_COUNTS = {k: 3 for k in FAMILIES}


class TestFamilies:
    def test_registry_covers_criteria_one_through_eight(self):
        assert sorted(FAMILIES) == list(range(1, 9))
        assert sorted(DEFAULT_COUNTS) == list(range(1, 9))

    def test_each_family_passes_at_small_scale(self):
        for criterion, family in FAMILIES.items():
            report = family(11 * criterion, 3)
            assert report.passed(), f"family {criterion}: {report.failures}"
            assert report.criterion == criterion
            assert report.passes == report.instances

    def test_report_dict_shape(self):
        report = FAMILIES[8](5, 2)
        doc = report.as_dict()
        assert set(doc) == {
            "criterion", "label", "instances", "passes", "failures", "passed", "details",
        }
        assert doc["passed"] is True

    def test_quasiconcavity_family_records_the_violation_witness(self):
        report = FAMILIES[7](0, 3)
        assert report.passed()
        assert "found_violation" in report.details


class TestRunSuite:
    def test_all_families_pass(self):
        result = run_suite(seed=7, counts=SMALL_COUNTS)
        assert result["all_passed"] is True
        assert result["seed"] == 7
        assert len(result["families"]) == 8

    def test_same_seed_gives_identical_reports(self):
        first = run_suite(seed=42, counts=SMALL_COUNTS)
        second = run_suite(seed=42, counts=SMALL_COUNTS)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_counts_override_is_reflected_in_report_sizes(self):
        result = run_suite(seed=9, counts={**SMALL_COUNTS, 1: 5})
        by_criterion = {doc["criterion"]: doc for doc in result["families"]}
        assert by_criterion[1]["instances"] == 5


class TestInvarianceCorpus:
    def test_corpus_build_is_reproducible(self):
        kept_a, rejected_a = build_invariance_corpus(10)
        kept_b, rejected_b = build_invariance_corpus(10)
        assert kept_a == kept_b
        assert rejected_a == rejected_b

    def test_corpus_matches_pinned_fixture_prefix(self):
        import pathlib

        fixture = json.loads(
            (pathlib.Path(__file__).parent / "data" / "invariance_corpus.json").read_text()
        )
        assert fixture["seed"] == CORPUS_SEED
        kept, rejected = build_invariance_corpus(len(fixture["instances"]))
        assert rejected == fixture["rejected_draws"]
        for built, pinned in zip(kept, fixture["instances"]):
            for key, value in built.as_dict().items():
                assert pinned[key] == value


class TestFamiliesCheckThroughTheValidators:
    def test_a_forged_membership_fails_family_2_with_the_validators_message(self, monkeypatch):
        def forged(cone, v):
            return ConeMembership(True, coefficients=(F(-1),) * len(cone.generators))

        monkeypatch.setattr(suite, "cone_membership", forged)
        report = FAMILIES[2](22, 3)
        assert not report.passed()
        assert report.failures[0] == "instance 0: membership certificate invalid: membership coefficients are negative"

    def test_a_forged_disjointness_bound_fails_family_3(self, monkeypatch):
        monkeypatch.setattr(suite, "hulls_disjoint", lambda x, y: replace(hulls_disjoint(x, y), x_bound=F(10**6)))
        report = FAMILIES[3](33, 3)
        assert report.passes == 0
        assert report.failures == [f"instance {i}: separation certificate arithmetic failed" for i in range(3)]

    def test_a_forged_separation_bound_fails_family_4(self, monkeypatch):
        monkeypatch.setattr(suite, "strict_separator", lambda x, y: replace(strict_separator(x, y), inf_y=F(10**6)))
        report = FAMILIES[4](44, 3)
        assert report.passes == 0
        assert report.failures == [f"instance {i}: strict separation checks failed" for i in range(3)]
