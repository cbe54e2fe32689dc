"""Report round-trips, ordering, merge semantics, SARIF, baselines."""

import json

import pytest

from repro.analysis import (Diagnostic, Report, Severity, apply_baseline,
                            baseline_document, fingerprint,
                            report_to_sarif, split_locus, verify_sweep)


def _sample_report():
    report = Report()
    report.warning("CL003", "src/x.py:10", "unseeded draw")
    report.error("MF001", "vgg_mini", "peak exceeds DRAM")
    report.info("CL004", "src/y.py:3", "wall-clock read")
    report.error("SC001", "fleet", "rho past 1")
    return report


class TestRoundTrips:
    def test_to_dict_from_dict_is_identity(self):
        report = _sample_report()
        rebuilt = Report.from_dict(report.to_dict())
        assert rebuilt.to_dict() == report.to_dict()
        assert [d for d in rebuilt] == [d for d in report]

    def test_to_json_from_json_is_identity(self):
        report = _sample_report()
        rebuilt = Report.from_json(report.to_json())
        assert rebuilt.to_dict() == report.to_dict()

    def test_json_preserves_emission_order(self):
        report = _sample_report()
        payload = json.loads(report.to_json())
        assert [entry["rule"] for entry in payload] == [
            "CL003", "MF001", "CL004", "SC001"]

    def test_from_json_rejects_non_list(self):
        with pytest.raises(ValueError):
            Report.from_json('{"rule": "MF001"}')

    def test_from_dict_rejects_unknown_rule(self):
        with pytest.raises(ValueError):
            Diagnostic.from_dict({"severity": "error", "rule": "XX999",
                                  "locus": "x", "message": "m"})

    def test_from_dict_rejects_unknown_severity(self):
        with pytest.raises(ValueError):
            Diagnostic.from_dict({"severity": "fatal", "rule": "MF001",
                                  "locus": "x", "message": "m"})

    def test_from_dict_rejects_missing_key(self):
        with pytest.raises(ValueError):
            Diagnostic.from_dict({"severity": "error", "rule": "MF001"})


class TestOrderingAndMerge:
    def test_sorted_orders_by_rule_then_locus(self):
        report = _sample_report().sorted()
        keys = [d.sort_key for d in report]
        assert keys == sorted(keys)
        assert [d.rule for d in report] == ["CL003", "CL004", "MF001",
                                           "SC001"]

    def test_sorted_is_stable_for_equal_keys(self):
        report = Report()
        report.error("MF001", "a", "first")
        report.error("MF001", "a", "second")
        assert [d.message for d in report.sorted()] == ["first",
                                                        "second"]

    def test_extend_merges_and_returns_self(self):
        left = Report()
        left.error("MF001", "a", "m1")
        right = Report()
        right.warning("CL003", "b", "m2")
        returned = left.extend(right)
        assert returned is left
        assert len(left) == 2
        assert len(right) == 1    # the source report is untouched

    def test_extend_accepts_bare_iterables(self):
        report = Report()
        report.extend([Diagnostic(Severity.INFO, "CL004", "x", "m")])
        assert len(report) == 1

    def test_severity_ordering_errors_first(self):
        report = Report()
        report.info("MF001", "same", "info")
        report.error("DT001", "same", "error")
        report.warning("CL003", "same", "warning")
        ranks = [d.severity for d in report.sorted()]
        assert ranks == [Severity.WARNING, Severity.ERROR,
                         Severity.INFO]    # rule id dominates severity


class TestSweepDeterminism:
    def test_parallel_sweep_matches_serial(self):
        kwargs = dict(models=["vgg_mini", "alexnet_mini"],
                      socs=["exynos7420"], mechanisms=["cpu", "gpu"])
        serial = verify_sweep(jobs=None, **kwargs)
        parallel = verify_sweep(jobs=2, **kwargs)
        assert [(e.model, e.soc, e.mechanism, e.report.to_dict())
                for e in serial] == [
               (e.model, e.soc, e.mechanism, e.report.to_dict())
               for e in parallel]

    def test_entries_sorted_by_model_soc_mechanism(self):
        entries = verify_sweep(models=["vgg_mini", "alexnet_mini"],
                               socs=["exynos7420"],
                               mechanisms=["gpu", "cpu"])
        keys = [(e.model, e.soc, e.mechanism) for e in entries]
        assert keys == sorted(keys)


class TestSarif:
    def test_split_locus(self):
        assert split_locus("src/x.py:42") == ("src/x.py", 42)
        assert split_locus("conv1") == ("conv1", None)
        assert split_locus("model/soc/cpu:conv1") == (
            "model/soc/cpu:conv1", None)

    def test_sarif_structure(self):
        log = report_to_sarif(_sample_report())
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        rules = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert rules == sorted(rules)
        assert len(run["results"]) == 4
        by_rule = {r["ruleId"]: r for r in run["results"]}
        assert by_rule["MF001"]["level"] == "error"
        assert by_rule["CL003"]["level"] == "warning"
        assert by_rule["CL004"]["level"] == "note"
        location = by_rule["CL003"]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/x.py"
        assert location["region"]["startLine"] == 10

    def test_report_to_sarif_method_is_valid_json(self):
        log = json.loads(_sample_report().to_sarif())
        assert log["runs"][0]["tool"]["driver"]["name"] == (
            "repro-analysis")

    def test_fingerprint_survives_line_drift(self):
        before = Diagnostic(Severity.WARNING, "CL003", "src/x.py:10",
                            "unseeded draw")
        after = Diagnostic(Severity.WARNING, "CL003", "src/x.py:99",
                           "unseeded draw")
        assert fingerprint(before) == fingerprint(after)

    def test_fingerprint_distinguishes_messages(self):
        a = Diagnostic(Severity.WARNING, "CL003", "src/x.py:10", "one")
        b = Diagnostic(Severity.WARNING, "CL003", "src/x.py:10", "two")
        assert fingerprint(a) != fingerprint(b)

    def test_baseline_suppresses_exactly_its_findings(self):
        report = _sample_report()
        document = baseline_document(report)
        suppressions = {entry["fingerprint"]: entry["reason"]
                        for entry in document["suppressions"]}
        assert apply_baseline(report, suppressions).clean
        fresh = Report()
        fresh.error("MF002", "new", "a new finding")
        merged = Report(list(report)).extend(fresh)
        left = apply_baseline(merged, suppressions)
        assert [d.rule for d in left] == ["MF002"]
