"""The scripted chaos drill, at test scale."""

import json

from repro.serve.chaos import classify_status, run_drill


class TestClassifyStatus:
    def test_accounted_outcomes(self):
        assert classify_status(200) == "ok"
        assert classify_status(429) == "shed"
        assert classify_status(504) == "deadline"

    def test_everything_else_is_an_error(self):
        for code in (400, 404, 409, 500, 502):
            assert classify_status(code) == "error"


class TestChaosDrill:
    def test_raise_block_flood_and_bad_green(self, tmp_path):
        report_path = tmp_path / "chaos.json"
        report = run_drill(
            workers=2,
            clients=4,
            requests_per_client=2,
            nodes=80,
            edges=400,
            canary_min_requests=3,
            report_path=report_path,
        )
        assert report["ok"], report["checks"]

        # zero dropped: every submitted request resolved to an
        # answer, an explicit shed/deadline, or its injected fault's 500
        counts = report["counts"]
        accounted = (
            counts["ok"] + counts["shed"] + counts["deadline"]
            + counts["failed"]
        )
        assert accounted == report["submitted"]
        assert counts["error"] == 0

        # each fault showed its own answers, and the wave after each
        # one was all 200
        for name in (
            "raise_answered_poisoned_500",
            "block_answered_within_deadline",
            "flood_shed_past_queue_depth",
            "recovered_after_each_fault",
        ):
            assert report["checks"][name], name
        waves = {row["name"]: row for row in report["waves"]}
        assert waves["raise"]["failed"] >= 2
        assert waves["block"]["deadline"] >= 1
        assert waves["block"]["max_ms"] < 800.0
        assert report["broker"]["abandoned_batches"] >= 1
        assert waves["flood"]["shed"] >= 1
        for name in ("recover-raise", "recover-block", "recover-flood"):
            assert waves[name]["ok"] == 4 * 2, waves[name]

        # the bad-green canary rolled back, blue kept serving
        assert report["canary"]["outcome"] == "rollback"
        assert report["waves"][-1]["name"] == "after-rollback"
        assert report["waves"][-1]["ok"] > 0

        # the CI artifact landed and parses
        saved = json.loads(report_path.read_text())
        assert saved["checks"] == report["checks"]
