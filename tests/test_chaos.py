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
    def test_kill_hang_corrupt_and_bad_green(self, tmp_path):
        report_path = tmp_path / "chaos.json"
        transitions_path = tmp_path / "transitions.jsonl"
        report = run_drill(
            workers=2,
            clients=4,
            requests_per_client=2,
            nodes=80,
            edges=400,
            breaker_cooldown_s=0.2,
            shard_timeout=0.5,
            canary_min_requests=3,
            report_path=report_path,
            transitions_path=transitions_path,
        )
        assert report["ok"], report["checks"]

        # zero dropped: every submitted request resolved to an
        # answer or an explicit shed/deadline
        counts = report["counts"]
        accounted = (
            counts["ok"] + counts["shed"] + counts["deadline"]
        )
        assert accounted == report["submitted"]
        assert counts["error"] == 0

        # each injected fault (kill, hang, corrupt) tripped a
        # breaker, and at least one half-open probe restored one
        assert report["breaker"]["trips"] >= 3
        assert report["breaker"]["restores"] >= 1
        assert report["breaker"]["fallbacks"] >= 1

        # the forced-bad-green canary rolled back, blue kept serving
        assert report["canary"]["outcome"] == "rollback"
        assert report["waves"][-1]["name"] == "after-rollback"
        assert report["waves"][-1]["ok"] > 0

        # the CI artifacts landed and parse
        saved = json.loads(report_path.read_text())
        assert saved["checks"] == report["checks"]
        rows = [
            json.loads(line)
            for line in transitions_path.read_text().splitlines()
        ]
        assert rows, "breaker transitions must be logged"
        assert {"t", "worker", "from", "to"} <= set(rows[0])
        assert any(row["to"] == "open" for row in rows)
        assert any(row["to"] == "closed" for row in rows)
