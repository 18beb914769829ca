"""Tests for the guard layer: shedding, deadlines, canary."""

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.graph import figure1_citation_graph, random_digraph
from repro.serve import (
    Canary,
    DeadlineExceeded,
    Overloaded,
    ServingService,
    serve_http,
)
from repro.serve.__main__ import smoke_exit_code


def run(coro):
    return asyncio.run(coro)


def make_service(graph=None, **kwargs):
    if graph is None:
        graph = random_digraph(60, 300, seed=3)
    kwargs.setdefault("num_iterations", 6)
    return ServingService(graph, **kwargs)


async def until_decided(service, canary, timeout=10.0):
    """Drive reads until ``canary`` is decided and the broker let go."""
    loop = asyncio.get_running_loop()
    stop = loop.time() + timeout
    while service.broker.canary is not None and loop.time() < stop:
        if canary.outcome is None:
            await service.top_k("h", k=3)
        else:
            await asyncio.sleep(0.01)
    return canary.outcome


def break_green(canary):
    """Make the canary's green engine raise on every column read."""

    def broken(queries, *args, **kwargs):
        raise RuntimeError("forced bad green")

    canary.green.engine.columns = broken


class TestLoadShedding:
    def test_flood_beyond_queue_depth_sheds_with_retry_after(self):
        service = make_service(
            max_queue_depth=2,
            max_batch=1,
            max_wait_ms=0.0,
            cache_entries=0,
        )

        async def drive():
            results = await asyncio.gather(
                *(service.top_k(q, k=3) for q in range(40)),
                return_exceptions=True,
            )
            return results

        async def main():
            async with service:
                return await drive()

        results = run(main())
        answered = [r for r in results if not isinstance(r, Exception)]
        shed = [r for r in results if isinstance(r, Overloaded)]
        unexpected = [
            r for r in results
            if isinstance(r, Exception)
            and not isinstance(r, Overloaded)
        ]
        assert not unexpected
        assert len(answered) + len(shed) == 40
        assert shed, "a 40-deep flood into a 2-slot queue must shed"
        assert all(e.retry_after > 0 for e in shed)
        assert service.broker.stats.shed == len(shed)

    def test_zero_depth_never_sheds(self):
        service = make_service(max_queue_depth=0, cache_entries=0)

        async def main():
            async with service:
                return await asyncio.gather(
                    *(service.top_k(q, k=3) for q in range(30))
                )

        assert len(run(main())) == 30
        assert service.broker.stats.shed == 0

    def test_negative_depth_is_rejected(self):
        with pytest.raises(ValueError):
            make_service(max_queue_depth=-1)


class TestDeadlines:
    def test_expired_request_is_answered_deadline_exceeded(self):
        service = make_service(cache_entries=0, max_wait_ms=5.0)

        async def main():
            async with service:
                with pytest.raises(DeadlineExceeded):
                    await service.top_k(0, k=3, deadline_ms=0.001)

        run(main())
        assert service.broker.stats.deadline_expired == 1

    def test_expired_member_does_not_poison_its_batch(self):
        service = make_service(
            cache_entries=0, max_batch=8, max_wait_ms=20.0
        )

        async def main():
            async with service:
                return await asyncio.gather(
                    service.top_k(0, k=3, deadline_ms=0.001),
                    service.top_k(1, k=3),
                    service.top_k(2, k=3),
                    return_exceptions=True,
                )

        doomed, ok1, ok2 = run(main())
        assert isinstance(doomed, DeadlineExceeded)
        assert not isinstance(ok1, Exception)
        assert not isinstance(ok2, Exception)

    def test_server_default_deadline_applies(self):
        service = make_service(
            cache_entries=0, default_deadline_ms=0.001,
            max_wait_ms=5.0,
        )

        async def main():
            async with service:
                with pytest.raises(DeadlineExceeded):
                    await service.top_k(0, k=3)
                # an explicit budget overrides the tiny default
                return await service.top_k(1, k=3, deadline_ms=60000)

        assert len(run(main())) == 3

    def test_zero_override_disables_the_default(self):
        service = make_service(
            cache_entries=0, default_deadline_ms=0.001,
            max_wait_ms=5.0,
        )

        async def main():
            async with service:
                return await service.top_k(0, k=3, deadline_ms=0)

        assert len(run(main())) == 3


def post_top_k(url, payload):
    """``POST /top_k``: its HTTP status and round-trip seconds."""
    request = urllib.request.Request(
        f"{url}/top_k", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    t0 = time.perf_counter()
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            reply.read()
            code = reply.status
    except urllib.error.HTTPError as exc:
        exc.read()
        code = exc.code
    return code, time.perf_counter() - t0


class TestHangBound:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_blocked_call_is_answered_by_its_deadline(self, workers):
        """An engine call blocked for 3 s: its request (deadline 200 ms)
        gets 504 in under 0.5 s, requests sent 0.3 s later get 200
        without waiting for the block, and the batch counts as
        abandoned."""
        service = make_service(workers=workers, cache_entries=0)
        engine = service.snapshots.current.engine
        columns = engine.columns
        release = threading.Event()

        def blocking(queries, *args, **kwargs):
            if 0 in queries:
                release.wait(3.0)
            return columns(queries, *args, **kwargs)

        engine.columns = blocking
        service.start_background()
        server = serve_http(service, background=True)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                blocked = pool.submit(
                    post_top_k, server.url,
                    {"query": 0, "k": 3, "deadline_ms": 200},
                )
                time.sleep(0.3)
                healthy = [
                    pool.submit(
                        post_top_k, server.url, {"query": q, "k": 3}
                    )
                    for q in (1, 2, 3)
                ]
                blocked_code, blocked_s = blocked.result()
                answers = [future.result() for future in healthy]
            abandoned = service.status()["broker"]["abandoned_batches"]
        finally:
            release.set()
            server.stop()
            service.close()
        assert blocked_code == 504
        assert blocked_s < 0.5
        assert [code for code, _ in answers] == [200, 200, 200]
        assert max(seconds for _, seconds in answers) < 1.0
        assert abandoned == 1


class TestCanaryLocal:
    def test_healthy_green_auto_promotes(self):
        service = make_service(
            graph=figure1_citation_graph(),
            num_iterations=8,
            cache_entries=0,
            canary_min_requests=4,
        )

        async def main():
            async with service:
                blue_seq = service.snapshots.current.seq
                canary = service.mutate_canary(
                    add=[("a", "h")], fraction=0.5
                )
                for _ in range(40):
                    await service.top_k("h", k=3)
                    if canary.outcome:
                        break
                await asyncio.sleep(0.2)
                return blue_seq, canary

        blue_seq, canary = run(main())
        assert canary.outcome == "promote"
        assert service.snapshots.current.seq > blue_seq
        assert service.snapshots.canary_promotes == 1
        assert service.broker.canary is None

    def test_faulty_green_auto_rolls_back(self):
        service = make_service(
            graph=figure1_citation_graph(),
            num_iterations=8,
            cache_entries=0,
            canary_min_requests=4,
        )

        async def main():
            async with service:
                blue_seq = service.snapshots.current.seq
                canary = service.mutate_canary(
                    add=[("a", "h")], fraction=0.5
                )
                break_green(canary)
                for _ in range(80):
                    try:
                        await service.top_k("h", k=3)
                    except RuntimeError:
                        pass
                    if canary.outcome:
                        break
                await asyncio.sleep(0.2)
                # blue keeps serving after the rollback
                ranking = await service.top_k("h", k=3)
                return blue_seq, canary, ranking

        blue_seq, canary, ranking = run(main())
        assert canary.outcome == "rollback"
        assert service.snapshots.current.seq == blue_seq
        assert service.snapshots.canary_rollbacks == 1
        assert len(ranking) == 3

    def test_only_one_canary_in_flight(self):
        service = make_service(
            graph=figure1_citation_graph(), num_iterations=8
        )

        async def main():
            async with service:
                service.mutate_canary(add=[("a", "h")])
                with pytest.raises(RuntimeError, match="in flight"):
                    service.mutate_canary(add=[("b", "h")])

        run(main())

    def test_plain_write_during_a_canary_is_refused_not_lost(self):
        """Figure 1, one worker: a write made while a canary runs used
        to vanish when the canary (built from the older graph) was
        promoted. It is refused instead, and lands once it is decided.
        """
        service = make_service(
            graph=figure1_citation_graph(),
            num_iterations=8,
            cache_entries=0,
            canary_min_requests=4,
            workers=1,
        )

        async def main():
            async with service:
                canary = service.mutate_canary(
                    add=[("c", "h")], fraction=1.0
                )
                with pytest.raises(RuntimeError, match="in flight"):
                    service.mutate(add=[("a", "h")])
                outcome = await until_decided(service, canary)
                return outcome, service.mutate(add=[("a", "h")])

        outcome, snapshot = run(main())
        assert outcome == "promote"
        assert service.snapshots.current is snapshot
        labels = snapshot.graph.labels
        edges = {(labels[u], labels[v]) for u, v in snapshot.graph.edges()}
        assert {("c", "h"), ("a", "h")} <= edges

    def test_no_op_canary_builds_nothing(self):
        service = make_service(
            graph=figure1_citation_graph(), num_iterations=8
        )

        async def main():
            async with service:
                # e -> h is already an edge: no net edit
                canary = service.mutate_canary(add=[("e", "h")])
                return canary, service.broker.canary

        canary, live = run(main())
        assert canary is None and live is None
        assert service.snapshots.builds == 0
        assert service.snapshots.current.seq == 0
        assert service.snapshots.canary_prepares == 0

    def test_rolled_back_seq_is_never_reused(self):
        service = make_service(
            graph=figure1_citation_graph(),
            num_iterations=8,
            cache_entries=0,
            canary_min_requests=2,
        )

        async def main():
            async with service:
                canary = service.mutate_canary(
                    add=[("a", "h")], fraction=1.0
                )
                break_green(canary)
                green_seq = canary.green.seq
                for _ in range(40):
                    try:
                        await service.top_k("h", k=3)
                    except RuntimeError:
                        pass
                    if canary.outcome:
                        break
                await asyncio.sleep(0.2)
                snapshot = service.mutate(add=[("b", "h")])
                return green_seq, snapshot.seq

        green_seq, next_seq = run(main())
        assert next_seq > green_seq

    def test_canary_describe_in_status(self):
        service = make_service(
            graph=figure1_citation_graph(), num_iterations=8
        )

        async def main():
            async with service:
                assert service.status()["guard"]["canary"] is None
                service.mutate_canary(add=[("a", "h")])
                return service.status()["guard"]["canary"]

        document = run(main())
        assert document["outcome"] is None
        assert document["counts"]["green"] == {"ok": 0, "errors": 0}


class TestCanaryRetention:
    def test_decided_canaries_release_their_snapshots(self):
        """A decided canary leaves only its final document behind: the
        snapshots it held (a promoted canary's blue, a rolled-back
        canary's green) must not outlive it."""
        import gc
        import weakref

        service = make_service(
            graph=figure1_citation_graph(),
            num_iterations=8,
            cache_entries=0,
            canary_min_requests=4,
        )

        async def decide(canary):
            for _ in range(80):
                try:
                    await service.top_k("h", k=3)
                except RuntimeError:
                    pass
                if canary.outcome:
                    break
            await asyncio.sleep(0.2)
            return canary.outcome

        async def main():
            async with service:
                old = [weakref.ref(service.snapshots.current.engine)]
                canary = service.mutate_canary(
                    add=[("a", "h")], fraction=0.5
                )
                outcomes = [await decide(canary)]
                canary = service.mutate_canary(
                    add=[("b", "h")], fraction=0.5
                )
                break_green(canary)
                old.append(weakref.ref(canary.green.engine))
                outcomes.append(await decide(canary))
                del canary
                old.append(weakref.ref(service.snapshots.current.engine))
                service.mutate(add=[("c", "h")])
                return old, outcomes

        old, outcomes = run(main())
        assert outcomes == ["promote", "rollback"]
        gc.collect()
        assert [ref() for ref in old] == [None, None, None]
        document = service.canary_status()
        assert document["outcome"] == "rollback"
        assert document["counts"]["green"]["errors"] >= 1


class TestCanaryWithWorkers:
    def test_promotion_keeps_the_workers_canary_engines(self):
        """A promoted canary keeps serving from green's own engine:
        promotion builds nothing, and the next read computes on
        green's engine while blue's stays idle."""
        service = make_service(
            graph=figure1_citation_graph(),
            num_iterations=8,
            cache_entries=0,
            canary_min_requests=4,
            workers=2,
        )

        def computes(blue, green):
            return (
                blue.engine.stats.column_computes,
                green.engine.stats.column_computes,
            )

        async def main():
            async with service:
                blue = service.snapshots.current
                canary = service.mutate_canary(
                    add=[("a", "h")], fraction=1.0
                )
                builds = service.snapshots.builds
                for _ in range(40):
                    await service.top_k("h", k=3)
                    if canary.outcome:
                        break
                await asyncio.sleep(0.2)
                current = service.snapshots.current
                before = computes(blue, canary.green)
                await service.top_k("h", k=3)
                after = computes(blue, canary.green)
                return canary, builds, current, before, after

        canary, builds, current, before, after = run(main())
        assert canary.outcome == "promote"
        assert current is canary.green
        assert service.snapshots.builds == builds
        assert after == (before[0], before[1] + 1)


class TestCanaryDecisions:
    def test_deterministic_traffic_split(self):
        canary = Canary("blue", "green", fraction=0.25)
        # the accumulator starts primed, so the first call probes
        # green immediately, then settles into 1-in-4
        sides = [canary.choose() for _ in range(9)]
        assert sides[0] == "green"
        assert sides[1:].count("green") == 2
        assert all(s in ("blue", "green") for s in sides)

    def test_error_delta_rolls_back(self):
        canary = Canary(
            "b", "g", min_requests=4, max_error_delta=0.1
        )
        for _ in range(4):
            canary.record("green", False, 0.01)
        assert canary.decide() == "rollback"

    def test_p95_regression_rolls_back(self):
        canary = Canary("b", "g", min_requests=4, max_p95_ratio=2.0)
        for _ in range(20):
            canary.record("blue", True, 0.010)
        for _ in range(4):
            canary.record("green", True, 0.100)
        assert canary.decide() == "rollback"

    def test_finalize_is_single_shot(self):
        canary = Canary("b", "g", min_requests=1)
        canary.record("green", True, 0.01)
        assert canary.finalize("promote") is True
        assert canary.finalize("rollback") is False
        assert canary.decide() is None
        assert canary.outcome == "promote"


class TestGuardOverHTTP:
    def test_shed_answers_429_with_retry_after(self):
        service = make_service(
            max_queue_depth=1,
            max_batch=1,
            max_wait_ms=0.0,
            cache_entries=0,
        )
        service.start_background()
        server = serve_http(service, background=True)
        url = server.url
        codes = []
        retry_afters = []

        def client(q):
            body = json.dumps({"query": q % 50, "k": 3}).encode()
            request = urllib.request.Request(
                f"{url}/top_k", data=body,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            try:
                with urllib.request.urlopen(
                    request, timeout=30
                ) as reply:
                    reply.read()
                    codes.append(reply.status)
            except urllib.error.HTTPError as exc:
                payload = json.loads(exc.read())
                codes.append(exc.code)
                if exc.code == 429:
                    retry_afters.append(
                        (exc.headers.get("Retry-After"),
                         payload.get("retry_after"))
                    )

        try:
            with ThreadPoolExecutor(max_workers=32) as pool:
                list(pool.map(client, range(64)))
        finally:
            server.stop()
            service.close()
        assert len(codes) == 64
        assert set(codes) <= {200, 429}
        assert 429 in codes, "64-deep flood into depth 1 must shed"
        for header, body_value in retry_afters:
            assert float(header) > 0
            assert body_value == pytest.approx(float(header))

    def test_expired_deadline_answers_504(self):
        service = make_service(
            cache_entries=0, max_wait_ms=5.0
        )
        service.start_background()
        server = serve_http(service, background=True)
        try:
            body = json.dumps(
                {"query": 0, "k": 3, "deadline_ms": 0.001}
            ).encode()
            request = urllib.request.Request(
                f"{server.url}/top_k", data=body,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 504
            assert "deadline" in json.loads(excinfo.value.read())[
                "error"
            ]
        finally:
            server.stop()
            service.close()

    def test_mutate_canary_route_and_conflict_409(self):
        service = make_service(
            graph=figure1_citation_graph(), num_iterations=8
        )
        service.start_background()
        server = serve_http(service, background=True)

        def post_mutate(payload):
            body = json.dumps(payload).encode()
            request = urllib.request.Request(
                f"{server.url}/mutate", data=body,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            return urllib.request.urlopen(request, timeout=60)

        try:
            # no net edit: no canary, the current snapshot stands
            with post_mutate(
                {"add": [["e", "h"]], "canary": True}
            ) as reply:
                document = json.loads(reply.read())
            assert document["snapshot"]["seq"] == 0
            with post_mutate(
                {"add": [["a", "h"]], "canary": True,
                 "fraction": 0.5}
            ) as reply:
                document = json.loads(reply.read())
            assert document["canary"]["fraction"] == 0.5
            assert document["canary"]["outcome"] is None
            # while it is in flight, every other write is refused
            for payload in (
                {"add": [["b", "h"]], "canary": True},
                {"add": [["b", "h"]]},
            ):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    post_mutate(payload)
                assert excinfo.value.code == 409
                excinfo.value.read()
        finally:
            server.stop()
            service.close()


class TestAccountingProperty:
    """Satellite: answered + shed + expired == submitted, always."""

    @pytest.mark.parametrize(
        "workers",
        [pytest.param(2, id="thread"), pytest.param(0, id="inproc")],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_sequences_never_lose_a_request(
        self, workers, seed
    ):
        import random

        rng = random.Random(seed)
        depth = rng.choice([1, 2, 4])
        service = make_service(
            graph=random_digraph(40, 200, seed=5),
            workers=workers,
            cache_entries=0,
            max_batch=rng.choice([1, 4]),
            max_wait_ms=rng.choice([0.0, 2.0]),
            max_queue_depth=depth,
            default_deadline_ms=rng.choice([0.0, 5000.0]),
        )
        total = 36
        deadlines = [
            rng.choice([None, 0.001, 0.5, 50.0, 60000.0])
            for _ in range(total)
        ]

        async def main():
            async with service:
                return await asyncio.gather(
                    *(
                        service.top_k(
                            q % 40, k=3, deadline_ms=deadlines[q]
                        )
                        for q in range(total)
                    ),
                    return_exceptions=True,
                )

        results = run(main())
        answered = sum(
            1 for r in results if not isinstance(r, Exception)
        )
        shed = sum(1 for r in results if isinstance(r, Overloaded))
        expired = sum(
            1 for r in results if isinstance(r, DeadlineExceeded)
        )
        other = total - answered - shed - expired
        assert other == 0, [
            r for r in results
            if isinstance(r, Exception)
            and not isinstance(r, (Overloaded, DeadlineExceeded))
        ]
        stats = service.broker.stats
        assert stats.shed == shed
        assert stats.deadline_expired == expired


class TestSmokeExitCode:
    """Satellite: per-request failures must never exit 0."""

    def test_failures_alone_force_nonzero(self):
        assert smoke_exit_code({"a": True, "b": True}, ["boom"]) == 1

    def test_failed_check_forces_nonzero(self):
        assert smoke_exit_code({"a": True, "b": False}, []) == 1

    def test_clean_run_exits_zero(self):
        assert smoke_exit_code({"a": True}, []) == 0
