"""Tests for the sharded sweep service and its HTTP API.

The headline contract: a tiny campaign (2 strategies x 2 processor
counts, one fault rule, one checkpoint rule) submitted through HTTP
returns results bit-identical to ``run_sweep`` over the same expanded
points, and concurrent duplicate submissions collapse to one execution
(asserted via the service counters).
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.campaign import (
    CampaignEvicted,
    CampaignSpec,
    SweepService,
    expand,
    run_point,
)
from repro.campaign.http import start_server
from repro.experiments import DiskCache, run_sweep

#: 2 strategies x 2 np, one fault rule, one checkpoint rule (-> 2 steps).
E2E_SPEC = {
    "name": "e2e-tiny",
    "seed": 5,
    "grid": {"approaches": ["rbio_ng", "coio_64"], "np": [128, 256]},
    "checkpoint": {"horizon": 2.0, "wallclock_time": [{"every": 1.0}]},
    "faults": {"specs": [{"kind": "fs_stall", "time": 0.5, "delay": 0.1}]},
}


def _get(url: str):
    with urllib.request.urlopen(url) as resp:
        return json.loads(resp.read())


def _post(url: str, payload: dict):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req) as resp:
        return json.loads(resp.read())


def _jsonify(value):
    """What a dict looks like after one HTTP round trip."""
    return json.loads(json.dumps(value, default=str))


# ---------------------------------------------------------------------------
# Service core
# ---------------------------------------------------------------------------

def test_service_matches_direct_run_sweep():
    spec = CampaignSpec.from_dict(E2E_SPEC)
    direct = run_sweep(run_point, expand(spec).points, n_workers=1)
    with SweepService(n_workers=2, cache=False) as svc:
        cid = svc.submit(spec)
        status = svc.wait(cid, timeout=300)
        assert status["state"] == "done"
        assert status["total"] == 4
        assert svc.results(cid) == direct
        summary = svc.summary(cid)
        assert [p["approach"] for p in summary["points"]] == \
            ["rbio_ng", "rbio_ng", "coio_64", "coio_64"]


def test_point_level_inflight_dedup():
    # Campaign B's only point is A's *last* point; with one worker it is
    # still queued when B arrives, so B must share the in-flight future.
    a = CampaignSpec.from_dict({
        "name": "a", "seed": 5,
        "grid": {"approaches": ["rbio_ng", "coio_64"], "np": [128]}})
    b = CampaignSpec.from_dict({
        "name": "b", "seed": 5,
        "grid": {"approaches": ["coio_64"], "np": [128]}})
    assert expand(a).points[-1] == expand(b).points[0]
    with SweepService(n_workers=1, cache=False) as svc:
        cid_a = svc.submit(a)
        cid_b = svc.submit(b)
        svc.wait(cid_a, timeout=300)
        svc.wait(cid_b, timeout=300)
        counters = svc.service_status()["counters"]
        assert counters["points_executed"] == 2
        assert counters["points_deduped"] == 1
        assert svc.results(cid_a)[-1] == svc.results(cid_b)[0]


def test_disk_cache_spans_service_restarts(tmp_path):
    spec = CampaignSpec.from_dict({
        "name": "cached", "seed": 5,
        "grid": {"approaches": ["rbio_ng"], "np": [128]}})
    cache = DiskCache(tmp_path / "c")
    with SweepService(n_workers=1, cache=cache) as svc:
        first = svc.wait(svc.submit(spec), timeout=300)
        assert first["state"] == "done"
        results = svc.results(spec.campaign_id)
    with SweepService(n_workers=1, cache=DiskCache(tmp_path / "c")) as svc:
        status = svc.wait(svc.submit(spec), timeout=300)
        assert status["state"] == "done"
        counters = svc.service_status()["counters"]
        assert counters["points_cached"] == 1
        assert counters["points_executed"] == 0
        assert svc.results(spec.campaign_id) == results


@pytest.mark.parametrize("entry", [{}, [1, 2], "x", 0,
                                   {"point": "someone-else"}],
                         ids=["empty", "list", "str", "zero", "foreign"])
def test_a_foreign_cache_entry_is_a_miss(tmp_path, entry):
    spec = CampaignSpec.from_dict({
        "name": "cached", "seed": 5,
        "grid": {"approaches": ["rbio_ng"], "np": [128]}})
    key = expand(spec).points[0].content_hash
    cache = DiskCache(tmp_path / "c")
    cache.put(key, entry)
    with SweepService(n_workers=1, cache=cache) as svc:
        status = svc.wait(svc.submit(spec), timeout=300)
        assert status["state"] == "done"
        counters = svc.service_status()["counters"]
        assert counters["points_cached"] == 0
        assert counters["points_executed"] == 1
        result = svc.results(spec.campaign_id)[0]
    assert result["point"] == key
    assert DiskCache(tmp_path / "c").get(key) == result


def test_unknown_campaign_raises():
    with SweepService(n_workers=1, cache=False) as svc:
        with pytest.raises(KeyError):
            svc.status("deadbeef")


# ---------------------------------------------------------------------------
# HTTP API end to end
# ---------------------------------------------------------------------------

@pytest.fixture
def http_service():
    svc = SweepService(n_workers=2, cache=False)
    server, _thread = start_server(svc)
    host, port = server.server_address
    yield svc, f"http://{host}:{port}"
    server.shutdown()
    svc.shutdown()


def test_http_e2e_bit_identical_and_deduped(http_service):
    svc, base = http_service
    spec = CampaignSpec.from_dict(E2E_SPEC)
    direct = run_sweep(run_point, expand(spec).points, n_workers=1)

    # Two clients submit the identical campaign concurrently.
    barrier = threading.Barrier(2)
    responses = []

    def client():
        barrier.wait()
        responses.append(_post(f"{base}/campaigns", {"spec": E2E_SPEC}))

    threads = [threading.Thread(target=client) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert responses[0]["campaign_id"] == responses[1]["campaign_id"]
    cid = responses[0]["campaign_id"]
    assert cid == spec.campaign_id

    deadline = time.monotonic() + 300
    while True:
        status = _get(f"{base}/campaigns/{cid}")
        if status["state"] != "running":
            break
        assert time.monotonic() < deadline, "campaign did not finish"
        time.sleep(0.2)
    assert status["state"] == "done"

    # One execution despite two submissions, verified by counters ...
    service = _get(f"{base}/status")
    assert service["counters"]["campaigns_submitted"] == 2
    assert service["counters"]["campaigns_deduped"] == 1
    assert service["counters"]["points_executed"] == 4
    assert status["submissions"] == 2
    # ... and the HTTP results are bit-identical to a direct run_sweep
    # over the same expanded points.
    assert _get(f"{base}/campaigns/{cid}/results") == _jsonify(direct)
    summary = _get(f"{base}/campaigns/{cid}/summary")
    assert len(summary["points"]) == 4
    assert all(p["overall_time"] is not None for p in summary["points"])


def test_http_rejects_bad_spec_with_path(http_service):
    _svc, base = http_service
    try:
        _post(f"{base}/campaigns", {"spec": {"name": "x"}})
    except urllib.error.HTTPError as exc:
        assert exc.code == 400
        assert "grid" in json.loads(exc.read())["error"]
    else:
        pytest.fail("expected HTTP 400")


def test_http_unknown_campaign_404(http_service):
    _svc, base = http_service
    try:
        _get(f"{base}/campaigns/deadbeef")
    except urllib.error.HTTPError as exc:
        assert exc.code == 404
    else:
        pytest.fail("expected HTTP 404")


def test_finished_campaigns_are_evicted_oldest_first_with_a_typed_410():
    """Retention of 2, three campaigns: the oldest finished one goes, its
    id answers ``CampaignEvicted`` / HTTP 410 (not 404), the others stay."""
    specs = [CampaignSpec.from_dict({
        "name": f"kept-{i}", "seed": 5 + i,
        "grid": {"approaches": ["rbio_ng"], "np": [128]}})
        for i in range(3)]
    svc = SweepService(n_workers=1, cache=False, max_finished=2)
    server, _thread = start_server(svc)
    base = "http://{}:{}".format(*server.server_address)
    try:
        cids = []
        for spec in specs:
            cids.append(svc.submit(spec))
            assert svc.wait(cids[-1], timeout=300)["state"] == "done"
        assert [c["campaign_id"] for c in svc.list_campaigns()] == cids[1:]
        assert svc.service_status()["counters"]["campaigns_evicted"] == 1
        with pytest.raises(CampaignEvicted):
            svc.results(cids[0])
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"{base}/campaigns/{cids[0]}")
        assert err.value.code == 410
        assert json.loads(err.value.read())["type"] == "CampaignEvicted"
        assert _get(f"{base}/campaigns/{cids[2]}")["state"] == "done"
        with urllib.request.urlopen(f"{base}/metrics") as resp:
            assert "campaign_campaigns_evicted" in resp.read().decode()
        # Resubmitting an evicted spec registers it afresh.
        assert svc.wait(svc.submit(specs[0]), timeout=300)["state"] == "done"
        assert len(svc.results(cids[0])) == 1
        with pytest.raises(CampaignEvicted):
            svc.status(cids[1])
    finally:
        server.shutdown()
        svc.shutdown()


def test_http_campaign_listing(http_service):
    svc, base = http_service
    spec = CampaignSpec.from_dict({
        "name": "listed", "seed": 5,
        "grid": {"approaches": ["rbio_ng"], "np": [128]}})
    cid = svc.submit(spec)
    svc.wait(cid, timeout=300)
    listing = _get(f"{base}/campaigns")
    assert [c["name"] for c in listing] == ["listed"]
    assert listing[0]["campaign_id"] == cid


# ---------------------------------------------------------------------------
# The HTTP edge is bounded and typed
# ---------------------------------------------------------------------------

def _raw_post(base: str, headers: dict, body: bytes = b"",
              timeout: float = 30.0):
    """POST /campaigns over a bare socket (urllib fixes Content-Length up)."""
    import socket
    from urllib.parse import urlparse

    addr = urlparse(base)
    head = "".join(f"{k}: {v}\r\n" for k, v in headers.items())
    with socket.create_connection((addr.hostname, addr.port),
                                  timeout=timeout) as sock:
        sock.sendall(f"POST /campaigns HTTP/1.1\r\nHost: x\r\n{head}\r\n"
                     .encode() + body)
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    status, _, rest = raw.partition(b"\r\n")
    return int(status.split()[1]), json.loads(rest.partition(b"\r\n\r\n")[2])


def test_http_oversize_body_is_413_without_reading_it(http_service):
    from repro.campaign.http import MAX_BODY_BYTES
    _svc, base = http_service
    # Only the header claims the size: a server that tried to read the
    # body would block until the timeout instead of answering.
    code, payload = _raw_post(
        base, {"Content-Length": MAX_BODY_BYTES + 1}, timeout=5.0)
    assert code == 413 and str(MAX_BODY_BYTES) in payload["error"]


@pytest.mark.parametrize("length", ["-5", "lots", "1e3"])
def test_http_garbage_content_length_is_400(http_service, length):
    _svc, base = http_service
    code, payload = _raw_post(base, {"Content-Length": length}, timeout=5.0)
    assert code == 400 and "Content-Length" in payload["error"]


def test_http_stalled_client_gets_408_and_server_survives(http_service,
                                                          monkeypatch):
    from repro.campaign import http
    monkeypatch.setattr(http._Handler, "timeout", 0.2)
    _svc, base = http_service
    code, payload = _raw_post(base, {"Content-Length": 100}, b"{", 5.0)
    assert code == 408 and "timed out" in payload["error"]
    assert _get(f"{base}/healthz")["status"] == "ok"


def test_http_unexpected_error_is_typed_json_500(http_service, monkeypatch):
    svc, base = http_service

    def boom():
        raise RuntimeError("registry exploded")

    monkeypatch.setattr(svc, "service_status", boom)
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(f"{base}/status")
    assert err.value.code == 500
    assert json.loads(err.value.read()) == {
        "error": "registry exploded", "type": "RuntimeError"}
    assert _get(f"{base}/healthz")["status"] == "ok"


def test_http_submit_bug_is_typed_json_500(http_service, monkeypatch):
    svc, base = http_service

    def boom(spec):
        raise RuntimeError("submit exploded")

    monkeypatch.setattr(svc, "submit", boom)
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(f"{base}/campaigns", {"spec": E2E_SPEC})
    assert err.value.code == 500
    assert json.loads(err.value.read()) == {
        "error": "submit exploded", "type": "RuntimeError"}
    assert _get(f"{base}/healthz")["status"] == "ok"


def test_http_unbounded_spec_is_400_and_the_service_keeps_answering(
        http_service):
    """``json.loads`` takes ``Infinity``: this body used to hang ``expand``
    while it held the service lock, and every later request with it."""
    _svc, base = http_service
    spec = {"name": "x", "grid": {"approaches": ["rbio_ng"], "np": [128]},
            "checkpoint": {"horizon": float("inf"),
                           "wallclock_time": [{"every": 1.0}]}}
    request = urllib.request.Request(
        f"{base}/campaigns", data=json.dumps({"spec": spec}).encode())
    assert b"Infinity" in request.data
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request, timeout=5.0)
    assert err.value.code == 400
    assert "checkpoint.horizon" in json.loads(err.value.read())["error"]
    with urllib.request.urlopen(f"{base}/status", timeout=5.0) as resp:
        assert json.loads(resp.read())["counters"]["campaigns_submitted"] == 0


def test_status_answers_while_a_submission_expands(http_service, monkeypatch):
    """A slow ``expand`` runs outside the service lock."""
    from repro.campaign import service

    svc, base = http_service
    done = CampaignSpec.from_dict({
        "name": "done", "seed": 5,
        "grid": {"approaches": ["rbio_ng"], "np": [128]}})
    cid = svc.submit(done)
    assert svc.wait(cid, timeout=300)["state"] == "done"
    entered, release = threading.Event(), threading.Event()

    def slow_expand(spec):
        entered.set()
        release.wait(30)
        return expand(spec)

    monkeypatch.setattr(service, "expand", slow_expand)
    slow = {"name": "slow", "seed": 6,
            "grid": {"approaches": ["rbio_ng"], "np": [128]}}
    submitter = threading.Thread(target=svc.submit, args=(slow,))
    submitter.start()
    try:
        assert entered.wait(30)
        answers = []
        poller = threading.Thread(target=lambda: answers.extend([
            svc.status(cid)["state"], svc.service_status()["campaigns"],
            _get(f"{base}/healthz")["status"]]))
        poller.start()
        poller.join(5.0)
        assert answers == ["done", 1, "ok"]
    finally:
        release.set()
        submitter.join(30)
    assert svc.service_status()["campaigns"] == 2


def test_an_oversized_grid_fails_fast_and_names_its_product():
    from repro.campaign.spec import MAX_NP, MAX_POINTS, SpecError

    n = MAX_POINTS // 3 + 1
    grid = {"approaches": ["1pfpp", "coio_64", "rbio_ng"],
            "np": [64 * k for k in range(1, n + 1)]}
    t0 = time.perf_counter()
    with pytest.raises(SpecError, match=f"3 approaches x {n} np = {3 * n} "
                                        f"points"):
        CampaignSpec.from_dict({"name": "big", "grid": grid})
    assert time.perf_counter() - t0 < 0.01
    with pytest.raises(SpecError, match=r"grid\.np\[0\]: must be <="):
        CampaignSpec.from_dict({"name": "huge", "grid": {
            "approaches": ["1pfpp"], "np": [MAX_NP + 1]}})


# ---------------------------------------------------------------------------
# A dead worker does not kill the service
# ---------------------------------------------------------------------------

def _dying_run_point(marker: str, point):
    """``run_point`` in a worker that dies: once (marker file) or always."""
    import os
    if marker is None or not os.path.exists(marker):
        if marker is not None:
            open(marker, "w").close()
        os._exit(1)
    return run_point(point)


def test_dead_worker_is_retried_once_then_typed(tmp_path, monkeypatch):
    from functools import partial
    from repro.campaign import WorkerLost, service

    def spec(name):
        return CampaignSpec.from_dict({
            "name": name, "seed": 5,
            "grid": {"approaches": ["rbio_ng"], "np": [128]}})

    direct = run_sweep(run_point, expand(spec("x")).points, n_workers=1)
    with SweepService(n_workers=1, cache=False) as svc:
        # First call dies: the pool is rebuilt, the point runs again.
        monkeypatch.setattr(service, "run_point", partial(
            _dying_run_point, str(tmp_path / "died-once")))
        cid = svc.submit(spec("dies-once"))
        assert svc.wait(cid, timeout=300)["state"] == "done"
        assert [r["gbps"] for r in svc.results(cid)] == \
            [r["gbps"] for r in direct]
        assert svc.service_status()["counters"]["pool_rebuilds"] == 1
        # Every call dies: one retry, then a typed per-point error.
        monkeypatch.setattr(service, "run_point",
                            partial(_dying_run_point, None))
        cid = svc.submit(spec("dies-twice"))
        status = svc.wait(cid, timeout=300)
        assert status["state"] == "failed"
        assert status["errors"][0].startswith(WorkerLost.__name__)
        # The service is still usable.
        monkeypatch.setattr(service, "run_point", run_point)
        cid = svc.submit(spec("after"))
        assert svc.wait(cid, timeout=300)["state"] == "done"
        assert svc.results(cid)[0]["gbps"] == direct[0]["gbps"]
