"""CI campaign smoke: drive the sweep service over HTTP, check parity.

Starts the sharded sweep service with its stdlib HTTP API, submits a tiny
campaign (2 strategies x 2 processor counts, one fault rule, one
checkpoint rule) from two concurrent clients, polls to completion, and
asserts:

1. the HTTP results are bit-identical to a direct
   :func:`repro.experiments.run_sweep` over the same expanded points;
2. the duplicate submission was deduped to one execution (counters);
3. the ``/healthz`` liveness probe answers and ``/metrics`` serves valid
   Prometheus text exposition with the service counters in it;
4. a worker process killed mid-campaign costs nothing but a pool rebuild:
   the campaign still finishes with the direct run's results.

Exit code 0 on success; any mismatch raises.  Run from the repo root::

    PYTHONPATH=src python tools/campaign_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
import urllib.request

from repro.campaign import CampaignSpec, SweepService, expand, run_point
from repro.campaign.http import start_server
from repro.experiments import run_sweep

SPEC = {
    "name": "ci-campaign-smoke",
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


def main() -> int:
    spec = CampaignSpec.from_dict(SPEC)
    points = expand(spec).points
    print(f"campaign {spec.name} ({spec.campaign_id[:12]}): "
          f"{len(points)} points; computing direct baseline ...")
    direct = json.loads(json.dumps(
        run_sweep(run_point, points, n_workers=1), default=str))

    service = SweepService(n_workers=2, cache=False)
    server, _thread = start_server(service)
    host, port = server.server_address
    base = f"http://{host}:{port}"
    print(f"service on {base}")

    barrier = threading.Barrier(2)

    def submit():
        barrier.wait()
        _post(f"{base}/campaigns", {"spec": SPEC})

    clients = [threading.Thread(target=submit) for _ in range(2)]
    for t in clients:
        t.start()
    for t in clients:
        t.join()

    cid = spec.campaign_id
    deadline = time.monotonic() + 600
    while True:
        status = _get(f"{base}/campaigns/{cid}")
        print(f"  {status['state']}: {status['completed']}/{status['total']}")
        if status["state"] != "running":
            break
        if time.monotonic() > deadline:
            raise SystemExit("campaign did not finish within 600 s")
        time.sleep(1.0)
    assert status["state"] == "done", status

    counters = _get(f"{base}/status")["counters"]
    print(f"counters: {counters}")
    assert counters["campaigns_submitted"] == 2, counters
    assert counters["campaigns_deduped"] == 1, counters
    assert counters["points_executed"] == len(points), counters

    health = _get(f"{base}/healthz")
    assert health == {"status": "ok", "workers": 2}, health
    with urllib.request.urlopen(f"{base}/metrics") as resp:
        assert resp.headers["Content-Type"].startswith("text/plain"), \
            resp.headers["Content-Type"]
        metrics = resp.read().decode()
    print("metrics sample:",
          [ln for ln in metrics.splitlines() if "points_executed" in ln])
    assert ("# TYPE repro_campaign_points_executed counter" in metrics
            and f"repro_campaign_points_executed {len(points)}" in metrics
            and "repro_campaign_n_workers 2" in metrics
            and "repro_campaign_campaigns_deduped 1" in metrics), \
        "Prometheus exposition missing expected series"

    results = _get(f"{base}/campaigns/{cid}/results")
    assert results == direct, "HTTP results diverge from direct run_sweep"
    print(f"OK: {len(results)} points bit-identical to direct run_sweep, "
          f"duplicate submission deduped")

    # Kill a worker under a second campaign: the service rebuilds its pool
    # and re-dispatches what was in flight (runs are deterministic).
    kill_spec = {**SPEC, "name": "ci-campaign-smoke-kill", "seed": 6}
    kill_direct = json.loads(json.dumps(run_sweep(
        run_point, expand(CampaignSpec.from_dict(kill_spec)).points,
        n_workers=1), default=str))
    kid = _post(f"{base}/campaigns", {"spec": kill_spec})["campaign_id"]
    os.kill(next(iter(service._pool._processes)), signal.SIGKILL)
    status = service.wait(kid, timeout=600)
    assert status["state"] == "done", status
    assert _get(f"{base}/campaigns/{kid}/results") == kill_direct, \
        "results after a worker death diverge from direct run_sweep"
    rebuilds = _get(f"{base}/status")["counters"]["pool_rebuilds"]
    assert rebuilds >= 1, rebuilds
    print(f"OK: worker killed, pool rebuilt {rebuilds}x, campaign done")

    server.shutdown()
    service.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
