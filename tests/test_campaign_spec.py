"""Tests for the campaign DSL: parsing, validation, expansion, and parity
with the sweeps the benches ran before they were campaigns."""

import json
import time

import pytest

from repro import RunConfig
from repro.campaign import CampaignSpec, SpecError, expand, run_point
from repro.ckpt import CheckpointRule, ReducedBlockingIO, checkpoint_instants
from repro.experiments import (
    clear_cache,
    get_run,
    get_runs,
    run_checkpoint_steps,
    run_sweep,
    scaled_problem,
)
from repro.faults import FaultSchedule, FaultSpec, faults_of


TINY = {
    "name": "tiny",
    "seed": 5,
    "grid": {"approaches": ["rbio_ng", "coio_64"], "np": [128, 256]},
}


def _figure_spec(approaches, sizes, **extra) -> CampaignSpec:
    """The figure-bench shape: one checkpoint step per (approach, np)."""
    return CampaignSpec.from_dict({
        "name": "f", "grid": {"approaches": approaches, "np": sizes},
        **extra})


def _rate_spec(rates) -> CampaignSpec:
    """The fault-rate overhead sweep: rbIO 64:1 at np = 128, two steps."""
    return CampaignSpec.from_dict({
        "name": "r", "steps": {"n_steps": 2, "gap": 1.0},
        "grid": {"approaches": ["rbio_ng"], "np": [128],
                 "fault_rates": list(rates)},
        "faults": {"generate": {"horizon": 2.0}}})


# ---------------------------------------------------------------------------
# Checkpoint rules (muscle3-style every/at/start/stop)
# ---------------------------------------------------------------------------

def test_checkpoint_rule_every_and_at():
    # Periodic rules fire from 'start' (inclusive, default 0) onwards.
    assert CheckpointRule(every=2.0).instants(7.0) == [0.0, 2.0, 4.0, 6.0]
    assert CheckpointRule(every=2.0, start=1.0, stop=5.0).instants(9.0) == \
        [1.0, 3.0, 5.0]
    assert CheckpointRule(at=(3.0, 1.0)).instants(2.0) == [1.0]


def test_checkpoint_rule_validation():
    with pytest.raises(ValueError):
        CheckpointRule()  # neither every nor at
    with pytest.raises(ValueError):
        CheckpointRule(every=1.0, at=(2.0,))  # both
    with pytest.raises(ValueError):
        CheckpointRule(every=-1.0)


def test_checkpoint_instants_merges_and_scales():
    rules = (CheckpointRule(every=2.0), CheckpointRule(at=(2.0, 5.0)))
    assert checkpoint_instants(rules, 6.0) == (0.0, 2.0, 4.0, 5.0, 6.0)
    # Step-axis rules: instants in steps, scaled to seconds (0.5 s/step).
    assert checkpoint_instants((CheckpointRule(at=(2.0, 4.0)),), 6.0,
                               scale=0.5) == (1.0, 2.0)
    assert checkpoint_instants((), 4.0, at_end=True) == (4.0,)


# ---------------------------------------------------------------------------
# Spec parsing and validation
# ---------------------------------------------------------------------------

def test_round_trip_dict_spec_dict():
    spec = CampaignSpec.from_dict(TINY)
    again = CampaignSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.to_dict() == spec.to_dict()
    assert again.campaign_id == spec.campaign_id


def test_round_trip_full_featured_spec():
    d = {
        "name": "full",
        "seed": 11,
        "machine": {"preset": "intrepid_quiet",
                    "overrides": {"server_disk_bandwidth": 2.0e9}},
        "grid": {"approaches": ["rbio_ng"], "np": [128],
                 "fault_rates": [0.0, 2.0]},
        "checkpoint": {"horizon": 6.0, "at_end": True,
                       "wallclock_time": [{"every": 2.0, "start": 1.0}],
                       "solver_steps": [{"at": [4]}]},
        "faults": {"generate": {"horizon": 6.0, "stall_seconds": 0.25}},
        "resume": {"enabled": True},
        "fs_type": "lustre",
        "basedir": "/scratch/ckpt",
    }
    spec = CampaignSpec.from_dict(d)
    assert CampaignSpec.from_dict(spec.to_dict()) == spec


def test_unknown_key_suggests_fix():
    with pytest.raises(SpecError, match="aproaches.*did you mean.*approaches"):
        CampaignSpec.from_dict({"name": "x",
                                "grid": {"aproaches": ["rbio_ng"],
                                         "np": [128]}})


def test_error_messages_name_the_path():
    with pytest.raises(SpecError, match=r"grid\.np\[1\]"):
        CampaignSpec.from_dict({"name": "x",
                                "grid": {"approaches": ["rbio_ng"],
                                         "np": [128, "lots"]}})
    with pytest.raises(SpecError, match=r"grid\.approaches\[0\].*unknown"):
        CampaignSpec.from_dict({"name": "x",
                                "grid": {"approaches": ["rbioo"],
                                         "np": [128]}})
    with pytest.raises(SpecError, match=r"checkpoint\.horizon"):
        CampaignSpec.from_dict({"name": "x", "grid": TINY["grid"],
                                "checkpoint": {"at_end": True}})
    with pytest.raises(SpecError, match=r"faults\.specs\[0\].*rank_crash"):
        CampaignSpec.from_dict({"name": "x", "grid": TINY["grid"],
                                "faults": {"specs": [{"kind": "rank_crash"}]}})
    with pytest.raises(SpecError, match="fs_type.*nfs"):
        CampaignSpec.from_dict({"name": "x", "grid": TINY["grid"],
                                "fs_type": "nfs"})
    with pytest.raises(SpecError, match=r"machine\.overrides.*did you mean"):
        CampaignSpec.from_dict({"name": "x", "grid": TINY["grid"],
                                "machine": {
                                    "overrides": {"server_disk_bandwith": 1}}})


def test_mutually_exclusive_sections_rejected():
    with pytest.raises(SpecError, match="not both"):
        CampaignSpec.from_dict({"name": "x", "grid": TINY["grid"],
                                "steps": {"n_steps": 2},
                                "checkpoint": {"horizon": 4.0,
                                               "at_end": True}})
    with pytest.raises(SpecError, match="fault_rates"):
        CampaignSpec.from_dict({
            "name": "x",
            "grid": {"approaches": ["rbio_ng"], "np": [128],
                     "fault_rates": [1.0]},
            "faults": {"specs": [{"kind": "fs_stall", "time": 1.0}]}})


#: Bodies ``json.loads`` accepts that used to hang ``expand`` (an unbounded
#: or near-unbounded instant list), give it NaN gaps, or crash it untyped.
UNBOUNDED_SPECS = {
    "infinite-horizon": (
        '{"checkpoint": {"horizon": Infinity, "wallclock_time": '
        '[{"every": 1.0}]}}', r"checkpoint\.horizon: must be finite"),
    "tiny-every": (
        '{"checkpoint": {"horizon": 2.0, "wallclock_time": '
        '[{"every": 1e-300}]}}', r"checkpoint\.wallclock_time\[0\].*at most"),
    "tiny-t_step": (
        '{"checkpoint": {"horizon": 2.0, "t_step": 1e-300, "solver_steps": '
        '[{"every": 1.0}]}}', r"checkpoint\.solver_steps\[0\].*at most"),
    "rules-add-up": (
        '{"checkpoint": {"horizon": 6000.0, "wallclock_time": [{"every": 1.0}, '
        '{"every": 1.0, "start": 0.5}]}}',
        r"checkpoint\.wallclock_time\[1\].*at most"),
    "nan-gap": ('{"steps": {"n_steps": 2, "gap": NaN}}',
                r"steps\.gap: must be finite"),
    "many-steps": ('{"steps": {"n_steps": 100000000}}',
                   r"steps\.n_steps: must be <="),
    "nan-rate": ('{"grid": {"approaches": ["rbio_ng"], "np": [128], '
                 '"fault_rates": [NaN]}}', r"grid\.fault_rates\[0\]"),
    "infinite-rate": ('{"grid": {"approaches": ["rbio_ng"], "np": [128], '
                      '"fault_rates": [Infinity]}}', r"grid\.fault_rates\[0\]"),
    "nan-override": (
        '{"machine": {"overrides": {"server_disk_bandwidth": NaN}}}',
        r"machine\.overrides\.server_disk_bandwidth: must be finite"),
}


@pytest.mark.parametrize("body, match", UNBOUNDED_SPECS.values(),
                         ids=UNBOUNDED_SPECS.keys())
def test_non_finite_and_unbounded_specs_are_rejected_fast(body, match):
    d = {"name": "x", "grid": TINY["grid"], **json.loads(body)}
    t0 = time.perf_counter()
    with pytest.raises(SpecError, match=match):
        expand(CampaignSpec.from_dict(d))
    assert time.perf_counter() - t0 < 1.0


def test_checkpoint_bound_sits_far_above_real_campaigns():
    from repro.campaign.spec import MAX_CHECKPOINTS
    spec = CampaignSpec.from_dict({
        "name": "x", "grid": TINY["grid"],
        "checkpoint": {"horizon": float(MAX_CHECKPOINTS - 1),
                       "wallclock_time": [{"every": 1.0}]}})
    assert spec.steps_and_gaps()[0] == MAX_CHECKPOINTS
    assert CampaignSpec.from_dict({
        "name": "x", "grid": TINY["grid"],
        "steps": {"n_steps": MAX_CHECKPOINTS}}).steps_and_gaps()[0] == \
        MAX_CHECKPOINTS


def test_checkpoint_rules_compile_to_steps_and_gaps():
    spec = CampaignSpec.from_dict({
        "name": "x", "grid": TINY["grid"],
        "checkpoint": {"horizon": 10.0, "at_end": True,
                       "wallclock_time": [{"every": 4.0}],
                       "solver_steps": [{"at": [6]}], "t_step": 1.0}})
    # wallclock every 4 -> 0, 4, 8; solver at 6 (t_step 1) -> 6; end -> 10.
    n_steps, gaps = spec.steps_and_gaps()
    assert n_steps == 5
    assert gaps == (4.0, 2.0, 2.0, 2.0)
    # No rules within the horizon is an error, not a silent no-op.
    empty = CampaignSpec.from_dict({
        "name": "x", "grid": TINY["grid"],
        "checkpoint": {"horizon": 1.0,
                       "wallclock_time": [{"every": 5.0, "start": 5.0}]}})
    with pytest.raises(SpecError, match="no checkpoints"):
        empty.steps_and_gaps()


def test_from_yaml_round_trip():
    yaml = pytest.importorskip("yaml")
    spec = CampaignSpec.from_dict(TINY)
    again = CampaignSpec.from_yaml(yaml.safe_dump(spec.to_dict()))
    assert again == spec


def test_from_file_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(TINY))
    assert CampaignSpec.from_file(str(path)) == CampaignSpec.from_dict(TINY)


# ---------------------------------------------------------------------------
# Deterministic expansion and content hashes
# ---------------------------------------------------------------------------

def test_expansion_deterministic_and_ordered():
    spec = CampaignSpec.from_dict(TINY)
    a, b = expand(spec), expand(spec)
    assert a.hashes() == b.hashes()
    assert [(p.approach, p.n_ranks) for p in a.points] == [
        ("rbio_ng", 128), ("rbio_ng", 256),
        ("coio_64", 128), ("coio_64", 256)]
    assert len(set(a.hashes())) == 4  # every point distinct


def test_content_hash_sensitive_to_inputs():
    base = expand(CampaignSpec.from_dict(TINY)).hashes()
    reseeded = expand(CampaignSpec.from_dict({**TINY, "seed": 6})).hashes()
    quiet = expand(CampaignSpec.from_dict(
        {**TINY, "machine": {"preset": "intrepid_quiet"}})).hashes()
    assert set(base).isdisjoint(reseeded)
    assert set(base).isdisjoint(quiet)


def test_expansion_skips_infeasible_file_counts():
    spec = _figure_spec(["rbio_nf64", "rbio_nf512"], [128, 1024])
    expanded = expand(spec)
    assert [(p.approach, p.n_ranks) for p in expanded.points] == [
        ("rbio_nf64", 128), ("rbio_nf64", 1024), ("rbio_nf512", 1024)]
    assert [(s.approach, s.n_ranks) for s in expanded.skipped] == [
        ("rbio_nf512", 128)]
    assert "nf=512" in expanded.skipped[0].reason


def test_tam_axis_parses_validates_and_round_trips():
    spec = CampaignSpec.from_dict(
        {**TINY, "grid": {**TINY["grid"], "tam": ["off", "auto"]}})
    assert spec.grid.tam == ("off", "auto")
    assert CampaignSpec.from_dict(spec.to_dict()) == spec
    assert spec.to_dict()["grid"]["tam"] == ["off", "auto"]
    # Off-only axes still round-trip; an absent axis stays absent.
    assert "tam" not in CampaignSpec.from_dict(TINY).to_dict()["grid"]
    with pytest.raises(SpecError, match=r"grid\.tam\[0\].*always"):
        CampaignSpec.from_dict(
            {**TINY, "grid": {**TINY["grid"], "tam": ["always"]}})
    with pytest.raises(SpecError, match="tamm.*did you mean.*tam"):
        CampaignSpec.from_dict(
            {**TINY, "grid": {**TINY["grid"], "tamm": ["auto"]}})


def test_tam_axis_expansion_order_and_hashes():
    spec = CampaignSpec.from_dict(
        {**TINY, "grid": {**TINY["grid"], "tam": ["off", "require"]}})
    points = expand(spec).points
    # tam is the innermost grid axis: approach-major, then np, then tam.
    assert [(p.approach, p.n_ranks, p.tam) for p in points] == [
        ("rbio_ng", 128, "off"), ("rbio_ng", 128, "require"),
        ("rbio_ng", 256, "off"), ("rbio_ng", 256, "require"),
        ("coio_64", 128, "off"), ("coio_64", 128, "require"),
        ("coio_64", 256, "off"), ("coio_64", 256, "require")]
    hashes = expand(spec).hashes()
    assert len(set(hashes)) == 8  # tam participates in the content hash
    # tam="off" points hash identically to a spec without the axis at all,
    # so figure caches stay shared.
    base = expand(CampaignSpec.from_dict(TINY)).hashes()
    assert set(base) < set(hashes)
    assert not points[0].is_figure_point or points[0].tam == "off"
    assert not points[1].is_figure_point  # tam points never reuse fig caches


def test_tam_point_reports_fabric_counters():
    spec = CampaignSpec.from_dict({
        "name": "tam-smoke", "seed": 5,
        "grid": {"approaches": ["rbio_ng"], "np": [128],
                 "tam": ["require"]}})
    (point,) = expand(spec).points
    assert point.tam == "require" and not point.is_figure_point
    out = run_point(point)
    assert out["tam"] == "require"
    assert out["tam_msgs"] > 0
    assert out["tam_coalesce_ratio"] > 1.0
    assert out["fabric_msgs_intra"] > 0 and out["fabric_msgs_inter"] > 0
    assert out["fabric_bytes_inter"] > 0


def test_rate_axis_expansion_matches_resilience_convention():
    spec = _rate_spec((0.0, 4.0))
    points = expand(spec).points
    assert [p.fault_rate for p in points] == [0.0, 4.0]
    assert not points[0].faults  # rate 0 -> empty schedule
    assert len(points[1].faults) > 0
    # Schedules are drawn per rate index, deterministically.
    again = expand(spec).points
    assert again[1].faults == points[1].faults


# ---------------------------------------------------------------------------
# Byte-compatibility with the sweeps the benches ran before campaigns
# ---------------------------------------------------------------------------

def test_figure_point_matches_get_run():
    clear_cache()
    (point,) = expand(_figure_spec(["rbio_ng"], [128], seed=5)).points
    assert point.is_figure_point
    out = run_point(point)
    res = get_run("rbio_ng", 128, seed=5).result
    assert out["overall_time"] == res.overall_time
    assert out["write_bandwidth"] == res.write_bandwidth
    clear_cache()


def test_prefetch_campaign_warms_figure_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path / "c"))
    clear_cache()
    spec = _figure_spec(["rbio_ng"], [128], seed=5)
    get_runs([(p.approach, p.n_ranks) for p in expand(spec).points
              if p.is_figure_point],
             config=spec.machine.config(), seed=spec.seed, n_workers=1)
    entries = list((tmp_path / "c").iterdir())
    assert len(entries) == 1
    # get_run is now a warm hit: same disk entry, no new files.
    get_run("rbio_ng", 128, seed=5)
    assert list((tmp_path / "c").iterdir()) == entries
    clear_cache()


#: The rows the per-rate sweep helper the rate axis replaced returned for
#: rbIO 64:1, np = 128, rates (0, 2), two steps 1 s apart, horizon 2 s —
#: recorded from it before it was deleted.
RECORDED_RATE_ROWS = [
    {"rate": 0.0, "scheduled": 0, "injected": 0,
     "overall_time": 2.0349386857251814,
     "blocking_time": 0.0001794164705883894,
     "write_bandwidth": 151771939.94419435, "overhead": 1.0},
    {"rate": 2.0, "scheduled": 3, "injected": 3,
     "overall_time": 2.083609429804235,
     "blocking_time": 0.0001794164705883894,
     "write_bandwidth": 148226720.22031385, "overhead": 1.023917548189767},
]


def test_rate_campaign_reproduces_the_recorded_sweep_rows():
    results = run_sweep(run_point, expand(_rate_spec((0.0, 2.0))).points,
                        n_workers=1)
    base = results[0]["overall_time"]
    rows = [{"rate": float(r["fault_rate"]),
             **{k: r[k] for k in ("scheduled", "injected", "overall_time",
                                  "blocking_time", "write_bandwidth")},
             "overhead": r["overall_time"] / base} for r in results]
    assert rows == RECORDED_RATE_ROWS


def test_failover_campaign_bit_identical_to_legacy_campaign():
    faults = FaultSchedule((FaultSpec(kind="rank_crash", time=1.0, rank=0),))
    campaign = run_checkpoint_steps(
        ReducedBlockingIO(workers_per_writer=64), 128,
        scaled_problem(128).data(), n_steps=2,
        run_config=RunConfig(faults=faults),
        gap_seconds=1.0)
    campaign.restore()
    spec = CampaignSpec.from_dict({
        "name": "f", "steps": {"n_steps": 2, "gap": 1.0},
        "grid": {"approaches": ["rbio_ng"], "np": [128]},
        "faults": {"specs": [{"kind": "rank_crash", "time": 1.0, "rank": 0}]},
        "resume": {"enabled": True}})
    (out,) = run_sweep(run_point, expand(spec).points, n_workers=1)
    assert {k: out[k] for k in ("restored_step", "failovers", "overall_time",
                                "crashed_roles")} == {
        "restored_step": campaign.restored_step,
        "failovers": faults_of(campaign.job).report()["by_kind"].get(
            "writer_failover", 0),
        "overall_time": campaign.results[-1].overall_time,
        "crashed_roles": campaign.results[-1].roles.count("crashed"),
    }


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------

def test_cli_expand_and_run(tmp_path, capsys):
    from repro.campaign.cli import main

    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "name": "cli-tiny", "seed": 5,
        "grid": {"approaches": ["rbio_ng"], "np": [128]}}))
    assert main(["expand", str(path)]) == 0
    out = capsys.readouterr().out
    assert "cli-tiny" in out and "rbio_ng" in out
    assert main(["run", str(path), "-w", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "cli-tiny"
    assert len(payload["results"]) == 1
    assert payload["results"][0]["approach"] == "rbio_ng"


def test_report_cli_delegates_campaign_subcommand(tmp_path, capsys):
    from repro.report import main

    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "name": "via-report",
        "grid": {"approaches": ["rbio_ng"], "np": [128]}}))
    assert main(["campaign", "expand", str(path)]) == 0
    assert "via-report" in capsys.readouterr().out


def test_cli_rejects_bad_spec(tmp_path):
    from repro.campaign.cli import main

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x"}))
    with pytest.raises(SystemExit, match="grid"):
        main(["expand", str(path)])
