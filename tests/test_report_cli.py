"""Tests for the CSV report generator CLI."""

import csv
import os
import re

import pytest

from repro.campaign import CampaignSpec
from repro.report import FIGURES, main


def read_csv(path):
    with open(path) as f:
        return list(csv.reader(f))


def test_report_single_figure(tmp_path):
    out = str(tmp_path / "results")
    rc = main(["table1", "--out", out, "--scale", "small"])
    assert rc == 0
    rows = read_csv(os.path.join(out, "table1_perceived_bandwidth.csv"))
    assert rows[0] == ["np", "max_isend_us", "cpu_cycles", "perceived_tbps"]
    assert len(rows) == 4  # header + 3 sizes


def test_report_fig5_structure(tmp_path):
    out = str(tmp_path / "r")
    main(["fig5", "--out", out, "--scale", "small"])
    rows = read_csv(os.path.join(out, "fig5_write_bandwidth_gbps.csv"))
    assert rows[0][0] == "approach"
    assert len(rows) == 6  # header + five approaches
    for row in rows[1:]:
        for v in row[1:]:
            assert float(v) > 0


def test_report_fig8_csv(tmp_path):
    out = str(tmp_path / "r")
    main(["fig8", "--out", out, "--scale", "small"])
    rows = read_csv(os.path.join(out, "fig8_rbio_file_sweep_gbps.csv"))
    assert rows[0][0] == "np"
    assert len(rows) == 4


def test_report_distribution_csv(tmp_path):
    out = str(tmp_path / "r")
    main(["fig9", "--out", out, "--scale", "small"])
    rows = read_csv(os.path.join(out, "fig9_1pfpp_per_rank_io_time.csv"))
    assert rows[0] == ["rank", "io_time_s"]
    assert len(rows) == 1024 + 1  # smallest 'small' size + header


def test_report_unknown_figure_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["nope", "--out", str(tmp_path)])


def test_all_figures_registered():
    assert set(FIGURES) == {
        "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
        "table1", "eq1", "eq2_7", "inputread",
    }


def test_report_inputread(tmp_path):
    out = str(tmp_path / "r")
    main(["inputread", "--out", out, "--scale", "small"])
    rows = read_csv(os.path.join(out, "inputread_presetup.csv"))
    assert rows[0][0] == "n_ranks"
    assert float(rows[1][-1]) > 0  # total time


# ---------------------------------------------------------------------------
# profile subcommand
# ---------------------------------------------------------------------------

PROFILE_SPEC = '{"name": "prof-demo", "grid": {"approaches": ["rbio_ng"], "np": [64]}}'


def test_profile_subcommand_prints_hotspots(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(PROFILE_SPEC)
    rc = main(["profile", str(spec), "--top", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "profiling point 0/1: rbio_ng np=64" in out
    assert "cumulative" in out  # the pstats table header
    assert "point result: overall_time=" in out


def test_profile_index_out_of_range(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(PROFILE_SPEC)
    rc = main(["profile", str(spec), "--index", "3"])
    assert rc == 2
    assert "out of range" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# approach keys and the trace / timeline arguments fail typed
# ---------------------------------------------------------------------------

BAD_KEYS = ["rbio_nf0", "rbio_nfx", "rbio_nf-1", "rbio_nf", "rbio_nf 8",
            "rbio_nf+8", "nope"]


@pytest.mark.parametrize("key", BAD_KEYS)
def test_a_bad_approach_key_raises_value_error_naming_it(key):
    from repro.experiments.figures import strategy_for

    with pytest.raises(ValueError, match=re.escape(repr(key))):
        strategy_for(key, 8)


@pytest.mark.parametrize("key", BAD_KEYS + ["rbio_nf1", "rbio_nf16", "bbio"])
def test_specs_and_strategies_parse_approach_keys_alike(key):
    from repro.campaign.spec import SpecError
    from repro.experiments.figures import strategy_for

    try:
        strategy_for(key, 64)
        known = True
    except ValueError:
        known = False
    doc = {"name": "keys", "grid": {"approaches": [key], "np": [64]}}
    if known:
        CampaignSpec.from_dict(doc)
    else:
        with pytest.raises(SpecError, match="unknown approach"):
            CampaignSpec.from_dict(doc)


@pytest.mark.parametrize("command", ["trace", "timeline"])
@pytest.mark.parametrize("args", [
    ["1pfpp", "--np", "0"],
    ["1pfpp", "--np", "-1"],
    ["1pfpp", "--np", "x"],
    ["1pfpp", "--steps", "0"],
    ["rbio_nf0"],
    ["rbio_nfx"],
], ids=["np0", "np-1", "npx", "steps0", "nf0", "nfx"])
def test_trace_cli_rejects_bad_arguments_with_usage(command, args, tmp_path,
                                                    capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *args, *(["--out", str(tmp_path / "t.json")]
                                if command == "trace" else [])])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "error:" in err
