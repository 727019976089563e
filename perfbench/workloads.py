"""The four benchmark workloads, as campaign spec dicts built from a seed.

The program under test receives only these dicts (through
``CampaignSpec.from_dict``); nothing here imports ``repro``.  Each workload
is a closed loop with one client: its points run strictly one after
another inside one child process, in the order listed — the order is part
of the definition, because a point's host cost depends on what ran before
it in the process.

Sizes are cut below the ISSUE's fall-backs.  The driver's contract allows
about 37 s per invocation (3420 s over 4 + 22 x 4 runs), and on a shared
host whose CPU speed wanders by tens of percent over seconds a median needs
five or more reps to be steady, so one rep is kept near 4 s.  ``tiny=True``
is the ``--selftest`` shrink to 128-rank / 8-rank points.
"""

from __future__ import annotations

from typing import Optional

#: EXPERIMENTS.md Fig 5 (default seed) simulated GB/s, printed beside the
#: measured value of a figure-shaped point for information only.
FIG5_GBPS = {
    ("1pfpp", 16384): 0.15, ("1pfpp", 32768): 0.09, ("1pfpp", 65536): 0.07,
    ("coio_nf1", 16384): 4.72, ("coio_nf1", 32768): 5.30,
    ("coio_nf1", 65536): 5.50,
    ("coio_64", 16384): 12.04, ("coio_64", 32768): 14.11,
    ("coio_64", 65536): 6.13,
    ("rbio_nf1", 16384): 4.71, ("rbio_nf1", 32768): 5.36,
    ("rbio_nf1", 65536): 5.57,
    ("rbio_ng", 16384): 9.76, ("rbio_ng", 32768): 13.73,
    ("rbio_ng", 65536): 15.88,
}


def _spec(name: str, seed: Optional[int], approaches: list, np: int,
          grid: Optional[dict] = None, **top) -> dict:
    spec = {"name": name,
            "grid": {"approaches": approaches, "np": [np], **(grid or {})},
            **top}
    if seed is not None:
        spec["seed"] = seed
    return spec


def _rbio_paper(seed: Optional[int], tiny: bool) -> list:
    big, mid = (128, 128) if tiny else (65536, 4096)
    return [
        _spec("rbio-ng", seed, ["rbio_ng"], big),
        _spec("rbio-nf1-bbio", seed, ["rbio_nf1", "bbio"], mid),
        _spec("rbio-ng-tam", seed, ["rbio_ng"], mid, {"tam": ["auto"]}),
        # A non-empty fault schedule forces the uncoalesced SPMD path.
        _spec("rbio-ng-faulted", seed, ["rbio_ng"], mid,
              {"fault_rates": [4.0]}),
    ]


def _coio_paper(seed: Optional[int], tiny: bool) -> list:
    return [
        _spec("coio-64", seed, ["coio_64"], 128 if tiny else 8192),
        _spec("coio-nf1", seed, ["coio_nf1"], 128 if tiny else 2048),
    ]


def _onefile_paper(seed: Optional[int], tiny: bool) -> list:
    return [_spec("1pfpp", seed, ["1pfpp"], 128 if tiny else 32768)]


def _payload_roundtrip(seed: Optional[int], tiny: bool) -> list:
    common = dict(
        machine={"preset": "intrepid_quiet"},
        steps={"n_steps": 4, "gap": 0.5},
        workload={"points_per_rank": 1000 if tiny else 9000,
                  "mutated_fraction": 0.25},
        resume={"enabled": True},
    )
    return [
        _spec("payload-full", seed, ["1pfpp", "coio_64", "rbio_ng", "bbio"],
              8 if tiny else 32, {"delta": ["off"]}, **common),
        _spec("payload-delta", seed, ["rbio_nf2", "coio_nf1"], 4,
              {"delta": ["require"]}, **common),
    ]


#: name -> (default seed, builder, one-line why).  The ``why`` strings are
#: the ones ``BENCHMARK.json`` carries.
WORKLOADS = {
    "rbio_paper": (None, _rbio_paper,
                   "rbIO/bbIO writer aggregation at 64K/4K ranks: coalesced "
                   "replay, TAM and the faulted SPMD path; sim+mpi+storage+"
                   "topology work, mpiio <2%: the control for coIO changes"),
    "coio_paper": (None, _coio_paper,
                   "coIO 64:1 @8K and nf=1 @2K: the only workload where "
                   "mpiio two-phase and mpi collectives carry the host time; "
                   "nf=1 guards a 64:1 gain that costs the one-group case"),
    "onefile_paper": (None, _onefile_paper,
                      "1PFPP @32K: un-coalesced rank processes against the "
                      "metadata server; storage+sim heavy, no mpiio, no "
                      "aggregation; exercises per-rank memory"),
    "payload_roundtrip": (42, _payload_roundtrip,
                          "real bytes written and read back (np=32 full, np=4 "
                          "delta=require, 4 steps, restore on every point): "
                          "ckpt.incremental, buffers, staging, storage reads"),
}


def specs_for(name: str, seed: Optional[int], *, tiny: bool = False,
              traced: bool = False) -> list:
    """The workload's spec dicts; ``traced`` adds ``grid.trace=[summary]``."""
    specs = WORKLOADS[name][1](seed, tiny)
    if traced:
        for spec in specs:
            spec["grid"]["trace"] = ["summary"]
    return specs


def default_seed(name: str) -> Optional[int]:
    """The seed ``--seed`` replaces: the repo's default stream, or 42."""
    return WORKLOADS[name][0]
