"""The declarative campaign spec: YAML/dict -> validated frozen dataclasses.

A campaign describes *what* to sweep, not *how*: the machine, the
(approach x np [x fault-rate]) grid, checkpoint rules in wall-clock time
or solver steps (muscle3/yMMSL-style ``every``/``at``/``start``/``stop``
plus ``at_end``), fault rules (explicit specs or generated rates), and
resume-from-snapshot semantics.  The compiler
(:mod:`repro.campaign.compiler`) turns a spec into concrete runnable
points.

Every parse error is a :class:`SpecError` naming the offending path
(``grid.np[1]``), what was found, and what was expected — including
did-you-mean suggestions for misspelled keys.  ``to_dict`` emits the
canonical plain-data form; ``from_dict(spec.to_dict())`` round-trips to
an equal spec, which is what makes campaign content hashes stable across
processes and hosts.

Example (YAML)::

    name: tiny-faulted-campaign
    grid:
      approaches: [rbio_ng, coio_64]
      np: [128, 256]
    checkpoint:
      horizon: 4.0
      wallclock_time:
        - every: 2.0
    faults:
      specs:
        - {kind: fs_stall, time: 0.5, delay: 0.2}
"""

from __future__ import annotations

import difflib
import json
import math
from dataclasses import dataclass, fields
from typing import Any, Mapping, Optional

from ..ckpt.schedule import CheckpointRule, checkpoint_instants
from ..experiments.configs import TCOMP_PER_STEP
from ..experiments.figures import APPROACHES, strategy_for
from ..experiments.parallel import cache_key
from ..faults import FaultConfig, FaultSpec
from ..topology import MachineConfig, intrepid

__all__ = [
    "SpecError",
    "MachineSpec",
    "GridSpec",
    "StepsSpec",
    "CampaignCheckpoint",
    "CampaignFaults",
    "ResumeSpec",
    "WorkloadSpec",
    "CampaignSpec",
]

#: File-system variants the runner accepts.
FS_TYPES = ("gpfs", "lustre", "pvfs")

#: Machine presets a spec may name.
MACHINE_PRESETS = ("intrepid", "intrepid_quiet")

#: Resume policies (how a restart picks its generation).
RESUME_POLICIES = ("newest_complete",)

#: Incremental-checkpointing modes the ``grid.delta`` axis accepts
#: (see :meth:`repro.ckpt.CheckpointStrategy.configure_delta`).
DELTA_MODES = ("off", "auto", "require")

#: Two-level aggregation modes the ``grid.tam`` axis accepts
#: (see :meth:`repro.ckpt.CheckpointStrategy.configure_tam`).
TAM_MODES = ("off", "auto", "require")

#: Trace-capture modes the ``grid.trace`` axis accepts
#: (see :class:`repro.mpi.RunConfig`).
TRACE_MODES = ("off", "summary", "full")

#: Most checkpoints one point may take, from ``steps.n_steps`` or from the
#: checkpoint rules (counted before their instants are enumerated): far
#: above any bench or example, and a bound on what :func:`expand` builds.
MAX_CHECKPOINTS = 10_000

#: Largest ``grid.np`` value: sixteen times the paper's 64K ranks.
MAX_NP = 1 << 20

#: Most points one spec may expand to — the product of the grid's axis
#: lengths, counted before any point is built.
MAX_POINTS = 10_000


class SpecError(ValueError):
    """A campaign spec failed validation; the message names the path."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def _type_name(value: Any) -> str:
    return type(value).__name__


def _require_mapping(value: Any, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise SpecError(path, f"expected a mapping, got {_type_name(value)}")
    return value


def _reject_unknown(d: Mapping, allowed: tuple, path: str) -> None:
    unknown = [k for k in d if k not in allowed]
    if not unknown:
        return
    key = str(unknown[0])
    hint = difflib.get_close_matches(key, [str(a) for a in allowed], n=1)
    suggestion = f" (did you mean {hint[0]!r}?)" if hint else ""
    raise SpecError(
        path, f"unknown field {key!r}{suggestion}; "
        f"expected a subset of {sorted(str(a) for a in allowed)}")


def _number(value: Any, path: str, *, minimum: Optional[float] = None,
            positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(path, f"expected a number, got {_type_name(value)}")
    out = float(value)
    if not math.isfinite(out):
        raise SpecError(path, f"must be finite, got {value}")
    if positive and out <= 0:
        raise SpecError(path, f"must be positive, got {value}")
    if minimum is not None and out < minimum:
        raise SpecError(path, f"must be >= {minimum}, got {value}")
    return out


def _integer(value: Any, path: str, *, minimum: Optional[int] = None,
             maximum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(path, f"expected an integer, got {_type_name(value)}")
    if minimum is not None and value < minimum:
        raise SpecError(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise SpecError(path, f"must be <= {maximum}, got {value}")
    return value


def _boolean(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise SpecError(path, f"expected true/false, got {_type_name(value)}")
    return value


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise SpecError(path, f"expected a string, got {_type_name(value)}")
    return value


def _sequence(value: Any, path: str) -> list:
    if isinstance(value, (str, bytes, Mapping)) or not hasattr(value, "__iter__"):
        raise SpecError(path, f"expected a list, got {_type_name(value)}")
    return list(value)


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MachineSpec:
    """Which simulated machine a campaign runs on.

    ``preset`` selects the calibrated base (``intrepid``, or
    ``intrepid_quiet`` with all stochastic noise disabled); ``overrides``
    replaces individual :class:`~repro.topology.MachineConfig` fields —
    the ablation axis, declaratively.
    """

    preset: str = "intrepid"
    overrides: tuple[tuple[str, Any], ...] = ()

    def config(self) -> MachineConfig:
        base = intrepid()
        if self.preset == "intrepid_quiet":
            base = base.quiet()
        return base.with_(**dict(self.overrides)) if self.overrides else base

    @classmethod
    def from_dict(cls, d: Mapping, path: str = "machine") -> "MachineSpec":
        _reject_unknown(d, ("preset", "overrides"), path)
        preset = _string(d.get("preset", "intrepid"), f"{path}.preset")
        if preset not in MACHINE_PRESETS:
            raise SpecError(f"{path}.preset",
                            f"unknown preset {preset!r}; "
                            f"expected one of {list(MACHINE_PRESETS)}")
        overrides = _require_mapping(d.get("overrides", {}),
                                     f"{path}.overrides")
        known = {f.name for f in fields(MachineConfig)}
        items = []
        for name in sorted(str(k) for k in overrides):
            if name not in known:
                hint = difflib.get_close_matches(name, sorted(known), n=1)
                suggestion = f" (did you mean {hint[0]!r}?)" if hint else ""
                raise SpecError(f"{path}.overrides",
                                f"unknown MachineConfig field "
                                f"{name!r}{suggestion}")
            value = overrides[name]
            _number(value, f"{path}.overrides.{name}")
            items.append((name, value))
        return cls(preset=preset, overrides=tuple(items))

    def to_dict(self) -> dict:
        out: dict = {"preset": self.preset}
        if self.overrides:
            out["overrides"] = dict(self.overrides)
        return out


@dataclass(frozen=True)
class GridSpec:
    """The sweep grid: approaches x np [x rates] [x delta] [x tam] [x trace]."""

    approaches: tuple[str, ...]
    np: tuple[int, ...]
    fault_rates: tuple[float, ...] = ()
    delta: tuple[str, ...] = ()
    tam: tuple[str, ...] = ()
    trace: tuple[str, ...] = ()

    @classmethod
    def from_dict(cls, d: Mapping, path: str = "grid") -> "GridSpec":
        _reject_unknown(d, ("approaches", "np", "fault_rates", "delta",
                            "tam", "trace"), path)
        if "approaches" not in d or "np" not in d:
            missing = [k for k in ("approaches", "np") if k not in d]
            raise SpecError(path, f"missing required field(s) {missing}")
        _check_points(path, {
            k: _sequence(d.get(k, ()), f"{path}.{k}") for k in (
                "approaches", "np", "fault_rates", "delta", "tam", "trace")})
        approaches = []
        for i, a in enumerate(_sequence(d["approaches"], f"{path}.approaches")):
            key = _string(a, f"{path}.approaches[{i}]")
            try:  # the figures' own key parser
                strategy_for(key, 1)
            except ValueError:
                raise SpecError(
                    f"{path}.approaches[{i}]",
                    f"unknown approach {key!r}; expected one of "
                    f"{[*APPROACHES, 'bbio']} or 'rbio_nfNNN'") from None
            approaches.append(key)
        np_values = [
            _integer(n, f"{path}.np[{i}]", minimum=1, maximum=MAX_NP)
            for i, n in enumerate(_sequence(d["np"], f"{path}.np"))
        ]
        rates = [
            _number(r, f"{path}.fault_rates[{i}]", minimum=0.0)
            for i, r in enumerate(_sequence(d.get("fault_rates", ()),
                                            f"{path}.fault_rates"))
        ]
        delta = []
        for i, m in enumerate(_sequence(d.get("delta", ()), f"{path}.delta")):
            mode = _string(m, f"{path}.delta[{i}]")
            if mode not in DELTA_MODES:
                raise SpecError(f"{path}.delta[{i}]",
                                f"unknown delta mode {mode!r}; expected one "
                                f"of {list(DELTA_MODES)}")
            delta.append(mode)
        tam = []
        for i, m in enumerate(_sequence(d.get("tam", ()), f"{path}.tam")):
            mode = _string(m, f"{path}.tam[{i}]")
            if mode not in TAM_MODES:
                raise SpecError(f"{path}.tam[{i}]",
                                f"unknown tam mode {mode!r}; expected one "
                                f"of {list(TAM_MODES)}")
            tam.append(mode)
        trace = []
        for i, m in enumerate(_sequence(d.get("trace", ()), f"{path}.trace")):
            mode = _string(m, f"{path}.trace[{i}]")
            if mode not in TRACE_MODES:
                raise SpecError(f"{path}.trace[{i}]",
                                f"unknown trace mode {mode!r}; expected one "
                                f"of {list(TRACE_MODES)}")
            trace.append(mode)
        if not approaches:
            raise SpecError(f"{path}.approaches", "must not be empty")
        if not np_values:
            raise SpecError(f"{path}.np", "must not be empty")
        return cls(tuple(approaches), tuple(np_values), tuple(rates),
                   tuple(delta), tuple(tam), tuple(trace))

    def to_dict(self) -> dict:
        out: dict = {"approaches": list(self.approaches),
                     "np": list(self.np)}
        if self.fault_rates:
            out["fault_rates"] = list(self.fault_rates)
        if self.delta:
            out["delta"] = list(self.delta)
        if self.tam:
            out["tam"] = list(self.tam)
        if self.trace:
            out["trace"] = list(self.trace)
        return out


def _check_points(path: str, axes: Mapping) -> None:
    """Raise unless the grid over ``axes`` (name -> values; an empty
    optional axis counts once) has at most :data:`MAX_POINTS` points."""
    lengths = {name: len(axis) for name, axis in axes.items() if axis}
    n = math.prod(lengths.values())
    if n > MAX_POINTS:
        product = " x ".join(f"{k} {name}" for name, k in lengths.items())
        raise SpecError(path, f"the grid expands to {product} = {n} "
                              f"points, more than {MAX_POINTS}")


@dataclass(frozen=True)
class StepsSpec:
    """Explicit uniform stepping: ``n_steps`` checkpoints, ``gap`` apart.

    The simple alternative to declarative checkpoint rules; a spec may
    give one or the other, not both.
    """

    n_steps: int = 1
    gap: float = 0.0

    @classmethod
    def from_dict(cls, d: Mapping, path: str = "steps") -> "StepsSpec":
        _reject_unknown(d, ("n_steps", "gap"), path)
        return cls(
            n_steps=_integer(d.get("n_steps", 1), f"{path}.n_steps", minimum=1,
                             maximum=MAX_CHECKPOINTS),
            gap=_number(d.get("gap", 0.0), f"{path}.gap", minimum=0.0),
        )

    def to_dict(self) -> dict:
        return {"n_steps": self.n_steps, "gap": self.gap}


def _rule_from_dict(d: Mapping, path: str) -> CheckpointRule:
    _reject_unknown(d, ("every", "at", "start", "stop"), path)
    kwargs: dict = {}
    if "every" in d:
        kwargs["every"] = _number(d["every"], f"{path}.every", positive=True)
    if "at" in d:
        kwargs["at"] = tuple(
            _number(t, f"{path}.at[{i}]", minimum=0.0)
            for i, t in enumerate(_sequence(d["at"], f"{path}.at")))
    if "start" in d:
        kwargs["start"] = _number(d["start"], f"{path}.start", minimum=0.0)
    if "stop" in d:
        kwargs["stop"] = _number(d["stop"], f"{path}.stop", minimum=0.0)
    try:
        return CheckpointRule(**kwargs)
    except ValueError as exc:
        raise SpecError(path, str(exc)) from None


def _rule_count(rule: CheckpointRule, horizon: float) -> float:
    """How many instants ``rule`` lists within ``horizon`` (to within one,
    its end tolerance included), without listing them."""
    if rule.at:
        return len(rule.at)
    end = horizon if rule.stop is None else min(rule.stop, horizon)
    return max(0.0, (end + 1e-12 - rule.start) // rule.every + 1)


def _rule_to_dict(rule: CheckpointRule) -> dict:
    out: dict = {}
    if rule.every is not None:
        out["every"] = rule.every
    if rule.at:
        out["at"] = list(rule.at)
    if rule.start:
        out["start"] = rule.start
    if rule.stop is not None:
        out["stop"] = rule.stop
    return out


@dataclass(frozen=True)
class CampaignCheckpoint:
    """Declarative checkpoint schedule (muscle3/yMMSL-style rules).

    ``wallclock_time`` rules are in simulated seconds; ``solver_steps``
    rules are in solver time steps, scaled by ``t_step`` seconds per step.
    ``horizon`` bounds the campaign in simulated seconds; ``at_end``
    appends a final checkpoint at the horizon.  The union of all rule
    instants, sorted and deduplicated, becomes the checkpoint sequence:
    ``n_steps`` coordinated steps whose inter-step computation gaps are
    the instant spacings (the offset of the first instant is immaterial —
    a run starts with its first coordinated step).
    """

    horizon: float
    at_end: bool = False
    t_step: float = TCOMP_PER_STEP
    wallclock_time: tuple[CheckpointRule, ...] = ()
    solver_steps: tuple[CheckpointRule, ...] = ()

    def instants(self) -> tuple[float, ...]:
        """The merged checkpoint instants in simulated seconds."""
        merged = list(checkpoint_instants(self.wallclock_time, self.horizon,
                                          at_end=self.at_end))
        if self.solver_steps:
            merged.extend(checkpoint_instants(self.solver_steps, self.horizon,
                                              scale=self.t_step))
        merged.sort()
        out: list[float] = []
        for t in merged:
            if not out or t - out[-1] > 1e-6:
                out.append(t)
        return tuple(out)

    def steps_and_gaps(self) -> tuple[int, tuple[float, ...]]:
        """``(n_steps, inter-step gaps)`` for the runner."""
        instants = self.instants()
        if not instants:
            raise SpecError(
                "checkpoint",
                f"rules produce no checkpoints within horizon "
                f"{self.horizon}; add a rule or set at_end: true")
        gaps = tuple(b - a for a, b in zip(instants, instants[1:]))
        return len(instants), gaps

    @classmethod
    def from_dict(cls, d: Mapping, path: str = "checkpoint"
                  ) -> "CampaignCheckpoint":
        _reject_unknown(d, ("horizon", "at_end", "t_step", "wallclock_time",
                            "solver_steps"), path)
        if "horizon" not in d:
            raise SpecError(f"{path}.horizon",
                            "required (simulated seconds the rules cover)")
        horizon = _number(d["horizon"], f"{path}.horizon", positive=True)
        at_end = _boolean(d.get("at_end", False), f"{path}.at_end")
        t_step = _number(d.get("t_step", TCOMP_PER_STEP), f"{path}.t_step",
                         positive=True)
        rules = {}
        count = float(at_end)
        for axis, scale in (("wallclock_time", 1.0), ("solver_steps", t_step)):
            parsed = []
            for i, r in enumerate(_sequence(d.get(axis, ()), f"{path}.{axis}")):
                where = f"{path}.{axis}[{i}]"
                rule = _rule_from_dict(_require_mapping(r, where), where)
                count += _rule_count(rule, horizon / scale)
                if count > MAX_CHECKPOINTS:
                    raise SpecError(
                        where, f"the rules fire {count:.3g} times within "
                        f"horizon {horizon}; a point takes at most "
                        f"{MAX_CHECKPOINTS} checkpoints")
                parsed.append(rule)
            rules[axis] = tuple(parsed)
        return cls(horizon=horizon, at_end=at_end, t_step=t_step,
                   wallclock_time=rules["wallclock_time"],
                   solver_steps=rules["solver_steps"])

    def to_dict(self) -> dict:
        out: dict = {"horizon": self.horizon}
        if self.at_end:
            out["at_end"] = True
        if self.t_step != TCOMP_PER_STEP:
            out["t_step"] = self.t_step
        if self.wallclock_time:
            out["wallclock_time"] = [_rule_to_dict(r)
                                     for r in self.wallclock_time]
        if self.solver_steps:
            out["solver_steps"] = [_rule_to_dict(r) for r in self.solver_steps]
        return out


@dataclass(frozen=True)
class CampaignFaults:
    """Fault rules: explicit scheduled specs and/or a generation template.

    ``specs`` are literal :class:`~repro.faults.FaultSpec` records applied
    to every grid point.  ``generate`` is the :class:`FaultConfig`
    template used by the ``grid.fault_rates`` axis: each rate point draws
    a deterministic schedule with ``fs_errors = rate`` and ``fs_stalls =
    rate / 2``, keeping the template's other knobs (notably ``horizon``).
    """

    specs: tuple[FaultSpec, ...] = ()
    generate: Optional[FaultConfig] = None

    @classmethod
    def from_dict(cls, d: Mapping, path: str = "faults") -> "CampaignFaults":
        _reject_unknown(d, ("specs", "generate"), path)
        specs = []
        for i, s in enumerate(_sequence(d.get("specs", ()), f"{path}.specs")):
            entry = _require_mapping(s, f"{path}.specs[{i}]")
            try:
                specs.append(FaultSpec.from_dict(entry))
            except (ValueError, TypeError) as exc:
                raise SpecError(f"{path}.specs[{i}]", str(exc)) from None
        generate = None
        if "generate" in d:
            entry = _require_mapping(d["generate"], f"{path}.generate")
            try:
                generate = FaultConfig.from_dict(entry)
            except (ValueError, TypeError) as exc:
                raise SpecError(f"{path}.generate", str(exc)) from None
        return cls(specs=tuple(specs), generate=generate)

    def to_dict(self) -> dict:
        out: dict = {}
        if self.specs:
            out["specs"] = [s.to_dict() for s in self.specs]
        if self.generate is not None:
            out["generate"] = self.generate.to_dict()
        return out


@dataclass(frozen=True)
class WorkloadSpec:
    """An evolving (step-mutating) workload instead of the static problem.

    When present, every point runs on
    :meth:`repro.ckpt.EvolvingData.mutating` — each rank's state starts
    random and a contiguous ``mutated_fraction`` of it is overwritten per
    step — instead of the weak-scaled paper problem.  This is the
    workload the ``grid.delta`` axis is designed to measure: the mutated
    fraction bounds the chunk-dedup ratio an incremental run can reach.
    """

    points_per_rank: int
    mutated_fraction: float = 0.25

    @classmethod
    def from_dict(cls, d: Mapping, path: str = "workload") -> "WorkloadSpec":
        _reject_unknown(d, ("points_per_rank", "mutated_fraction"), path)
        if "points_per_rank" not in d:
            raise SpecError(f"{path}.points_per_rank", "required")
        fraction = _number(d.get("mutated_fraction", 0.25),
                           f"{path}.mutated_fraction", positive=True)
        if fraction > 1.0:
            raise SpecError(f"{path}.mutated_fraction",
                            f"must be <= 1, got {fraction}")
        return cls(
            points_per_rank=_integer(d["points_per_rank"],
                                     f"{path}.points_per_rank", minimum=1),
            mutated_fraction=fraction,
        )

    def to_dict(self) -> dict:
        out: dict = {"points_per_rank": self.points_per_rank}
        if self.mutated_fraction != 0.25:
            out["mutated_fraction"] = self.mutated_fraction
        return out


@dataclass(frozen=True)
class ResumeSpec:
    """Resume-from-snapshot semantics for faulted campaigns.

    When enabled, every point's checkpoint wave is followed (on the same
    job, after background drains settle) by a coordinated resilient
    restore that agrees on a generation per the ``policy`` —
    ``newest_complete`` votes for the newest generation every rank can
    read back intact (see :meth:`repro.experiments.CheckpointRun.restore`).
    """

    enabled: bool = False
    policy: str = "newest_complete"

    @classmethod
    def from_dict(cls, d: Mapping, path: str = "resume") -> "ResumeSpec":
        _reject_unknown(d, ("enabled", "policy"), path)
        policy = _string(d.get("policy", "newest_complete"), f"{path}.policy")
        if policy not in RESUME_POLICIES:
            raise SpecError(f"{path}.policy",
                            f"unknown policy {policy!r}; expected one of "
                            f"{list(RESUME_POLICIES)}")
        return cls(enabled=_boolean(d.get("enabled", False),
                                    f"{path}.enabled"),
                   policy=policy)

    def to_dict(self) -> dict:
        out: dict = {"enabled": self.enabled}
        if self.policy != "newest_complete":
            out["policy"] = self.policy
        return out


# ---------------------------------------------------------------------------
# The spec
# ---------------------------------------------------------------------------

_TOP_LEVEL = ("name", "seed", "machine", "grid", "steps", "checkpoint",
              "faults", "resume", "workload", "fs_type", "basedir")


@dataclass(frozen=True)
class CampaignSpec:
    """One complete declarative campaign (see the module docstring)."""

    name: str
    grid: GridSpec
    seed: Optional[int] = None
    machine: MachineSpec = MachineSpec()
    steps: Optional[StepsSpec] = None
    checkpoint: Optional[CampaignCheckpoint] = None
    faults: CampaignFaults = CampaignFaults()
    resume: ResumeSpec = ResumeSpec()
    workload: Optional[WorkloadSpec] = None
    fs_type: str = "gpfs"
    basedir: str = "/ckpt"

    def __post_init__(self) -> None:
        if self.steps is not None and self.checkpoint is not None:
            raise SpecError(
                "steps", "give either explicit 'steps' or declarative "
                "'checkpoint' rules, not both")
        if self.grid.fault_rates and self.faults.specs:
            raise SpecError(
                "grid.fault_rates", "a fault-rate axis cannot be combined "
                "with explicit faults.specs (rates generate their own "
                "schedules)")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, d: Mapping) -> "CampaignSpec":
        """Validate a plain dict (parsed YAML/JSON) into a spec."""
        d = _require_mapping(d, "")
        _reject_unknown(d, _TOP_LEVEL, "")
        if "name" not in d:
            raise SpecError("name", "required")
        name = _string(d["name"], "name")
        if not name:
            raise SpecError("name", "must not be empty")
        if "grid" not in d:
            raise SpecError("grid", "required")
        seed = d.get("seed")
        if seed is not None:
            seed = _integer(seed, "seed")
        fs_type = _string(d.get("fs_type", "gpfs"), "fs_type")
        if fs_type not in FS_TYPES:
            raise SpecError("fs_type", f"unknown file system {fs_type!r}; "
                            f"expected one of {list(FS_TYPES)}")
        basedir = _string(d.get("basedir", "/ckpt"), "basedir")
        if not basedir.startswith("/"):
            raise SpecError("basedir", f"must be absolute, got {basedir!r}")
        return cls(
            name=name,
            seed=seed,
            machine=MachineSpec.from_dict(
                _require_mapping(d.get("machine", {}), "machine")),
            grid=GridSpec.from_dict(_require_mapping(d["grid"], "grid")),
            steps=(StepsSpec.from_dict(_require_mapping(d["steps"], "steps"))
                   if "steps" in d else None),
            checkpoint=(CampaignCheckpoint.from_dict(
                _require_mapping(d["checkpoint"], "checkpoint"))
                if "checkpoint" in d else None),
            faults=CampaignFaults.from_dict(
                _require_mapping(d.get("faults", {}), "faults")),
            resume=ResumeSpec.from_dict(
                _require_mapping(d.get("resume", {}), "resume")),
            workload=(WorkloadSpec.from_dict(
                _require_mapping(d["workload"], "workload"))
                if "workload" in d else None),
            fs_type=fs_type,
            basedir=basedir,
        )

    @classmethod
    def from_yaml(cls, text: str) -> "CampaignSpec":
        """Parse a YAML document (requires the optional ``pyyaml``)."""
        try:
            import yaml
        except ImportError:  # pragma: no cover - environment-dependent
            raise SpecError(
                "", "YAML specs need the optional 'pyyaml' package "
                "(pip install repro[campaign]); dict/JSON specs work "
                "without it") from None
        return cls.from_dict(_require_mapping(yaml.safe_load(text), ""))

    @classmethod
    def from_file(cls, path: str) -> "CampaignSpec":
        """Load a spec from a ``.json`` or ``.yaml``/``.yml`` file."""
        with open(path) as f:
            text = f.read()
        if str(path).endswith(".json"):
            return cls.from_dict(json.loads(text))
        return cls.from_yaml(text)

    # -- canonical form ----------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical plain-data form; ``from_dict`` round-trips it."""
        out: dict = {"name": self.name}
        if self.seed is not None:
            out["seed"] = self.seed
        machine = self.machine.to_dict()
        if machine != {"preset": "intrepid"}:
            out["machine"] = machine
        out["grid"] = self.grid.to_dict()
        if self.steps is not None:
            out["steps"] = self.steps.to_dict()
        if self.checkpoint is not None:
            out["checkpoint"] = self.checkpoint.to_dict()
        faults = self.faults.to_dict()
        if faults:
            out["faults"] = faults
        if self.resume.enabled:
            out["resume"] = self.resume.to_dict()
        if self.workload is not None:
            out["workload"] = self.workload.to_dict()
        if self.fs_type != "gpfs":
            out["fs_type"] = self.fs_type
        if self.basedir != "/ckpt":
            out["basedir"] = self.basedir
        return out

    def canonical_json(self) -> str:
        """Key-sorted JSON of :meth:`to_dict` (the identity the service hashes)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @property
    def campaign_id(self) -> str:
        """Content hash identifying this campaign (``CACHE_VERSION``-keyed)."""
        return cache_key("campaign", self.canonical_json())

    # -- derived stepping --------------------------------------------------

    def steps_and_gaps(self) -> tuple[int, tuple[float, ...]]:
        """Resolve stepping: explicit ``steps``, checkpoint rules, or 1 step."""
        if self.checkpoint is not None:
            return self.checkpoint.steps_and_gaps()
        if self.steps is not None:
            n = self.steps.n_steps
            return n, (self.steps.gap,) * (n - 1)
        return 1, ()
