"""Declarative SoC design space around the Exynos 5250 calibration.

The paper evaluates one fixed SoC.  This module lifts the hard-wired
calibration into a parameterized family: each :class:`SoCConfig` names a
hypothetical Mali + A15 SoC by its headline knobs — GPU core count and
clock, A15 core count and clock, DRAM bandwidth, register-file size,
rail-power scaling — and derives a full
:class:`~repro.calibration.exynos5250.ExynosPlatform` from the measured
Exynos 5250 baseline via ``dataclasses.replace``.

Two invariants matter for the design-space driver:

* **The baseline reproduces exactly.**  Every knob defaults to the
  Exynos 5250 value and every derivation multiplies by a factor that is
  exactly ``1.0`` at the default, so ``EXYNOS_5250.platform()``
  compares equal to :func:`~repro.calibration.exynos5250.default_platform`
  field for field — the measured SoC is a *point* of the space, not an
  approximation of one.  (Clocks are stored in Hz for this reason:
  ``1.7 * 1e9 != 1.7e9`` in float64.)
* **Configs are content-addressed.**  :meth:`SoCConfig.digest` hashes
  the *derived* hardware description (not the name), so two configs that
  mean the same hardware share a digest and two that differ anywhere in
  the derived configs never collide — the token the perf-memo layer
  already picks up through its config-valued content keys.

The derivation is split per platform part (Mali, A15, DRAM, rails), each
a function of the few knobs it reads.  :class:`PlatformParts` composes
them and caches each part per distinct knob value, so a sweep over
thousands of configs derives (and, for digests, renders) a part once
per distinct GPU, CPU, DRAM or rail setting; :meth:`SoCConfig.platform`
and :meth:`SoCConfig.digest` are its one-config views.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, fields, replace

from ..errors import CalibrationError
from .exynos5250 import ExynosPlatform, default_platform

#: validated (lo, hi) ranges per knob — wide enough for any plausible
#: embedded SoC, tight enough to catch unit mistakes (MHz vs Hz, GB/s
#: vs bytes/s)
_RANGES = {
    "gpu_cores": (1, 32),
    "gpu_clock_hz": (100e6, 2e9),
    "cpu_cores": (1, 16),
    "cpu_clock_hz": (200e6, 4e9),
    "dram_gbps": (1.0, 100.0),
    "register_file_scale": (0.125, 4.0),
    "rail_scale": (0.1, 10.0),
}


@dataclass(frozen=True)
class SoCConfig:
    """One point of the SoC design space (Exynos 5250 defaults)."""

    name: str
    #: Mali shader cores and clock
    gpu_cores: int = 4
    gpu_clock_hz: float = 533e6
    #: Cortex-A15 cores and clock
    cpu_cores: int = 2
    cpu_clock_hz: float = 1.7e9
    #: DRAM peak bandwidth, GB/s (per-agent caps scale proportionally)
    dram_gbps: float = 12.8
    #: GPU register-file capacity relative to the T604
    register_file_scale: float = 1.0
    #: scaling of the *dynamic* rail coefficients (CPU core, GPU pipes,
    #: host polling); the board floor and DRAM energy/byte stay fixed
    rail_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise CalibrationError("SoCConfig needs a non-empty name")
        for knob, (lo, hi) in _RANGES.items():
            value = getattr(self, knob)
            if not lo <= value <= hi:
                raise CalibrationError(
                    f"SoCConfig.{knob}={value!r} outside the validated range [{lo}, {hi}]"
                )

    # ------------------------------------------------------------------
    def platform(self, base: ExynosPlatform | None = None) -> ExynosPlatform:
        """The derived platform (``base`` defaults to the Exynos 5250)."""
        return PlatformParts(base).platform(self)

    def digest(self, base: ExynosPlatform | None = None) -> str:
        """Content digest of the *derived* hardware (name excluded)."""
        return PlatformParts(base).digest(self)

    def describe(self) -> str:
        return (
            f"{self.name}: {self.gpu_cores}-core Mali @ {self.gpu_clock_hz / 1e6:g} MHz, "
            f"{self.cpu_cores}x A15 @ {self.cpu_clock_hz / 1e9:g} GHz, "
            f"{self.dram_gbps:g} GB/s DRAM, regfile x{self.register_file_scale:g}, "
            f"rails x{self.rail_scale:g}"
        )


#: the measured board, as a point of the space
EXYNOS_5250 = SoCConfig(name="exynos5250")


# ---------------------------------------------------------------------------
# per-part derivations
# ---------------------------------------------------------------------------


def _mali(base, gpu_cores, gpu_clock_hz, register_file_scale):
    return replace(
        base.mali,
        shader_cores=gpu_cores,
        clock_hz=gpu_clock_hz,
        register_file_scale=register_file_scale,
    )


def _cpu(base, cpu_cores, cpu_clock_hz):
    return replace(base.cpu, cores=cpu_cores, clock_hz=cpu_clock_hz)


def _dram(base, dram_gbps):
    factor = (dram_gbps * 1e9) / base.dram.peak_bandwidth
    return replace(
        base.dram,
        peak_bandwidth=base.dram.peak_bandwidth * factor,
        cpu_single_core_cap=base.dram.cpu_single_core_cap * factor,
        cpu_dual_core_cap=base.dram.cpu_dual_core_cap * factor,
        gpu_cap=base.dram.gpu_cap * factor,
    )


def _rails(base, rail_scale):
    rails = base.rails
    return replace(
        rails,
        cpu_core_base_w=rails.cpu_core_base_w * rail_scale,
        cpu_core_ipc_w=rails.cpu_core_ipc_w * rail_scale,
        gpu_base_w=rails.gpu_base_w * rail_scale,
        gpu_alu_w=rails.gpu_alu_w * rail_scale,
        gpu_ls_w=rails.gpu_ls_w * rail_scale,
        host_polling_w=rails.host_polling_w * rail_scale,
    )


#: each derived part: (ExynosPlatform field, derivation from the base,
#: the knob values passed to it).  A derivation reads nothing else,
#: which is what lets :class:`PlatformParts` share one part between
#: every config with the same values of those knobs.
_PARTS = (
    ("mali", _mali, lambda c: (c.gpu_cores, c.gpu_clock_hz, c.register_file_scale)),
    ("cpu", _cpu, lambda c: (c.cpu_cores, c.cpu_clock_hz)),
    ("dram", _dram, lambda c: (c.dram_gbps,)),
    ("rails", _rails, lambda c: (c.rail_scale,)),
)


class PlatformParts:
    """The derived platform parts of many configs over one base.

    A call-local cache: build one per sweep.  Each part is derived (and,
    for :meth:`digest`, rendered with ``repr``) once per distinct value
    of the knobs it reads, and the same part object is returned to every
    config sharing them.  Keys carry the knobs' types as well as their
    values: ``4`` and ``4.0`` compare equal but render — and so digest —
    differently.
    """

    def __init__(self, base: ExynosPlatform | None = None) -> None:
        self.base = base if base is not None else default_platform()
        self._cache: tuple[dict, ...] = tuple({} for _ in _PARTS)

    def _entry(self, index: int, config: SoCConfig) -> list:
        """``[part, repr or None]`` of one part of ``config``."""
        _, derive, knobs = _PARTS[index]
        values = knobs(config)
        key = (values, tuple(map(type, values)))
        cache = self._cache[index]
        entry = cache.get(key)
        if entry is None:
            entry = cache[key] = [derive(self.base, *values), None]
        return entry

    def mali(self, config: SoCConfig):
        """The config's :class:`~repro.mali.config.MaliConfig`."""
        return self._entry(0, config)[0]

    def cpu(self, config: SoCConfig):
        """The config's :class:`~repro.cpu.config.A15Config`."""
        return self._entry(1, config)[0]

    def dram(self, config: SoCConfig):
        """The config's :class:`~repro.memory.dram.DramConfig`."""
        return self._entry(2, config)[0]

    def rails(self, config: SoCConfig):
        """The config's :class:`~repro.power.rails.PowerRailConfig`."""
        return self._entry(3, config)[0]

    def platform(self, config: SoCConfig) -> ExynosPlatform:
        """The base with every derived part of ``config`` substituted."""
        parts = {field: self._entry(i, config)[0] for i, (field, _, _) in enumerate(_PARTS)}
        return replace(self.base, **parts)

    def digest(self, config: SoCConfig) -> str:
        """SHA-256 prefix of ``repr((mali, cpu, dram, rails))``, the
        tuple's repr assembled from the cached per-part reprs."""
        reprs = []
        for i in range(len(_PARTS)):
            entry = self._entry(i, config)
            if entry[1] is None:
                entry[1] = repr(entry[0])
            reprs.append(entry[1])
        payload = "(" + ", ".join(reprs) + ")"
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def config_digests(configs, base: ExynosPlatform | None = None) -> tuple[str, ...]:
    """:meth:`SoCConfig.digest` of many configs through one
    :class:`PlatformParts`, so each part renders once per distinct knob
    value instead of once per config."""
    parts = PlatformParts(base)
    return tuple(parts.digest(config) for config in configs)


def _axis_token(knob: str, value) -> str:
    if knob == "gpu_cores":
        return f"g{value}"
    if knob == "gpu_clock_hz":
        return f"{value / 1e6:g}MHz"
    if knob == "cpu_cores":
        return f"c{value}"
    if knob == "cpu_clock_hz":
        return f"{value / 1e9:g}GHz"
    if knob == "dram_gbps":
        return f"{value:g}GBs"
    if knob == "register_file_scale":
        return f"rf{value:g}"
    return f"rs{value:g}"


def config_grid(name_prefix: str = "soc", **axes) -> tuple[SoCConfig, ...]:
    """Cross-product of knob value tuples, deterministically named.

    Axes are any :class:`SoCConfig` knob; omitted knobs stay at the
    Exynos 5250 default.  Names concatenate the prefix with a token per
    *swept* axis (one with more than one value), in knob-declaration
    order, so a grid's names are stable across runs.  A point matching
    :data:`EXYNOS_5250` on every knob is renamed ``"exynos5250"``.
    """
    order = [f.name for f in fields(SoCConfig) if f.name != "name"]
    unknown = set(axes) - set(order)
    if unknown:
        raise CalibrationError(f"unknown SoCConfig axes: {sorted(unknown)}")
    swept = [k for k in order if k in axes]
    values = [tuple(axes[k]) for k in swept]
    for knob, vals in zip(swept, values):
        if not vals:
            raise CalibrationError(f"axis {knob!r} has no values")
    named_axes = [k for k, vals in zip(swept, values) if len(vals) > 1]
    # unswept knobs keep their defaults, which are the board's values
    board = tuple(getattr(EXYNOS_5250, k) for k in swept)
    configs = []
    for combo in itertools.product(*values):
        knobs = dict(zip(swept, combo))
        if combo == board:
            name = EXYNOS_5250.name
        else:
            tokens = [_axis_token(k, knobs[k]) for k in named_axes]
            name = "-".join([name_prefix] + tokens) if tokens else name_prefix
        configs.append(SoCConfig(name=name, **knobs))
    return tuple(configs)


def default_space() -> tuple[SoCConfig, ...]:
    """The default 64-config sweep: cores x GPU clock x DRAM bandwidth.

    Clock and bandwidth points follow real Mali-T6xx-era SoCs (T604 at
    416/533 MHz bins, T628 parts up to 600/700 MHz; LPDDR3 interfaces
    from 8.5 to 16.5 GB/s).  The Exynos 5250 appears as the
    ``"exynos5250"`` point.
    """
    return config_grid(
        gpu_cores=(2, 4, 6, 8),
        gpu_clock_hz=(416e6, 533e6, 600e6, 700e6),
        dram_gbps=(8.5, 12.8, 14.9, 16.5),
    )


def load_configs(path) -> tuple[SoCConfig, ...]:
    """Read a design-space config file (JSON).

    Two shapes are accepted::

        {"configs": [{"name": "big", "gpu_cores": 8, ...}, ...]}
        {"grid": {"name_prefix": "soc", "gpu_cores": [4, 8], ...}}

    A file may carry both; explicit configs precede grid points.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not ({"configs", "grid"} & set(data)):
        raise CalibrationError(
            f"{path}: expected a JSON object with 'configs' and/or 'grid'"
        )
    out: list[SoCConfig] = []
    for entry in data.get("configs", ()):
        if not isinstance(entry, dict) or "name" not in entry:
            raise CalibrationError(f"{path}: each config needs at least a 'name'")
        try:
            out.append(SoCConfig(**entry))
        except TypeError as exc:
            raise CalibrationError(f"{path}: bad config {entry.get('name')!r}: {exc}") from None
    grid = data.get("grid")
    if grid is not None:
        if not isinstance(grid, dict):
            raise CalibrationError(f"{path}: 'grid' must be an object of axis lists")
        kwargs = dict(grid)
        prefix = kwargs.pop("name_prefix", "soc")
        out.extend(config_grid(name_prefix=prefix, **kwargs))
    names = [c.name for c in out]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise CalibrationError(f"{path}: duplicate config names {dupes}")
    return tuple(out)
