"""Grid results and the classic ``run_grid`` entry point.

:class:`ResultSet` holds the runs of one experimental campaign; the
figure builders and the pytest-benchmark harness all consume it.  The
actual grid execution lives in :mod:`repro.experiments.engine` —
``run_grid`` here is a thin compatibility shim over
:class:`~repro.experiments.engine.Campaign` that keeps the historic
one-call interface (and gains ``jobs=``, ``cache_dir=`` and ``trace=``
knobs for free).

Serialization: ``to_json`` emits schema 2 (adds the campaign's spec
``fingerprint``); ``from_json`` still accepts schema-1 archives.  The
save → load → save cycle is idempotent: loaded runs carry their
compile-options label in ``diagnostics["options_label"]`` and
``to_json`` falls back to it when the structured options are absent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..benchmarks.base import Precision, RunResult, Version
from ..benchmarks.registry import PAPER_ORDER
from ..calibration.exynos5250 import ExynosPlatform

#: result key: ``(benchmark, version, precision)`` for fixed-frequency
#: runs, extended with the governor name for governed runs — fixed rows
#: keep their historic 3-tuple keys so every pre-DVFS lookup (and the
#: sorted ``to_json`` order) is unchanged.
Key = tuple[str, Version, Precision] | tuple[str, Version, Precision, str]


def result_key(run: RunResult) -> Key:
    """The :class:`ResultSet` key of one run (governor-aware)."""
    if run.governor is None:
        return (run.benchmark, run.version, run.precision)
    return (run.benchmark, run.version, run.precision, run.governor)


def key_label(key: Key) -> str:
    """A cell's human-readable id: ``"amcd [DP] OpenCL"``, with
    ``" @<governor>"`` appended for a governed cell."""
    benchmark, version, precision, *governor = key
    label = f"{benchmark} [{precision.label}] {version.value}"
    return f"{label} @{governor[0]}" if governor else label


#: serialization schema emitted by :meth:`ResultSet.to_json`
RESULTSET_SCHEMA = 2
#: schemas :meth:`ResultSet.from_json` understands
ACCEPTED_SCHEMAS = (1, 2)


# ---------------------------------------------------------------------------
# per-run row (de)serialization — shared by ResultSet JSON and the run cache
# ---------------------------------------------------------------------------


def run_to_row(run: RunResult) -> dict:
    """One run as a plain JSON-able dict (options as describe() label).

    A failed run carries NaN measurements; those serialize as ``null``
    (bare ``NaN`` is not JSON — ``json.dumps`` emits it anyway, and
    strict parsers reject the file).  :func:`run_from_row` already maps
    ``null`` back to NaN, so the round trip is unchanged.
    """
    if run.options is not None:
        options_label = run.options.describe()
    else:
        options_label = run.diagnostics.get("options_label")

    def _finite(value: float) -> float | None:
        return None if math.isnan(value) else value

    row = {
        "benchmark": run.benchmark,
        "version": run.version.value,
        "precision": run.precision.value,
        "elapsed_s": _finite(run.elapsed_s),
        "mean_power_w": _finite(run.mean_power_w),
        "energy_j": _finite(run.energy_j),
        "verified": run.verified,
        "options": options_label,
        "local_size": run.local_size,
        "failure": run.failure,
        "failure_kind": run.failure_kind,
    }
    # emitted only for governed runs: every fixed-frequency row stays
    # byte-identical to the pre-DVFS serialization
    if run.governor is not None:
        row["governor"] = run.governor
    return row


def run_from_row(row: dict) -> RunResult:
    """Rebuild a run from :func:`run_to_row` output.

    Structured options are not reconstructed (only their label was
    stored, kept in ``diagnostics["options_label"]``); ratio
    computations and figure building work as usual.
    """
    return RunResult(
        benchmark=row["benchmark"],
        version=Version(row["version"]),
        precision=Precision(row["precision"]),
        elapsed_s=row["elapsed_s"] if row["elapsed_s"] is not None else math.nan,
        mean_power_w=row["mean_power_w"] if row["mean_power_w"] is not None else math.nan,
        energy_j=row["energy_j"] if row["energy_j"] is not None else math.nan,
        verified=row["verified"],
        options=None,
        local_size=row["local_size"],
        failure=row["failure"],
        # rows written before fault-tolerant execution carry no kind
        failure_kind=row.get("failure_kind"),
        # rows written before the DVFS axis carry no governor
        governor=row.get("governor"),
        diagnostics={"options_label": row["options"]},
    )


@dataclass
class ResultSet:
    """All runs of one experimental campaign.

    ``fingerprint`` identifies the producing campaign's spec (see
    :meth:`CampaignSpec.fingerprint
    <repro.experiments.engine.CampaignSpec.fingerprint>`); it is ``None``
    for hand-assembled sets and schema-1 archives.
    """

    results: dict[Key, RunResult] = field(default_factory=dict)
    fingerprint: str | None = None

    def add(self, result: RunResult) -> None:
        self.results[result_key(result)] = result

    def get(
        self,
        benchmark: str,
        version: Version,
        precision: Precision,
        governor: str | None = None,
    ) -> RunResult:
        if governor is not None:
            return self.results[(benchmark, version, precision, governor)]
        return self.results[(benchmark, version, precision)]

    def has(
        self,
        benchmark: str,
        version: Version,
        precision: Precision,
        governor: str | None = None,
    ) -> bool:
        if governor is not None:
            return (benchmark, version, precision, governor) in self.results
        return (benchmark, version, precision) in self.results

    def benchmarks(self) -> list[str]:
        seen: list[str] = []
        for name in PAPER_ORDER:
            if any(k[0] == name for k in self.results):
                seen.append(name)
        return seen

    # ------------------------------------------------------------------
    # composition (partial campaigns)
    # ------------------------------------------------------------------
    def merge(self, other: "ResultSet") -> "ResultSet":
        """Union of two campaigns as a new set; ``other`` wins on clashes.

        The merged fingerprint survives only when both inputs carry the
        same one (merging different campaigns yields a hybrid with no
        single spec identity).
        """
        merged = dict(self.results)
        merged.update(other.results)
        fingerprint = self.fingerprint if self.fingerprint == other.fingerprint else None
        return ResultSet(results=merged, fingerprint=fingerprint)

    def filter(
        self,
        *,
        benchmarks: Iterable[str] | None = None,
        versions: Iterable[Version] | None = None,
        precisions: Iterable[Precision] | None = None,
    ) -> "ResultSet":
        """Sub-campaign restricted to the given axes (``None`` = keep all).

        The fingerprint is preserved as provenance of the source
        campaign.
        """
        keep_b = None if benchmarks is None else set(benchmarks)
        keep_v = None if versions is None else set(versions)
        keep_p = None if precisions is None else set(precisions)
        kept = {
            key: run
            for key, run in self.results.items()
            if (keep_b is None or key[0] in keep_b)
            and (keep_v is None or key[1] in keep_v)
            and (keep_p is None or key[2] in keep_p)
        }
        return ResultSet(results=kept, fingerprint=self.fingerprint)

    # ------------------------------------------------------------------
    def ratios(
        self, benchmark: str, version: Version, precision: Precision
    ) -> tuple[float, float, float] | None:
        """(speedup, power ratio, energy ratio) vs Serial, or None if the
        run failed (e.g. the DP amcd compile failure) or the Serial
        baseline is absent (e.g. dropped by :meth:`filter`)."""
        run = self.get(benchmark, version, precision)
        base = self.results.get((benchmark, Version.SERIAL, precision))
        if base is None or not run.ok:
            return None
        return run.relative_to(base)

    def all_verified(self) -> bool:
        return all(r.verified for r in self.results.values() if r.ok)

    # ------------------------------------------------------------------
    # serialization (campaign archiving / cross-run comparison)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialize the campaign to JSON (options as describe() strings)."""
        payload = [
            run_to_row(run)
            for _, run in sorted(
                self.results.items(),
                key=lambda kv: (
                    kv[0][0],
                    kv[0][1].value,
                    kv[0][2].value,
                    # fixed-frequency rows sort first under their
                    # historic 3-field key; governed rows follow
                    kv[0][3] if len(kv[0]) > 3 else "",
                ),
            )
        ]
        return json.dumps(
            {"schema": RESULTSET_SCHEMA, "fingerprint": self.fingerprint, "runs": payload},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        """Load a campaign saved by :meth:`to_json` (schema 1 or 2)."""
        data = json.loads(text)
        if data.get("schema") not in ACCEPTED_SCHEMAS:
            raise ValueError(f"unknown ResultSet schema {data.get('schema')!r}")
        out = cls(fingerprint=data.get("fingerprint"))
        for row in data["runs"]:
            out.add(run_from_row(row))
        return out


def run_grid(
    benchmarks: Iterable[str] = PAPER_ORDER,
    *,
    versions: Iterable[Version] = tuple(Version),
    precisions: Iterable[Precision] = (Precision.SINGLE,),
    scale: float = 1.0,
    seed: int = 1234,
    platform: ExynosPlatform | None = None,
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
    trace=None,
    retries: int = 2,
    retry_backoff_s: float = 0.0,
    journal_dir: str | None = None,
    cell_timeout_s: float | None = None,
    deadline_s: float | None = None,
    governors: Iterable[str] | None = None,
    energy_deadline_s: float | None = None,
    workers: Iterable[str] | None = None,
) -> ResultSet:
    """Run the full campaign and collect results.

    Compatibility shim over :class:`~repro.experiments.engine.Campaign`:
    builds a :class:`~repro.experiments.engine.CampaignSpec` from the
    arguments and executes it.  ``scale`` shrinks every problem size
    proportionally (the shape of the results is scale-robust above the
    overhead floor; the default tests run at reduced scale for speed).
    ``jobs`` parallelizes across processes, ``cache_dir`` enables the
    content-addressed run cache, ``trace`` accepts a
    :class:`~repro.experiments.trace.TraceSink` or JSONL path, and
    ``retries`` / ``retry_backoff_s`` bound the engine's worker-death
    recovery (see :class:`~repro.experiments.engine.Campaign`).
    ``journal_dir`` attaches the durable checkpoint journal (a killed
    campaign resumes via ``Campaign.resume`` / ``repro resume``);
    ``cell_timeout_s`` / ``deadline_s`` arm the deadline watchdog.
    ``workers`` distributes execution across remote ``repro worker``
    processes (``("host:port", ...)``); results stay byte-identical to
    local runs and losing every worker degrades back to local
    execution.
    """
    from .engine import Campaign, CampaignSpec  # deferred: engine imports us

    extra = {} if governors is None else {"governors": tuple(governors)}
    spec = CampaignSpec(
        benchmarks=tuple(benchmarks),
        versions=tuple(versions),
        precisions=tuple(precisions),
        scale=scale,
        seed=seed,
        platform=platform,
        energy_deadline_s=energy_deadline_s,
        **extra,
    )
    campaign = Campaign(
        spec,
        cache_dir=cache_dir,
        trace=trace,
        progress=progress,
        retries=retries,
        retry_backoff_s=retry_backoff_s,
        cell_timeout_s=cell_timeout_s,
        deadline_s=deadline_s,
        workers=tuple(workers) if workers is not None else None,
    )
    return campaign.run(jobs=jobs, journal_dir=journal_dir)
