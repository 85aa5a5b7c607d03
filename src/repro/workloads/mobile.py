"""Synthetic mobile workload generator.

Drives both simulation fidelities from one stochastic model: per-day
volumes are sampled per app (log-normal day-to-day jitter around the
profile means), media files are write-once/read-many, app data churns in
place, and a steady trickle of deletions keeps utilization roughly
stationary once the device fills to its working set.

Calibration target (§2.3.2 / Zhang et al.): a *typical* mix writes
~2-3 GB/day; against a 64 GB TLC device over a 2-year warranty this
consumes a low-single-digit percentage of rated endurance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.host.files import FileKind, MEDIA_KINDS

from .apps import APP_PROFILES, USER_MIXES, AppProfile
from .traces import DailySummary, OpKind, TraceOp

__all__ = ["WorkloadConfig", "MobileWorkload", "stacked_write_volumes"]


@dataclass(frozen=True, slots=True)
class WorkloadConfig:
    """Workload generation parameters.

    Attributes
    ----------
    mix:
        Key into :data:`~repro.workloads.apps.USER_MIXES`.
    days:
        Simulated span.
    daily_jitter_sigma:
        Log-normal sigma for day-to-day volume variation.
    delete_fraction:
        Fraction of the day's new bytes eventually matched by deletions
        (steady-state churn).
    cloud_backup_probability:
        Probability a new media file has a cloud copy (§4.3 notes many
        users back up media).
    seed:
        RNG seed.
    """

    mix: str = "typical"
    days: int = 730
    daily_jitter_sigma: float = 0.35
    delete_fraction: float = 0.5
    cloud_backup_probability: float = 0.6
    seed: int = 0


class MobileWorkload:
    """Generates daily summaries and (optionally) op-level traces."""

    def __init__(self, config: WorkloadConfig | None = None) -> None:
        self.config = config or WorkloadConfig()
        if self.config.mix not in USER_MIXES:
            raise ValueError(f"unknown user mix {self.config.mix!r}")
        self._rng = np.random.default_rng(self.config.seed)
        self._mix = USER_MIXES[self.config.mix]

    # -- epoch-level ---------------------------------------------------------

    def daily_summaries(self) -> list[DailySummary]:
        """Per-day aggregate volumes over the configured span."""
        out = []
        for day in range(self.config.days):
            media = other = overwrite = read = 0.0
            for app_name, factor in self._mix.items():
                profile = APP_PROFILES[app_name]
                vol_mb = self._day_volume_mb(profile, factor)
                ow = vol_mb * profile.overwrite_fraction
                fresh = vol_mb - ow
                media += fresh * profile.media_fraction
                other += fresh * (1.0 - profile.media_fraction)
                overwrite += ow
                read += self._day_read_mb(profile, factor)
            delete = (media + other) * self.config.delete_fraction
            out.append(
                DailySummary(
                    day=day,
                    new_media_gb=media / 1024.0,
                    new_other_gb=other / 1024.0,
                    overwrite_gb=overwrite / 1024.0,
                    read_gb=read / 1024.0,
                    delete_gb=delete / 1024.0,
                )
            )
        return out

    def daily_volume_arrays(self) -> dict[str, np.ndarray]:
        """Vectorized :meth:`daily_summaries`: one array per volume field.

        Returns ``{"day", "new_media_gb", "new_other_gb", "overwrite_gb",
        "read_gb", "delete_gb"}``, each of shape ``(days,)``, bit-identical
        to the scalar generator's per-day values.  Identity holds because
        ``Generator.lognormal(size=k)`` consumes the bit stream exactly
        like ``k`` scalar draws, the scalar loop draws per (day, app) in
        (write, read) order -- the C-order ravel of a ``(days, apps, 2)``
        block -- and the per-app accumulation below preserves the scalar
        loop's addition order elementwise.

        Consumes the same RNG state as :meth:`daily_summaries`; use a
        fresh workload instance per call.
        """
        days = self.config.days
        apps = list(self._mix.items())
        jitter = self._rng.lognormal(0.0, self.config.daily_jitter_sigma,
                                     size=(days, len(apps), 2))
        volumes = _write_volumes_gb(
            apps, jitter[:, :, 0].T, self.config.delete_fraction
        )
        read = np.zeros(days)
        for j, (app_name, factor) in enumerate(apps):
            read += APP_PROFILES[app_name].read_mb_per_day * factor * jitter[:, j, 1]
        return {"day": np.arange(days, dtype=np.int64), **volumes,
                "read_gb": read / 1024.0}

    def _day_volume_mb(self, profile: AppProfile, factor: float) -> float:
        jitter = self._rng.lognormal(0.0, self.config.daily_jitter_sigma)
        return profile.write_mb_per_day * factor * jitter

    def _day_read_mb(self, profile: AppProfile, factor: float) -> float:
        jitter = self._rng.lognormal(0.0, self.config.daily_jitter_sigma)
        return profile.read_mb_per_day * factor * jitter

    # -- op-level ----------------------------------------------------------------

    def ops(
        self,
        scale_bytes: float = 1.0,
        files_per_day: int = 6,
        delete_rate: float = 0.002,
    ) -> list[TraceOp]:
        """Expand the workload into replayable operations.

        Parameters
        ----------
        scale_bytes:
            Multiplier on file sizes (use << 1 to drive the bit-exact
            small-geometry device).
        files_per_day:
            New files created per day (sizes apportioned from the day's
            volumes).
        delete_rate:
            Fraction of live files deleted per day (oldest first); raise
            it when replaying against small devices so the working set
            stays stationary.
        """
        ops: list[TraceOp] = []
        live_paths: list[tuple[str, FileKind, int]] = []
        counter = 0
        for summary in self.daily_summaries():
            day = summary.day
            new_gb = summary.new_media_gb + summary.new_other_gb
            media_share = summary.new_media_gb / new_gb if new_gb else 0.0
            for _ in range(files_per_day):
                counter += 1
                is_media = self._rng.random() < media_share
                kind = self._pick_kind(is_media)
                size = max(
                    256,
                    int(new_gb * 1e9 / files_per_day * scale_bytes),
                )
                path = f"/user/{kind.value}/{counter:07d}"
                ops.append(
                    TraceOp(
                        day=day,
                        kind=OpKind.CREATE,
                        path=path,
                        file_kind=kind,
                        size_bytes=size,
                        cloud_backed=is_media
                        and self._rng.random() < self.config.cloud_backup_probability,
                    )
                )
                live_paths.append((path, kind, size))
            # overwrites hit app metadata in place
            if summary.overwrite_gb > 0:
                ops.append(
                    TraceOp(
                        day=day,
                        kind=OpKind.OVERWRITE,
                        path="/user/app_metadata/churn",
                        file_kind=FileKind.APP_METADATA,
                        size_bytes=max(256, int(summary.overwrite_gb * 1e9 * scale_bytes)),
                    )
                )
            # reads spread over live files
            if live_paths:
                idx = int(self._rng.integers(0, len(live_paths)))
                path, kind, size = live_paths[idx]
                ops.append(
                    TraceOp(day=day, kind=OpKind.READ, path=path, file_kind=kind, size_bytes=size)
                )
            # deletions: drop oldest files to approximate churn
            ndelete = int(len(live_paths) * delete_rate)
            for _ in range(ndelete):
                path, kind, size = live_paths.pop(0)
                ops.append(
                    TraceOp(day=day, kind=OpKind.DELETE, path=path, file_kind=kind, size_bytes=size)
                )
        return ops

    def _pick_kind(self, is_media: bool) -> FileKind:
        if is_media:
            kinds = [FileKind.PHOTO, FileKind.VIDEO, FileKind.AUDIO, FileKind.MESSAGE_MEDIA]
            weights = np.array([0.45, 0.2, 0.1, 0.25])
        else:
            kinds = [FileKind.DOCUMENT, FileKind.DOWNLOAD, FileKind.APP_METADATA]
            weights = np.array([0.3, 0.3, 0.4])
        return kinds[self._rng.choice(len(kinds), p=weights / weights.sum())]


def _write_volumes_gb(
    apps: list[tuple[str, float]], write_jitter: np.ndarray, delete_fraction
) -> dict[str, np.ndarray]:
    """Daily write volumes from per-app write jitter ``write_jitter[j]``
    (any shape ending in days), accumulated in the scalar loop's per-app
    order so every lane is bit-identical to :meth:`daily_summaries`."""
    media = np.zeros(write_jitter.shape[1:])
    other = np.zeros_like(media)
    overwrite = np.zeros_like(media)
    for j, (app_name, factor) in enumerate(apps):
        profile = APP_PROFILES[app_name]
        vol_mb = profile.write_mb_per_day * factor * write_jitter[j]
        ow = vol_mb * profile.overwrite_fraction
        fresh = vol_mb - ow
        media += fresh * profile.media_fraction
        other += fresh * (1.0 - profile.media_fraction)
        overwrite += ow
    delete = (media + other) * delete_fraction
    return {
        "new_media_gb": media / 1024.0,
        "new_other_gb": other / 1024.0,
        "overwrite_gb": overwrite / 1024.0,
        "delete_gb": delete / 1024.0,
    }


def stacked_write_volumes(configs: list[WorkloadConfig]) -> dict[str, np.ndarray]:
    """Write volumes of many workloads sharing ``days``, stacked on a
    device axis: ``"day"`` ``(days,)`` plus the four volume fields of
    ``(len(configs), days)``, row ``i`` bit-identical to
    ``MobileWorkload(configs[i]).daily_volume_arrays()``.  Each device
    keeps its own generator and exact ``(days, apps, 2)`` draw (only the
    write half is kept); the per-app accumulation runs once per mix
    across that mix's devices instead of once per device.
    """
    if not configs:
        raise ValueError("at least one workload config required")
    days = configs[0].days
    if any(config.days != days for config in configs):
        raise ValueError("all workloads must share the same day count")
    out = {
        name: np.empty((len(configs), days))
        for name in ("new_media_gb", "new_other_gb", "overwrite_gb", "delete_gb")
    }
    by_mix: dict[str, list[int]] = {}
    for i, config in enumerate(configs):
        if config.mix not in USER_MIXES:
            raise ValueError(f"unknown user mix {config.mix!r}")
        by_mix.setdefault(config.mix, []).append(i)
    for mix, rows in by_mix.items():
        apps = list(USER_MIXES[mix].items())
        write_jitter = np.empty((len(apps), len(rows), days))
        for k, i in enumerate(rows):
            draw = np.random.default_rng(configs[i].seed).lognormal(
                0.0, configs[i].daily_jitter_sigma, size=(days, len(apps), 2)
            )
            write_jitter[:, k, :] = draw[:, :, 0].T
        delete_fraction = np.array(
            [configs[i].delete_fraction for i in rows]
        )[:, None]
        for name, values in _write_volumes_gb(apps, write_jitter, delete_fraction).items():
            out[name][rows] = values
    return {"day": np.arange(days, dtype=np.int64), **out}
