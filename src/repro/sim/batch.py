"""Batched fleet engine: whole device populations in one vectorized pass.

The population experiments (E14 fleet replacement, E16 200-user wear,
the A6 sensitivity grids) need *many* epoch-model devices, each cheap on
its own: the per-device cost of :func:`repro.sim.engine.run_lifetime` is
dominated by interpreter overhead in the daily loop, not by arithmetic.
This module stacks N devices into one struct-of-arrays state -- every
per-group array of :class:`repro.sim.lifetime.Partition` gains a leading
device axis, shape ``(n_devices, n_groups)`` -- and steps the whole
population through each simulated day as array operations over the
device axis: write routing, wear accrual, scrub/refresh, the
retire/resuscitate ladder, delete apportionment, and sampling.

Equivalence contract with the scalar engine (pinned by tier-1 tests):

* integer outputs (retired/resuscitated/refresh counts, fault counters,
  sampled days) are **exactly** equal;
* float outputs match within tight relative tolerance.  Elementwise
  state updates replicate the scalar code's operation order, so fleets
  whose groups all stay alive and data-holding (the wear-leveled
  baselines without faults) are bit-identical end to end; once groups
  retire, masked reductions group additions differently than the scalar
  engine's compacted reductions and agreement is ~1e-12 relative.

Devices in one batch share one build's partition specs and are built
straight from them (:meth:`BatchLifetimeDevice.from_build`); only the
write-amplification factor ``waf`` may vary per device, which is what
the A6 sensitivity grid sweeps.  Heterogeneous populations batch per
homogeneous sub-population (see ``runner.points``).

Observability: one batched pass charges N logical span calls
(``obs.span(name, calls=N)``) and bumps shared counters by N, so
metric snapshots from a batched run merge/compare 1:1 against N scalar
runs (modulo wall times and float histogram totals).  Trace events gain
a ``device`` index field and are grouped by day rather than by device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.faults.plan import FaultPlan, FaultSummary
from repro.flash.cell import CellMode
from repro.flash.error_model import cached_error_model
from repro.flash.reliability import endurance_pec
from repro.obs import get_observer
from repro.workloads.traces import DailySummary

from .baselines import DeviceBuild
from .engine import DaySample, LifetimeResult, SimConfig
from .lifetime import (
    HOT_GROUP_FRACTION,
    WL_WRITE_OVERHEAD,
    Partition,
    PartitionSpec,
)

__all__ = [
    "BatchLifetimeDevice",
    "BatchPartition",
    "SummaryBatch",
    "run_lifetime_batch",
]


@dataclass(slots=True)
class SummaryBatch:
    """Per-device daily volumes as ``(n_devices, n_days)`` arrays.

    All devices must share the same ``day`` sequence (they are stepped in
    lockstep).  ``read_gb`` is omitted: the epoch engine never consumes
    it.
    """

    day: np.ndarray  # (n_days,)
    new_media_gb: np.ndarray  # (n_devices, n_days)
    new_other_gb: np.ndarray
    overwrite_gb: np.ndarray
    delete_gb: np.ndarray

    @property
    def n_devices(self) -> int:
        return int(self.new_media_gb.shape[0])

    @property
    def n_days(self) -> int:
        return int(self.day.shape[0])

    @classmethod
    def from_summaries(
        cls, per_device: Sequence[Sequence[DailySummary]]
    ) -> "SummaryBatch":
        """Stack per-device :class:`DailySummary` lists."""
        if not per_device:
            raise ValueError("at least one device's summaries required")
        day = np.array([s.day for s in per_device[0]], dtype=np.int64)
        for series in per_device[1:]:
            if [s.day for s in series] != day.tolist():
                raise ValueError("all devices must share the same day sequence")
        def field(name: str) -> np.ndarray:
            return np.array(
                [[getattr(s, name) for s in series] for series in per_device],
                dtype=float,
            )
        return cls(
            day=day,
            new_media_gb=field("new_media_gb"),
            new_other_gb=field("new_other_gb"),
            overwrite_gb=field("overwrite_gb"),
            delete_gb=field("delete_gb"),
        )


class BatchPartition:
    """N stacked copies of one :class:`Partition`, stepped together.

    State arrays mirror the scalar partition's SoA fields with a leading
    device axis; per-group operating modes are tracked as indexes into a
    fixed *mode ladder* (``[spec.mode] + resuscitation candidates``), so
    heterogeneous post-resuscitation populations stay vectorizable.
    """

    def __init__(
        self,
        spec: PartitionSpec,
        n_devices: int,
        waf: np.ndarray | None = None,
    ) -> None:
        if n_devices <= 0:
            raise ValueError("n_devices must be positive")
        self.spec = spec
        self.n_devices = n_devices
        g = spec.n_groups
        per_group = spec.capacity_gb / g
        # float state stays float64 (the scalar-equivalence contract is
        # bit-level); the integer lanes are tightened -- refresh counts
        # fit int32 and mode indexes fit int8 -- so a shard's per-lane
        # footprint is dominated by the five float64 arrays
        self._capacity = np.full((n_devices, g), per_group, dtype=float)
        self._pec = np.zeros((n_devices, g), dtype=float)
        self._write_time = np.zeros((n_devices, g), dtype=float)
        self._live = np.zeros((n_devices, g), dtype=float)
        self._retired = np.zeros((n_devices, g), dtype=bool)
        self._refreshes = np.zeros((n_devices, g), dtype=np.int32)
        ladder = [spec.mode]
        for bits in spec.resuscitation_bits:
            if bits >= spec.mode.operating_bits:
                continue  # scalar engine skips these for every group
            if any(m.operating_bits == bits for m in ladder):
                continue
            ladder.append(CellMode(spec.mode.technology, bits))
        self._mode_ladder: list[CellMode] = ladder
        self._ladder_bits = np.array(
            [m.operating_bits for m in ladder], dtype=np.int64
        )
        self._mode_idx = np.zeros((n_devices, g), dtype=np.int8)
        #: False while every group still runs spec.mode (fast RBER path)
        self._heterogeneous = False
        self._cold_cursor = np.zeros(n_devices, dtype=np.int64)
        self.refresh_writes_gb = np.zeros(n_devices, dtype=float)
        self.retired_count = np.zeros(n_devices, dtype=np.int64)
        self.resuscitated_count = np.zeros(n_devices, dtype=np.int64)
        if waf is None:
            self._waf = np.full(n_devices, spec.waf, dtype=float)
        else:
            self._waf = np.asarray(waf, dtype=float).copy()
            if self._waf.shape != (n_devices,):
                raise ValueError("waf must have shape (n_devices,)")

    def _mode_idx_from_bits(self, mode_bits: np.ndarray) -> np.ndarray:
        """Map per-group operating bits onto mode-ladder indexes."""
        lut = np.full(int(self._ladder_bits.max()) + 1, -1, dtype=np.int8)
        lut[self._ladder_bits] = np.arange(
            len(self._mode_ladder), dtype=np.int8
        )
        if mode_bits.max() >= lut.size or (lut[mode_bits] < 0).any():
            raise ValueError(
                "partition group mode outside the spec's resuscitation ladder"
            )
        return lut[mode_bits]

    # -- shard-local state export -------------------------------------------------

    def export_state(self) -> dict[str, np.ndarray]:
        """Whole-shard state as one dict of stacked arrays.

        The vectorized analogue of per-device
        :meth:`~repro.sim.lifetime.Partition.export_group_state`: every
        array keeps its leading device axis, so a shard checkpoints (and
        a fleet coordinator persists) N devices in one O(arrays) copy
        instead of N python-level exports.  Round-trips exactly through
        :meth:`import_state`.
        """
        return {
            "capacity_gb": self._capacity.copy(),
            "pec": self._pec.copy(),
            "write_time": self._write_time.copy(),
            "live_gb": self._live.copy(),
            "retired": self._retired.copy(),
            "refreshes": self._refreshes.copy(),
            "mode_bits": self._ladder_bits[self._mode_idx],
            "cold_cursor": self._cold_cursor.copy(),
            "refresh_writes_gb": self.refresh_writes_gb.copy(),
            "retired_count": self.retired_count.copy(),
            "resuscitated_count": self.resuscitated_count.copy(),
            "waf": self._waf.copy(),
        }

    def import_state(self, state: dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`export_state` (shapes must match the shard)."""
        shape = (self.n_devices, self.spec.n_groups)
        for name in ("capacity_gb", "pec", "write_time", "live_gb",
                     "retired", "refreshes", "mode_bits"):
            if np.shape(state[name]) != shape:
                raise ValueError(
                    f"state field {name!r} has shape {np.shape(state[name])}, "
                    f"expected {shape}"
                )
        for name in ("cold_cursor", "refresh_writes_gb", "retired_count",
                     "resuscitated_count", "waf"):
            if np.shape(state[name]) != (self.n_devices,):
                raise ValueError(
                    f"state field {name!r} has shape {np.shape(state[name])}, "
                    f"expected ({self.n_devices},)"
                )
        self._capacity = np.asarray(state["capacity_gb"], dtype=float).copy()
        self._pec = np.asarray(state["pec"], dtype=float).copy()
        self._write_time = np.asarray(state["write_time"], dtype=float).copy()
        self._live = np.asarray(state["live_gb"], dtype=float).copy()
        self._retired = np.asarray(state["retired"], dtype=bool).copy()
        self._refreshes = np.asarray(state["refreshes"], dtype=np.int32).copy()
        self._mode_idx = self._mode_idx_from_bits(
            np.asarray(state["mode_bits"], dtype=np.int64)
        )
        self._heterogeneous = bool((self._mode_idx != 0).any())
        self._cold_cursor = np.asarray(
            state["cold_cursor"], dtype=np.int64
        ).copy()
        self.refresh_writes_gb = np.asarray(
            state["refresh_writes_gb"], dtype=float
        ).copy()
        self.retired_count = np.asarray(
            state["retired_count"], dtype=np.int64
        ).copy()
        self.resuscitated_count = np.asarray(
            state["resuscitated_count"], dtype=np.int64
        ).copy()
        self._waf = np.asarray(state["waf"], dtype=float).copy()

    # -- scalar interop ---------------------------------------------------------

    def scatter_to(self, partitions: Sequence[Partition]) -> None:
        """Write per-device slices back into scalar partitions (the hook
        the scalar-equivalence tests compare end states through)."""
        if len(partitions) != self.n_devices:
            raise ValueError("partition count must match n_devices")
        for d, part in enumerate(partitions):
            part.import_group_state(
                {
                    "capacity_gb": self._capacity[d],
                    "pec": self._pec[d],
                    "write_time": self._write_time[d],
                    "live_gb": self._live[d],
                    "retired": self._retired[d],
                    "refreshes": self._refreshes[d],
                    "mode_bits": self._ladder_bits[self._mode_idx[d]],
                }
            )
            part._cold_cursor = int(self._cold_cursor[d])
            part.refresh_writes_gb = float(self.refresh_writes_gb[d])
            part.retired_count = int(self.retired_count[d])
            part.resuscitated_count = int(self.resuscitated_count[d])

    # -- per-device aggregates --------------------------------------------------

    def capacity_gb(self) -> np.ndarray:
        """Usable capacity per device, ``(n_devices,)``."""
        return np.where(~self._retired, self._capacity, 0.0).sum(axis=1)

    def live_data_gb(self) -> np.ndarray:
        """Live data per device, ``(n_devices,)``."""
        return np.where(~self._retired, self._live, 0.0).sum(axis=1)

    def mean_pec(self) -> np.ndarray:
        """Capacity-weighted mean PEC over live groups, per device."""
        alive = ~self._retired
        cap = np.where(alive, self._capacity, 0.0)
        total = cap.sum(axis=1)
        weighted = (np.where(alive, self._pec, 0.0) * cap).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = weighted / total
        return np.where(total == 0.0, 0.0, out)

    def wear_used_fraction(self) -> np.ndarray:
        """Mean PEC over rated endurance of the operating mode."""
        return self.mean_pec() / endurance_pec(self.spec.mode)

    def mean_quality(self, now: float) -> np.ndarray:
        """Data-weighted post-protection quality proxy, per device."""
        holders = ~self._retired & (self._live > 0.0)
        residual = self.spec.protection.residual_ber_many(self._rber(now))
        quality = np.exp(-self.spec.quality_sensitivity * residual)
        live = np.where(holders, self._live, 0.0)
        total = live.sum(axis=1)
        weighted = (quality * live).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = weighted / total
        return np.where(total > 0.0, out, 1.0)

    def expected_uncorrectable(
        self, now: float, page_bits: int = 4096 * 8
    ) -> np.ndarray:
        """Expected uncorrectable-page events across live data, per device."""
        holders = ~self._retired & (self._live > 0.0)
        pages = np.where(holders, self._live, 0.0) * 1e9 * 8 / page_bits
        p_fail = self.spec.protection.page_failure_prob_many(
            self._rber(now), page_bits
        )
        return (pages * p_fail).sum(axis=1)

    # -- writes -----------------------------------------------------------------

    def _absorb(
        self, mask: np.ndarray, gb: np.ndarray, now: float, waf: np.ndarray
    ) -> None:
        """Account per-group host+amplified writes where ``mask``.

        ``gb`` broadcasts to ``(n_devices, n_groups)``; lanes outside
        ``mask`` keep their state (their junk arithmetic -- 0/0 on empty
        groups -- is discarded by the ``where`` writes).
        """
        cap = self._capacity
        with np.errstate(divide="ignore", invalid="ignore"):
            inc = gb * waf / cap
            new_live = np.minimum(cap, self._live + gb)
            old_weight = np.maximum(0.0, new_live - gb) / new_live
            blended = old_weight * self._write_time + (1.0 - old_weight) * now
        self._pec = np.where(mask, self._pec + inc, self._pec)
        self._write_time = np.where(mask, blended, self._write_time)
        self._live = np.where(mask, new_live, self._live)

    def host_write(self, gb: np.ndarray, now: float, churn: bool) -> None:
        """Apply per-device host writes (vectorized ``Partition.host_write``)."""
        gb = np.asarray(gb, dtype=float)
        alive = ~self._retired
        live_count = alive.sum(axis=1)
        active = (gb > 0.0) & (live_count > 0)
        if not active.any():
            return
        waf = self._waf[:, None]
        denom = np.maximum(live_count, 1)
        if self.spec.wear_leveling:
            waf = waf * (1.0 + WL_WRITE_OVERHEAD)
            share = (gb / denom)[:, None]
            self._absorb(alive & active[:, None], share, now, waf)
            return
        if churn:
            hot_count = np.maximum(
                1, (live_count * HOT_GROUP_FRACTION).astype(np.int64)
            )
            # rank live groups by descending PEC, stable on index; retired
            # lanes sort last behind +inf keys
            key = np.where(alive, -self._pec, np.inf)
            order = np.argsort(key, axis=1, kind="stable")
            rank = np.empty_like(order)
            np.put_along_axis(
                rank,
                order,
                np.broadcast_to(np.arange(self.spec.n_groups), order.shape),
                axis=1,
            )
            hot = alive & (rank < hot_count[:, None])
            share = (gb / hot_count)[:, None]
            self._absorb(hot & active[:, None], share, now, waf)
        else:
            # append round-robin to the k-th live group per device: the
            # first column where the running count of live groups hits k+1
            k = self._cold_cursor % denom
            csum = np.cumsum(alive, axis=1)
            target = np.argmax(csum == (k + 1)[:, None], axis=1)
            mask = np.zeros_like(alive)
            devices = np.flatnonzero(active)
            mask[devices, target[devices]] = True
            self._absorb(mask, gb[:, None], now, waf)
            self._cold_cursor[devices] += 1

    def host_delete(self, gb: np.ndarray) -> None:
        """Remove per-device live data proportionally over groups."""
        gb = np.asarray(gb, dtype=float)
        total = self.live_data_gb()
        active = (total > 0.0) & (gb > 0.0)
        if not active.any():
            return
        with np.errstate(divide="ignore", invalid="ignore"):
            fraction = np.minimum(1.0, gb / total)
        factor = np.where(active, 1.0 - fraction, 1.0)
        self._live = np.where(
            ~self._retired, self._live * factor[:, None], self._live
        )

    # -- quality / reliability --------------------------------------------------

    def _rber(
        self, now: float, extra_age: float = 0.0, from_data_age: bool = True
    ) -> np.ndarray:
        """RBER for every (device, group) lane, batched per operating mode."""
        if from_data_age:
            ages = np.where(
                self._live > 0.0,
                np.maximum(0.0, now - self._write_time),
                0.0,
            ) + extra_age
        else:
            ages = np.full(self._pec.shape, extra_age)
        if not self._heterogeneous:
            return cached_error_model(self.spec.mode).rber_many(self._pec, ages)
        out = np.empty_like(self._pec)
        for idx, mode in enumerate(self._mode_ladder):
            sel = self._mode_idx == idx
            if sel.any():
                out[sel] = cached_error_model(mode).rber_many(
                    self._pec[sel], ages[sel]
                )
        return out

    # -- fault injection --------------------------------------------------------

    def retire_group(self, device: int, index: int) -> bool:
        """Force-retire one group of one device (infant mortality)."""
        if self._retired[device, index]:
            return False
        self._retired[device, index] = True
        self._live[device, index] = 0.0
        self.retired_count[device] += 1
        return True

    def power_loss_rewrite(self, device: int, index: int, now: float) -> float:
        """Recover a torn program on one group of one device."""
        if self._retired[device, index] or self._capacity[device, index] <= 0:
            return 0.0
        gb = min(
            float(self._live[device, index]),
            float(self._capacity[device, index]) * 0.05,
        )
        if gb <= 0.0:
            return 0.0
        self._pec[device, index] += (
            gb * self._waf[device] / self._capacity[device, index]
        )
        self.refresh_writes_gb[device] += gb
        return gb

    # -- maintenance ------------------------------------------------------------

    def maintain(self, now: float, scrub_allowed: np.ndarray) -> None:
        """Scrub then health-check the whole population for one day."""
        with get_observer().span("lifetime.maintain", calls=self.n_devices):
            if self.spec.scrub_enabled:
                self._scrub(now, scrub_allowed)
            self._health_check(now)

    def _scrub(self, now: float, allowed: np.ndarray) -> None:
        holders = ~self._retired & (self._live > 0.0) & allowed[:, None]
        if not holders.any():
            return
        look_ahead = self._rber(now, extra_age=self.spec.health_horizon_years)
        residual = self.spec.protection.residual_ber_many(look_ahead)
        quality = np.exp(-self.spec.quality_sensitivity * residual)
        refresh = holders & (quality < self.spec.scrub_quality_floor)
        if not refresh.any():
            return
        live = np.where(refresh, self._live, 0.0)
        gb = live.sum(axis=1)
        self.refresh_writes_gb += gb
        with np.errstate(divide="ignore", invalid="ignore"):
            inc = live * self._waf[:, None] / self._capacity
        self._pec = np.where(refresh, self._pec + inc, self._pec)
        self._write_time = np.where(refresh, now, self._write_time)
        self._refreshes += refresh
        obs = get_observer()
        if obs.enabled:
            groups = refresh.sum(axis=1)
            for d in np.flatnonzero(groups):
                obs.event(
                    "scrub_refresh", t=now, partition=self.spec.name,
                    device=int(d), groups=int(groups[d]), gb=float(gb[d]),
                )

    def _health_check(self, now: float) -> None:
        alive = ~self._retired
        if not alive.any():
            return
        horizon = self.spec.health_horizon_years
        predicted = self._rber(now, extra_age=horizon, from_data_age=False)
        failing = alive & (predicted > self.spec.max_rber)
        if not failing.any():
            return
        obs = get_observer()
        current_bits = self._ladder_bits[self._mode_idx]
        remaining = failing.copy()
        for cand_idx in range(1, len(self._mode_ladder)):
            cand_mode = self._mode_ladder[cand_idx]
            cand_bits = int(self._ladder_bits[cand_idx])
            eligible = remaining & (current_bits > cand_bits)
            if not eligible.any():
                continue
            cand_rber = cached_error_model(cand_mode).rber_many(
                self._pec, np.full(self._pec.shape, horizon)
            )
            ok = eligible & (cand_rber <= self.spec.max_rber)
            if not ok.any():
                continue
            # density drop: capacity shrinks proportionally; live data is
            # re-hosted (counted as refresh writes)
            ratio = cand_bits / current_bits
            self.refresh_writes_gb += np.where(ok, self._live, 0.0).sum(axis=1)
            self._capacity = np.where(ok, self._capacity * ratio, self._capacity)
            self._live = np.where(
                ok, np.minimum(self._live, self._capacity), self._live
            )
            self._mode_idx = np.where(ok, np.int8(cand_idx), self._mode_idx)
            self._write_time = np.where(ok, now, self._write_time)
            self.resuscitated_count += ok.sum(axis=1)
            self._heterogeneous = True
            if obs.enabled:
                for d, g in zip(*np.nonzero(ok)):
                    obs.event(
                        "block_resuscitated", t=now, partition=self.spec.name,
                        device=int(d), group=int(g), bits=cand_bits,
                    )
            remaining &= ~ok
        if remaining.any():
            self._retired |= remaining
            self._live = np.where(remaining, 0.0, self._live)
            self.retired_count += remaining.sum(axis=1)
            if obs.enabled:
                for d, g in zip(*np.nonzero(remaining)):
                    obs.event(
                        "block_retired", t=now, partition=self.spec.name,
                        device=int(d), group=int(g), reason="wear",
                    )


class BatchLifetimeDevice:
    """N devices of identical topology stepped day by day in lockstep."""

    def __init__(self, partitions: dict[str, BatchPartition]) -> None:
        if not partitions:
            raise ValueError("at least one partition required")
        self.partitions = dict(partitions)
        self.n_devices = next(iter(self.partitions.values())).n_devices
        for p in self.partitions.values():
            if p.n_devices != self.n_devices:
                raise ValueError("all partitions must batch the same devices")
        self.now_years = 0.0

    @classmethod
    def from_build(
        cls, build: DeviceBuild, n_devices: int, waf: np.ndarray | None = None
    ) -> "BatchLifetimeDevice":
        """``n_devices`` fresh copies of ``build``'s device, straight from
        its partition specs; ``waf`` (shape ``(n_devices,)``) overrides
        every partition's write amplification per device."""
        return cls(
            {
                name: BatchPartition(partition.spec, n_devices, waf)
                for name, partition in build.device.partitions.items()
            }
        )

    def capacity_gb(self) -> np.ndarray:
        """Total current usable capacity per device, ``(n_devices,)``."""
        total = np.zeros(self.n_devices)
        for p in self.partitions.values():
            total = total + p.capacity_gb()
        return total

    def export_state(self) -> dict:
        """Whole-fleet-shard checkpoint: clock plus every partition's arrays."""
        return {
            "now_years": self.now_years,
            "partitions": {
                name: p.export_state() for name, p in self.partitions.items()
            },
        }

    def import_state(self, state: dict) -> None:
        """Inverse of :meth:`export_state`; partition names must match."""
        if set(state["partitions"]) != set(self.partitions):
            raise ValueError(
                "state partitions do not match this batch's partitions"
            )
        for name, partition in self.partitions.items():
            partition.import_state(state["partitions"][name])
        self.now_years = float(state["now_years"])

    def step_day(
        self,
        writes: dict[str, tuple[np.ndarray, np.ndarray]],
        scrub_allowed: np.ndarray,
    ) -> None:
        """Advance all devices one day (vectorized ``LifetimeDevice.step_day``)."""
        dt = 1.0 / 365.0
        self.now_years += dt
        for name, (new_gb, churn_gb) in writes.items():
            partition = self.partitions[name]
            partition.host_write(new_gb, self.now_years, churn=False)
            partition.host_write(churn_gb, self.now_years, churn=True)
        for partition in self.partitions.values():
            partition.maintain(self.now_years, scrub_allowed)


def _apply_day_faults_batch(
    device: BatchLifetimeDevice,
    plan: FaultPlan,
    counters: FaultSummary,
    position: int,
    d: int,
) -> None:
    """Apply one device's scheduled faults for one day (scalar-sparse)."""
    obs = get_observer()
    now = device.now_years
    for target, unit in plan.infant_deaths(position):
        partition = device.partitions.get(target)
        if partition is not None and unit < partition.spec.n_groups:
            if partition.retire_group(d, unit):
                counters.infant_deaths += 1
                obs.event("block_retired", t=now, partition=target, device=d,
                          group=int(unit), reason="infant_mortality")
    for target, unit, attempts_needed in plan.transient_reads(position):
        if target not in device.partitions:
            continue
        counters.transient_reads += 1
        retries = min(attempts_needed - 1, plan.config.max_read_retries)
        counters.read_retry_attempts += retries
        if attempts_needed - 1 <= plan.config.max_read_retries:
            counters.reads_recovered += 1
            obs.event("transient_read", t=now, partition=target, device=d,
                      recovered=True, retries=int(retries))
        else:
            counters.reads_unrecovered += 1
            obs.event("transient_read", t=now, partition=target, device=d,
                      recovered=False, retries=int(retries))
    for target, unit in plan.torn_programs(position):
        partition = device.partitions.get(target)
        if partition is not None and unit < partition.spec.n_groups:
            rewritten = partition.power_loss_rewrite(d, unit, now)
            counters.torn_programs += 1
            counters.torn_rewrite_gb += rewritten
            obs.event("torn_program", t=now, partition=target, device=d,
                      group=int(unit), rewrite_gb=float(rewritten))


def run_lifetime_batch(
    build: DeviceBuild,
    device: BatchLifetimeDevice,
    summaries: SummaryBatch | Sequence[Sequence[DailySummary]],
    config: SimConfig | None = None,
    fault_plans: Sequence[FaultPlan | None] | None = None,
) -> list[LifetimeResult]:
    """Run ``device``'s N stacked copies of ``build`` through their daily
    workloads in one pass.

    The population analogue of :func:`repro.sim.engine.run_lifetime`:
    one :class:`LifetimeResult` per device, matching N scalar runs (see
    the module docstring for the equivalence contract).  ``device``
    (typically :meth:`BatchLifetimeDevice.from_build`) must have
    ``build``'s partitions; it is stepped in place, so the caller holds
    the end state.
    """
    config = config or SimConfig()
    if list(device.partitions) != list(build.device.partitions):
        raise ValueError("device partitions do not match the build's")
    if not isinstance(summaries, SummaryBatch):
        summaries = SummaryBatch.from_summaries(summaries)
    n = device.n_devices
    if summaries.n_devices != n:
        raise ValueError(
            f"{n} devices but volumes for {summaries.n_devices} devices"
        )
    plans: list[FaultPlan | None]
    if fault_plans is None:
        plans = [None] * n
    else:
        plans = list(fault_plans)
        if len(plans) != n:
            raise ValueError(f"{n} devices but {len(plans)} fault plans")
    results = [
        LifetimeResult(
            build_name=build.name,
            capacity_gb=build.capacity_gb,
            intensity_kg_per_gb=build.intensity_kg_per_gb,
            faults=FaultSummary() if plan is not None else None,
        )
        for plan in plans
    ]
    has_faults = any(plan is not None for plan in plans)
    single = "main" in device.partitions
    spare = device.partitions.get("spare")
    sys_part = device.partitions.get("sys") or device.partitions.get("main")
    assert sys_part is not None
    n_scrub_parts = sum(
        1 for p in device.partitions.values() if p.spec.scrub_enabled
    )
    n_days = summaries.n_days
    obs = get_observer()
    with obs.span("engine.run", calls=n):
        for position in range(n_days):
            media = summaries.new_media_gb[:, position]
            other = summaries.new_other_gb[:, position]
            overwrite = summaries.overwrite_gb[:, position]
            if single:
                writes = {"main": (media + other, overwrite)}
            else:
                demoted = media * config.media_demotion_rate
                kept = media - demoted
                sys_new = other + kept + demoted
                writes = {
                    "sys": (sys_new, overwrite),
                    "spare": (demoted, np.zeros_like(demoted)),
                }
            obs.count("engine.days", n)
            if obs.enabled:
                day_total = sum(new + churn for new, churn in writes.values())
                for value in day_total:
                    obs.observe("engine.day_write_gb", float(value))
            scrub_allowed = np.ones(n, dtype=bool)
            if has_faults:
                for d, plan in enumerate(plans):
                    if plan is not None and plan.in_cloud_outage(position):
                        counters = results[d].faults
                        assert counters is not None
                        counters.cloud_outage_days += 1
                        counters.scrubs_deferred += n_scrub_parts
                        scrub_allowed[d] = False
            device.step_day(writes, scrub_allowed)
            if has_faults:
                day_value = int(summaries.day[position])
                for d, plan in enumerate(plans):
                    if plan is None:
                        continue
                    if not scrub_allowed[d]:
                        obs.event("cloud_outage_day", t=device.now_years,
                                  day=day_value, device=d)
                    counters = results[d].faults
                    assert counters is not None
                    _apply_day_faults_batch(device, plan, counters, position, d)
            # deletions: apportion the day's volume across pressured
            # partitions by live-data share (same rule as the scalar engine)
            delete = summaries.delete_gb[:, position]
            pressured: dict[str, np.ndarray] = {}
            lives: dict[str, np.ndarray] = {}
            live_total = np.zeros(n)
            for name, partition in device.partitions.items():
                cap = partition.capacity_gb()
                live = partition.live_data_gb()
                with np.errstate(divide="ignore", invalid="ignore"):
                    utilization = live / cap
                utilization = np.where(cap > 0.0, utilization, 1.0)
                mask = utilization > 0.85
                pressured[name] = mask
                lives[name] = live
                live_total = live_total + np.where(mask, live, 0.0)
            apply_delete = live_total > 0.0
            for name, partition in device.partitions.items():
                mask = pressured[name] & apply_delete
                if not mask.any():
                    continue
                with np.errstate(divide="ignore", invalid="ignore"):
                    share = delete * lives[name] / live_total
                partition.host_delete(np.where(mask, share, 0.0))
            day_value = int(summaries.day[position])
            if day_value % config.sample_every_days == 0 or position == n_days - 1:
                now = device.now_years
                capacity = device.capacity_gb()
                sys_wear = sys_part.wear_used_fraction()
                spare_wear = (
                    spare.wear_used_fraction() if spare is not None else sys_wear
                )
                spare_quality = (
                    spare.mean_quality(now)
                    if spare is not None
                    else sys_part.mean_quality(now)
                )
                sys_unc = sys_part.expected_uncorrectable(now)
                retired = np.zeros(n, dtype=np.int64)
                resuscitated = np.zeros(n, dtype=np.int64)
                for partition in device.partitions.values():
                    retired = retired + partition.retired_count
                    resuscitated = resuscitated + partition.resuscitated_count
                for d in range(n):
                    results[d].samples.append(
                        DaySample(
                            day=day_value,
                            years=now,
                            capacity_gb=float(capacity[d]),
                            sys_wear_fraction=float(sys_wear[d]),
                            spare_wear_fraction=float(spare_wear[d]),
                            spare_quality=float(spare_quality[d]),
                            sys_uncorrectable=float(sys_unc[d]),
                            retired_groups=int(retired[d]),
                            resuscitated_groups=int(resuscitated[d]),
                        )
                    )
    return results
