"""The simulated node: cores + memory + power + thermal + RAPL + MSRs.

Execution model
---------------
The node uses a *fluid* model layered on the discrete-event engine.  Each
``BUSY`` core drains its current :class:`~repro.hw.core.Segment` (measured
in solo-seconds) at a rate determined by its duty cycle and the current
memory contention on its socket.  Rates are piecewise constant: they only
change when machine state changes (a segment is assigned or completes, a
core changes state, a duty cycle commits).  Every mutation therefore runs:

1. ``_sync()``   — integrate energy/thermal/counters over the interval
   since the last sync and drain in-flight segments at the cached rates;
2. the mutation itself, which marks the affected sockets dirty;
3. ``_recompute()`` — re-derive contention, per-core rates and socket
   power for the dirty sockets, and reschedule the next
   segment-completion event.

A segment-completion event is one batch: it retires every finished core,
runs their ``on_complete`` callbacks with step 3 held, and then
recomputes once.  Mutations the callbacks make at that instant run steps
1 and 2 only — ``_sync()`` is a no-op at ``dt = 0``, so no interval is
integrated at stale rates — and their dirty marks accumulate until the
single recompute re-derives each socket from its final state.  Queries
that need current rates (:meth:`Node.refresh`, :meth:`Node.power_w`,
:meth:`Node.total_power_w`, :meth:`Node.memory_state`) recompute first,
so a callback observes exactly the state an immediate recompute would
have left.

Because power is constant between syncs, energy integration is exact; the
thermal step uses the closed-form RC solution, also exact per interval.

The node knows nothing about tasks, threads or OpenMP — that is the
runtime's job (:mod:`repro.qthreads`).  Its public surface is "assign this
segment to that core and call me back", plus state/duty control and the
MSR-visible counters.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.config import MachineConfig, PAPER_MACHINE
from repro.errors import SimulationError
from repro.hw.core import Core, CoreState, Segment
from repro.hw.memory import MemoryModel, SocketMemoryState
from repro.hw.msr import (
    IA32_APERF,
    IA32_CLOCK_MODULATION,
    IA32_MPERF,
    IA32_THERM_STATUS,
    MSR_PKG_ENERGY_STATUS,
    MSR_PKG_POWER_LIMIT,
    MSR_RAPL_POWER_UNIT,
    MSRFile,
    RAPL_POWER_UNIT_RAW,
    decode_clock_modulation,
)
from repro.hw.perfctr import CounterSnapshot, SocketCounters, snapshot, window_average
from repro.hw.power import PowerModel
from repro.hw.rapl import RaplDomain
from repro.hw.thermal import ThermalState
from repro.hw.topology import Topology
from repro.sim.engine import Engine
from repro.sim.events import Priority

#: Segments whose remaining wall time is below this are treated as
#: complete, batching near-simultaneous completions into one event.
_COMPLETION_EPS_S = 1e-12


class Node:
    """A two-socket Sandybridge-style node under fluid simulation."""

    def __init__(
        self,
        engine: Engine,
        config: MachineConfig = PAPER_MACHINE,
        *,
        warm: bool = True,
        track_tag_energy: bool = False,
    ) -> None:
        self.engine = engine
        self.config = config
        self.topology = Topology(config.sockets, config.cores_per_socket)
        self.cores: list[Core] = [
            Core(index=i, socket=self.topology.socket_of(i))
            for i in range(self.topology.total_cores)
        ]
        self.memory_model = MemoryModel(config.memory)
        self.power_model = PowerModel(config.power)
        self.rapl: list[RaplDomain] = [RaplDomain(s) for s in range(config.sockets)]
        self.thermal: list[ThermalState] = [
            ThermalState(config.thermal) for _ in range(config.sockets)
        ]
        self.counters: list[SocketCounters] = [
            SocketCounters() for _ in range(config.sockets)
        ]
        self.msr = MSRFile()
        self._mem_state: list[SocketMemoryState] = [
            SocketMemoryState() for _ in range(config.sockets)
        ]
        self._socket_power: list[float] = [0.0] * config.sockets
        self._pkg_power_limit_raw: list[int] = [0] * config.sockets
        self._last_sync = engine.now
        self._completion = None
        #: Cores grouped by socket, in core-index order — the same order
        #: the recompute/power sums have always iterated in.
        self._socket_cores: list[list[Core]] = [
            [self.cores[i] for i in self.topology.cores_in_socket(s)]
            for s in range(config.sockets)
        ]
        # --- recompute memo ------------------------------------------------
        # A socket's demand/stretch/per-core rates only change when one of
        # its cores changes state, segment or duty — plus, for cores that
        # carry a coherence penalty, when the *node-wide* busy count moves.
        # Mutators mark the affected sockets dirty; _recompute() only
        # re-derives dirty sockets and re-prices power where either the
        # rates or the (continuously drifting) temperature changed.  All
        # recomputed values use the exact arithmetic of the full pass, so
        # memoized runs are bit-identical to recomputing everything.
        self._rate_dirty: list[bool] = [True] * config.sockets
        self._busy_in_socket: list[int] = [0] * config.sockets
        self._coh_in_socket: list[int] = [0] * config.sockets
        self._power_temp: list[Optional[float]] = [None] * config.sockets
        self._recompute_now: Optional[float] = None
        #: True while a completion batch runs its callbacks: mutators then
        #: only mark sockets dirty and the batch recomputes once at the end.
        self._hold_recompute = False
        #: Optional attribution of active-core energy to segment tags
        #: (profiling aid; off by default to keep the sync loop lean).
        self.track_tag_energy = track_tag_energy
        self.tag_energy_j: dict[str, float] = {}
        #: Optional read-only observer called as ``probe(dt)`` at the end
        #: of every :meth:`_sync` that advanced time.  Used by the
        #: invariant checker to mirror the integrators with bit-identical
        #: arithmetic; a single ``is not None`` test when unset.
        self._sync_probe: Optional[Callable[[float], None]] = None

        if warm:
            self.warm_up()
        self._map_msrs()
        self._recompute()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def warm_up(self, power_w_per_socket: float = 70.0) -> None:
        """Pre-heat each socket to the steady state of a loaded run.

        The paper reports all numbers "from experiments run on a warm
        system" (Section II-C); this models that precondition.  A cold node
        (``warm=False``) starts at ambient and reproduces footnote 2.
        """
        for therm in self.thermal:
            therm.warm_to_steady_state(power_w_per_socket)

    def _map_msrs(self) -> None:
        for s in range(self.config.sockets):
            self.msr.map_package(
                s, MSR_PKG_ENERGY_STATUS, reader=self._make_energy_reader(s)
            )
            self.msr.map_package(
                s, MSR_RAPL_POWER_UNIT, reader=lambda: RAPL_POWER_UNIT_RAW
            )
            self.msr.map_package(
                s,
                MSR_PKG_POWER_LIMIT,
                reader=self._make_power_limit_reader(s),
                writer=self._make_power_limit_writer(s),
            )
        for core in self.cores:
            self.msr.map_core(
                core.index,
                IA32_CLOCK_MODULATION,
                reader=self._make_clockmod_reader(core.index),
                writer=self._make_clockmod_writer(core.index),
            )
            self.msr.map_core(
                core.index,
                IA32_THERM_STATUS,
                reader=self._make_therm_reader(core.socket),
            )
            self.msr.map_core(
                core.index, IA32_MPERF,
                reader=self._make_cycle_reader(core.index, "mperf_cycles"),
            )
            self.msr.map_core(
                core.index, IA32_APERF,
                reader=self._make_cycle_reader(core.index, "aperf_cycles"),
            )

    def _make_cycle_reader(self, core: int, attr: str) -> Callable[[], int]:
        def read() -> int:
            self._sync()
            return int(getattr(self.cores[core], attr))
        return read

    def _make_energy_reader(self, socket: int) -> Callable[[], int]:
        def read() -> int:
            self._sync()
            return self.rapl[socket].read_status()
        return read

    def _make_therm_reader(self, socket: int) -> Callable[[], int]:
        def read() -> int:
            self._sync()
            return self.thermal[socket].therm_status_raw()
        return read

    def _make_power_limit_reader(self, socket: int) -> Callable[[], int]:
        def read() -> int:
            return self._pkg_power_limit_raw[socket]
        return read

    def _make_power_limit_writer(self, socket: int) -> Callable[[int], None]:
        def write(value: int) -> None:
            self._pkg_power_limit_raw[socket] = value
        return write

    def _make_clockmod_reader(self, core: int) -> Callable[[], int]:
        def read() -> int:
            return self.cores[core].clock_mod_raw
        return read

    def _make_clockmod_writer(self, core: int) -> Callable[[int], None]:
        def write(value: int) -> None:
            # The write is architecturally visible immediately...
            self.cores[core].clock_mod_raw = value
            duty = decode_clock_modulation(value)
            # ...but the PLL takes a moment to retime: the paper measured
            # roughly 250 memory operations' worth of delay including call
            # and OS overhead (Section IV).
            delay = self.config.msr_write_mem_ops * self.config.memory.base_latency_s
            self.engine.schedule(
                delay,
                lambda: self.set_duty(core, duty),
                priority=Priority.MACHINE,
                label=f"clockmod-commit core={core}",
            )
        return write

    # ------------------------------------------------------------------
    # fluid model core
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Integrate state forward to the current simulation time.

        Runs on every MSR read and before every mutation, so the loop
        bodies are written flat: state constants and per-interval products
        are hoisted, and each core takes exactly one state dispatch.  The
        arithmetic (and its order) is unchanged.
        """
        now = self.engine.now
        dt = now - self._last_sync
        if dt <= 0.0:
            return
        for s in range(self.config.sockets):
            power = self._socket_power[s]
            mem = self._mem_state[s]
            self.rapl[s].add_energy(power * dt)
            self.counters[s].accumulate(mem.demand, mem.bw_util, power, dt)
            self.thermal[s].advance(power, dt)
        # dt * freq is the same product for every core; aperf's
        # ``dt * freq * duty`` associates left, so ``dtf * duty`` is the
        # identical float.
        dtf = dt * self.config.frequency_hz
        busy = CoreState.BUSY
        spin = CoreState.SPIN
        track = self.track_tag_energy
        for core in self.cores:
            state = core.state
            if state is busy:
                remaining = core.remaining - core.speed * dt
                core.remaining = remaining if remaining >= 0.0 else 0.0
                core.busy_seconds += dt
                if track and core.segment is not None:
                    leak = self.power_model.leakage_factor(
                        self.thermal[core.socket].temp_degc
                    )
                    joules = self.power_model.core_power_w(core, leak) * dt
                    tag = core.segment.tag or "(untagged)"
                    self.tag_energy_j[tag] = self.tag_energy_j.get(tag, 0.0) + joules
            elif state is spin:
                core.spin_seconds += dt
            else:
                continue
            # APERF/MPERF tick only in C0; APERF at the modulated rate.
            core.mperf_cycles += dtf
            core.aperf_cycles += dtf * core.duty
        self._last_sync = now
        probe = self._sync_probe
        if probe is not None:
            probe(dt)

    def _mark_rates_dirty(self, socket: int, *, busy_changed: bool = False) -> None:
        """Flag a socket for re-derivation on the next :meth:`_recompute`.

        ``busy_changed`` means the node-wide busy count moved (a core
        entered or left ``BUSY``): sockets hosting coherence-penalty
        segments must then be re-derived too, because their cores' latency
        stretch depends on that node-wide count.
        """
        dirty = self._rate_dirty
        dirty[socket] = True
        if busy_changed:
            coh = self._coh_in_socket
            for t in range(len(coh)):
                if coh[t]:
                    dirty[t] = True

    def _recompute(self) -> None:
        """Recompute contention, rates and power; reschedule completion.

        Memoized: only sockets marked dirty by a mutator re-derive demand
        and per-core rates; socket power re-prices when the rates changed
        *or* the die temperature moved since it was last priced (exact
        float comparison).  A clean socket's cached values are exactly what
        a full pass would recompute from the unchanged inputs, so skipping
        it cannot change a single bit of simulator output.  The inlined
        arithmetic below reproduces the :class:`~repro.hw.memory.MemoryModel`
        methods operation for operation (validation checks elided — every
        input was validated when the segment/duty was accepted).
        """
        now = self.engine.now
        dirty = self._rate_dirty
        thermal = self.thermal
        power_temp = self._power_temp
        sockets = self.config.sockets
        if now == self._recompute_now and True not in dirty:
            # Nothing mutated and time has not advanced; power is still
            # current unless something (warm_up, a test) moved a
            # temperature out from under us.
            for s in range(sockets):
                if thermal[s].temp_degc != power_temp[s]:
                    break
            else:
                return
        mm = self.memory_model
        mcfg = mm.config
        mlp = mcfg.mlp_per_core
        knee = mcfg.knee_refs
        default_alpha = mcfg.contention_exponent
        busy_state = CoreState.BUSY
        mem_state = self._mem_state
        busy_in = self._busy_in_socket
        coh_in = self._coh_in_socket
        for s in range(sockets):
            if not dirty[s]:
                continue
            demand = 0.0
            busy = 0
            coh = 0
            for core in self._socket_cores[s]:
                if core.state is busy_state and core.segment is not None:
                    demand += mlp * core.segment.mem_fraction
                    busy += 1
                    if core.segment.coherence_penalty > 0.0:
                        coh += 1
            busy_in[s] = busy
            coh_in[s] = coh
            if demand <= knee:
                stretch = 1.0
            else:
                stretch = (demand / knee) ** default_alpha
            mem_state[s] = SocketMemoryState(
                demand=demand,
                stretch=stretch,
                bw_util=0.0 if demand <= 0 else min(1.0, demand / knee),
            )
        busy_total = sum(busy_in)
        for s in range(sockets):
            if not dirty[s]:
                continue
            demand_s = mem_state[s].demand
            stretch_s = mem_state[s].stretch
            for core in self._socket_cores[s]:
                if core.state is busy_state and core.segment is not None:
                    seg = core.segment
                    exponent = seg.contention_exponent
                    if demand_s <= knee:
                        sigma = 1.0
                    elif exponent is None:
                        sigma = stretch_s
                    else:
                        sigma = (demand_s / knee) ** exponent
                    # Coherence ping-pong is node-wide and knee-free: every
                    # other busy core adds sharing latency.
                    if seg.coherence_penalty > 0.0 and busy_total > 1:
                        sigma += seg.coherence_penalty * (busy_total - 1)
                    mu = seg.mem_fraction
                    wall_stretch = (1.0 - mu) / core.duty + mu * sigma
                    core.speed = 1.0 / wall_stretch
                    core.mem_wall_fraction = (
                        (mu * sigma) / wall_stretch if wall_stretch > 0 else 0.0
                    )
                else:
                    core.speed = 0.0
                    core.mem_wall_fraction = 0.0
        pm = self.power_model
        for s in range(sockets):
            temp = thermal[s].temp_degc
            if dirty[s] or temp != power_temp[s]:
                self._socket_power[s] = pm.socket_power_w(
                    self._socket_cores[s],
                    mem_state[s].bw_util,
                    temp,
                )
                power_temp[s] = temp
            dirty[s] = False
        self._recompute_now = now
        self._schedule_completion()

    def _schedule_completion(self) -> None:
        if self._completion is not None:
            self._completion.cancel()
            self._completion = None
        dt_min = math.inf
        busy = CoreState.BUSY
        for core in self.cores:
            if core.state is busy and core.speed > 0.0:
                dt = core.remaining / core.speed
                if dt < dt_min:
                    dt_min = dt
        if math.isinf(dt_min):
            return
        self._completion = self.engine.schedule(
            max(dt_min, 0.0),
            self._on_completion,
            priority=Priority.MACHINE,
            label="segment-complete",
        )

    def _on_completion(self) -> None:
        self._completion = None
        self._sync()
        finished: list[Core] = []
        for core in self.cores:
            if core.state is CoreState.BUSY and (
                core.remaining <= core.speed * _COMPLETION_EPS_S
            ):
                finished.append(core)
        callbacks: list[Optional[Callable[[], Any]]] = []
        for core in finished:
            assert core.segment is not None
            core.segments_completed += 1
            core.work_done_solo_seconds += core.segment.solo_seconds
            callbacks.append(core.on_complete)
            core.segment = None
            core.on_complete = None
            core.remaining = 0.0
            core.state = CoreState.IDLE
            self._mark_rates_dirty(core.socket, busy_changed=True)
        # One recompute for the whole batch: the callbacks' mutations only
        # add dirty marks, and any query they make recomputes on demand.
        self._hold_recompute = True
        try:
            for cb in callbacks:
                if cb is not None:
                    cb()
        finally:
            self._hold_recompute = False
            self._recompute()

    # ------------------------------------------------------------------
    # runtime-facing control
    # ------------------------------------------------------------------
    def assign(
        self,
        core_index: int,
        segment: Segment,
        on_complete: Optional[Callable[[], Any]] = None,
    ) -> None:
        """Start ``segment`` on an idle or spinning core.

        ``on_complete`` fires (via the event queue, never synchronously)
        when the segment finishes.
        """
        core = self.cores[core_index]
        if core.state is CoreState.BUSY:
            raise SimulationError(f"core {core_index} is already busy")
        if core.state is CoreState.OFF:
            raise SimulationError(f"core {core_index} is off")
        self._sync()
        core.state = CoreState.BUSY
        core.segment = segment
        core.remaining = segment.solo_seconds
        core.on_complete = on_complete
        self._mark_rates_dirty(core.socket, busy_changed=True)
        if not self._hold_recompute:
            self._recompute()

    def _set_state(self, core_index: int, state: CoreState) -> None:
        core = self.cores[core_index]
        if core.state is CoreState.BUSY:
            raise SimulationError(
                f"core {core_index} is busy; cannot change state to {state}"
            )
        self._sync()
        core.state = state
        self._mark_rates_dirty(core.socket)
        if not self._hold_recompute:
            self._recompute()

    def set_idle(self, core_index: int) -> None:
        """Return a core to the hardware-idle (power-gated) state."""
        self._set_state(core_index, CoreState.IDLE)

    def set_spin(self, core_index: int, duty: Optional[float] = None) -> None:
        """Put a core into the throttled spin loop (clocked, no work)."""
        core = self.cores[core_index]
        if core.state is CoreState.BUSY:
            raise SimulationError(f"core {core_index} is busy; cannot spin")
        self._sync()
        core.state = CoreState.SPIN
        if duty is not None:
            core.duty = duty
        self._mark_rates_dirty(core.socket)
        if not self._hold_recompute:
            self._recompute()

    def set_off(self, core_index: int) -> None:
        """Park a core at the OS level (deep C-state, zero power)."""
        self._set_state(core_index, CoreState.OFF)

    def set_duty(self, core_index: int, duty: float) -> None:
        """Apply a duty-cycle fraction to a core, effective immediately.

        The MSR write path models the actuation latency and then calls
        this; tests and the DVFS ablation may call it directly.
        """
        if not (0.0 < duty <= 1.0):
            raise SimulationError(f"duty must be in (0,1], got {duty!r}")
        self._sync()
        core = self.cores[core_index]
        core.duty = duty
        self._mark_rates_dirty(core.socket)
        if not self._hold_recompute:
            self._recompute()

    def set_sync_probe(self, probe: Optional[Callable[[float], None]]) -> None:
        """Install (or clear, with ``None``) the sync observer.

        The probe fires after the integrators advanced by ``dt`` seconds
        and must not mutate node state or call any syncing query — it
        observes :attr:`_socket_power` and the integrator outputs directly.
        Only one probe is supported; installing over an existing one is an
        error so two checkers cannot silently shadow each other.
        """
        if probe is not None and self._sync_probe is not None:
            raise SimulationError("node already has a sync probe installed")
        self._sync_probe = probe

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Bring all integrators and cached rates up to 'now'."""
        self._sync()
        self._recompute()

    def energy_j(self, socket: int) -> float:
        """Ground-truth accumulated energy of one socket, Joules."""
        self._sync()
        return self.rapl[socket].energy_j

    def total_energy_j(self) -> float:
        """Ground-truth accumulated energy of the whole node, Joules."""
        self._sync()
        return sum(dom.energy_j for dom in self.rapl)

    def power_w(self, socket: int) -> float:
        """Instantaneous power of one socket, Watts."""
        self.refresh()
        return self._socket_power[socket]

    def total_power_w(self) -> float:
        """Instantaneous power of the whole node, Watts."""
        self.refresh()
        return sum(self._socket_power)

    def temp_degc(self, socket: int) -> float:
        """Current die temperature of one socket."""
        self._sync()
        return self.thermal[socket].temp_degc

    def memory_state(self, socket: int) -> SocketMemoryState:
        """Instantaneous contention state of one socket."""
        self.refresh()
        return self._mem_state[socket]

    def counters_snapshot(self, socket: int) -> CounterSnapshot:
        """Snapshot of a socket's time-integrated counters."""
        self._sync()
        return snapshot(self.counters[socket])

    def window(self, socket: int, since: CounterSnapshot):
        """Averages between ``since`` and now (see perfctr.window_average)."""
        return window_average(since, self.counters_snapshot(socket))

    @property
    def busy_core_count(self) -> int:
        """Number of cores currently executing a segment."""
        return sum(1 for c in self.cores if c.state is CoreState.BUSY)

    @property
    def spinning_core_count(self) -> int:
        """Number of cores currently in the throttled spin loop."""
        return sum(1 for c in self.cores if c.state is CoreState.SPIN)
