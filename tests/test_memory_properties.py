"""Hypothesis property suite for the memory-accounting invariants.

Section III-A's constraint is only enforceable if the underlying
accounting never drifts, so these properties drive
:class:`~repro.osmodel.swap.SwapArea` and
:class:`~repro.osmodel.vmm.VirtualMemoryManager` with random operation
sequences and pin:

* ``used <= capacity`` and per-process swap sums equal to the device
  total, under any interleaving of page-out/page-in/release;
* reclaim conserves bytes: what leaves the page cache, clean pools and
  dirty pools is exactly what shows up as free RAM, and process
  virtual sizes never change under reclaim;
* suspend-then-resume restores resident sets exactly (the paper's
  "paged out and in at most once" round trip);
* the memoised headroom snapshot equals a fresh recompute after every
  memory operation the model performs.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.errors import OSModelError, OutOfMemoryError, SwapExhaustedError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.osmodel.config import NodeConfig
from repro.osmodel.kernel import NodeKernel
from repro.osmodel.signals import Signal
from repro.osmodel.swap import SwapArea
from repro.sim.engine import Simulation
from repro.units import MB, page_align

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

PAGE = 4096
sizes = st.integers(min_value=0, max_value=64 * MB)
pids = st.integers(min_value=1, max_value=4)


# -- SwapArea ----------------------------------------------------------------

swap_ops = st.lists(
    st.one_of(
        st.tuples(st.just("out"), pids, sizes),
        st.tuples(st.just("in"), pids, sizes),
        st.tuples(st.just("release"), pids, st.just(0)),
    ),
    max_size=60,
)


class TestSwapAreaProperties:
    @SETTINGS
    @given(capacity=st.integers(min_value=0, max_value=128 * MB), ops=swap_ops)
    def test_accounting_invariants_under_any_interleaving(self, capacity, ops):
        area = SwapArea(capacity=page_align(capacity))
        lifetime_out = 0
        for op, pid, nbytes in ops:
            nbytes = page_align(nbytes)
            try:
                if op == "out":
                    area.page_out(pid, nbytes)
                    lifetime_out += nbytes if nbytes > 0 else 0
                elif op == "in":
                    area.page_in(pid, nbytes)
                else:
                    area.release(pid)
            except SwapExhaustedError:
                # Overflow/underflow rejected; state must stay intact.
                pass
            area.check_invariants()
            assert 0 <= area.used <= area.capacity
            assert area.free == area.capacity - area.used
            # Per-process swap sums equal the device total.
            assert sum(area.per_process.values()) == area.used
            assert all(held > 0 for held in area.per_process.values())
            assert area.total_in <= area.total_out == lifetime_out
            # Lifetime page-out per pid never shrinks below current holdings.
            for pid_, held in area.per_process.items():
                assert area.lifetime_swapped_bytes(pid_) >= held

    @SETTINGS
    @given(nbytes=st.integers(min_value=PAGE, max_value=64 * MB))
    def test_overflow_rejected_exactly_at_capacity(self, nbytes):
        nbytes = page_align(nbytes)
        area = SwapArea(capacity=nbytes - PAGE)
        with pytest.raises(SwapExhaustedError):
            area.page_out(1, nbytes)
        assert area.used == 0 and not area.per_process


# -- VirtualMemoryManager ----------------------------------------------------


def _kernel(ram_mb=512, swap_mb=256) -> NodeKernel:
    sim = Simulation(seed=3, trace=False)
    return NodeKernel(
        sim,
        NodeConfig(
            ram_bytes=ram_mb * MB,
            os_reserved_bytes=0,
            swap_bytes=swap_mb * MB,
            page_cache_min_bytes=0,
            working_set_protect_bytes=16 * MB,
            alloc_chunk_bytes=32 * MB,
            hostname="prop",
        ),
    )


alloc_plans = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=96 * MB),  # allocation
        st.booleans(),  # stopped?
    ),
    min_size=1,
    max_size=4,
)


class TestReclaimConservation:
    @SETTINGS
    @given(
        plans=alloc_plans,
        cache_mb=st.integers(min_value=0, max_value=128),
        demand=st.integers(min_value=PAGE, max_value=256 * MB),
    )
    def test_make_room_conserves_bytes(self, plans, cache_mb, demand):
        kernel = _kernel()
        vmm = kernel.vmm
        procs = []
        for i, (nbytes, stopped) in enumerate(plans):
            proc = kernel.spawn(f"p{i}")
            proc.image.allocate(page_align(nbytes), dirty=True, now=float(i))
            if stopped:
                kernel.signal(proc.pid, Signal.SIGSTOP)
            procs.append(proc)
        assume(vmm.free_ram() >= 0)
        vmm.cache_file_read(cache_mb * MB)
        requester = procs[-1]

        cache_before = vmm.page_cache.size
        free_before = vmm.free_ram()
        swap_before = vmm.swap.used
        virtual_before = {p.pid: p.image.virtual for p in procs}
        resident_before = {p.pid: p.image.resident for p in procs}

        try:
            result = vmm.make_room(requester, demand)
        except OutOfMemoryError:
            # RAM + swap genuinely cannot satisfy the demand; the
            # failed reclaim must still leave the accounting coherent.
            kernel.check_invariants()
            return

        kernel.check_invariants()
        # Reclaim never changes any process's virtual size.
        for proc in procs:
            assert proc.image.virtual == virtual_before[proc.pid]
        # Every byte freed from cache / clean pools / dirty pools is a
        # byte of free RAM, and nothing else moved.
        assert vmm.free_ram() - free_before == result.freed_total
        assert cache_before - vmm.page_cache.size == result.freed_from_cache
        assert vmm.swap.used - swap_before == result.swapped_out
        dropped = sum(
            resident_before[p.pid] - p.image.resident for p in procs
        )
        assert dropped == result.dropped_clean + result.swapped_out
        # The demand was met.
        assert vmm.free_ram() >= page_align(demand)

    @SETTINGS
    @given(
        victim_mb=st.integers(min_value=16, max_value=160),
        pressure_mb=st.integers(min_value=200, max_value=480),
    )
    def test_suspend_then_resume_restores_resident_exactly(
        self, victim_mb, pressure_mb
    ):
        kernel = _kernel(ram_mb=512, swap_mb=512)
        vmm = kernel.vmm
        victim = kernel.spawn("victim")
        victim.image.allocate(victim_mb * MB, dirty=True, now=0.0)
        resident_before = victim.image.resident
        virtual_before = victim.image.virtual

        kernel.signal(victim.pid, Signal.SIGSTOP)
        hog = kernel.spawn("hog")
        try:
            vmm.make_room(hog, pressure_mb * MB)
            hog.image.allocate(pressure_mb * MB, dirty=True, now=1.0)
        except OutOfMemoryError:
            assume(False)
        kernel.check_invariants()
        assert victim.image.virtual == virtual_before

        # The preempting work finishes and the victim resumes: fault
        # every swapped page back in.
        hog.image.free(hog.image.virtual, now=2.0)
        kernel.signal(victim.pid, Signal.SIGCONT)
        vmm.fault_in(victim)
        kernel.check_invariants()
        assert victim.image.swapped == 0
        assert victim.image.resident == resident_before
        assert victim.image.virtual == virtual_before
        assert vmm.swap.swapped_bytes(victim.pid) == 0


loaded_plans = st.lists(
    st.tuples(
        st.integers(min_value=24, max_value=72),  # allocation in MB
        st.booleans(),  # stopped?
    ),
    min_size=2,
    max_size=4,
)
memory_ops = st.lists(
    st.tuples(
        st.sampled_from([
            "alloc", "free", "stop", "cont", "cache", "make_room",
            "fault_in", "exit", "corrupt", "spawn",
        ]),
        st.integers(min_value=0, max_value=7),  # process index
        st.integers(min_value=0, max_value=64),  # size in MB
    ),
    min_size=4,
    max_size=40,
)


class TestHeadroomSnapshot:
    @SETTINGS
    @given(plans=alloc_plans, cache_mb=st.integers(min_value=0, max_value=64))
    def test_headroom_matches_componentwise_accounting(self, plans, cache_mb):
        kernel = _kernel()
        vmm = kernel.vmm
        for i, (nbytes, stopped) in enumerate(plans):
            proc = kernel.spawn(f"p{i}")
            proc.image.allocate(page_align(nbytes), dirty=True, now=float(i))
            if stopped:
                kernel.signal(proc.pid, Signal.SIGSTOP)
        assume(vmm.free_ram() >= 0)
        vmm.cache_file_read(cache_mb * MB)

        head = kernel.memory_headroom()
        assert head.free_ram == vmm.free_ram()
        assert head.evictable_cache == vmm.page_cache.evictable
        assert head.free_swap == vmm.swap.free
        assert (
            head.running_resident + head.stopped_resident
            == vmm.used_by_processes()
        )
        assert head.stopped_resident == sum(
            p.image.resident for p in kernel.stopped_processes()
        )
        assert head.stopped_count == len(kernel.stopped_processes())
        assert head.suspend_budget == (
            head.free_ram + head.evictable_cache + head.free_swap
        )

    @settings(SETTINGS, max_examples=150)
    @given(plans=loaded_plans, ops=memory_ops)
    def test_memo_equals_recompute_after_every_operation(self, plans, ops):
        kernel = _kernel(ram_mb=128, swap_mb=96)
        vmm = kernel.vmm
        # Start near or past the RAM limit, so reclaim, swap-out,
        # fault-in and OOM kills all show up.
        procs = []
        for i, (size, stopped) in enumerate(plans):
            proc = kernel.spawn(f"p{i}")
            procs.append(proc)
            try:
                kernel.charge_allocation(proc, size * MB)
            except OutOfMemoryError:
                kernel.oom_kill(proc, why="property")
                continue
            if stopped:
                kernel.signal(proc.pid, Signal.SIGSTOP)
        # The injector only reads ``sim`` and ``kernels`` off its
        # cluster for a cache-corruption fault.
        injector = FaultInjector(
            SimpleNamespace(sim=kernel.sim, kernels={"prop": kernel}),
            FaultPlan(),
        )
        kernel.memory_headroom()
        for op, index, size in ops:
            proc = procs[index % len(procs)]
            nbytes = size * MB
            if op == "spawn":
                procs.append(kernel.spawn(f"p{len(procs)}"))
            elif op == "cache":
                vmm.cache_file_read(nbytes)
            elif op == "corrupt":
                injector._corrupt_cache(FaultEvent(
                    at=0.0, kind=FaultKind.CACHE_CORRUPTION, host="prop",
                    fraction=(size + 1) / 65,
                ))
            elif not proc.alive:
                pass
            elif op == "alloc":
                try:
                    kernel.charge_allocation(proc, nbytes)
                except OutOfMemoryError:
                    kernel.oom_kill(proc, why="property")
            elif op == "free":
                kernel.release_memory(proc, nbytes)
            elif op == "stop":
                kernel.signal(proc.pid, Signal.SIGSTOP)
            elif op == "cont":
                kernel.signal(proc.pid, Signal.SIGCONT)
            elif op == "make_room":
                try:
                    vmm.make_room(proc, nbytes)
                except OutOfMemoryError:
                    pass
            elif op == "fault_in":
                try:
                    vmm.fault_in(proc)
                except OutOfMemoryError:
                    kernel.oom_kill(proc, why="property")
            elif op == "exit":
                proc.exit_normally()
            held = kernel.memory_headroom()
            assert held == vmm._compute_headroom(), op
            assert held.free_ram == vmm.free_ram()
            assert held.free_swap == vmm.swap.free
            assert held.evictable_cache == vmm.page_cache.evictable
            assert held.stopped_count == len(kernel.stopped_processes())
            # The VMM-level checks, the memo comparison among them.  The
            # kernel-level per-process swap check is left out: a "free"
            # of a process with swapped pages trips it (see the xfail
            # in test_kernel.py).
            vmm.check_invariants()

    def test_stale_memo_fails_invariant_check(self):
        kernel = _kernel()
        proc = kernel.spawn("p")
        kernel.memory_headroom()
        # A write that bypasses the VMM leaves the memo stale.
        proc.image.allocate(8 * MB, dirty=True, now=0.0)
        with pytest.raises(OSModelError, match="stale headroom"):
            kernel.check_invariants()
        kernel.vmm.invalidate_headroom()
        kernel.check_invariants()
