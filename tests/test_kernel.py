"""Node kernel facade: spawn/reap, allocation charging, file I/O."""

import pytest

from repro.errors import ConfigurationError, NoSuchProcessError
from repro.osmodel.config import NodeConfig
from repro.osmodel.kernel import NodeKernel
from repro.osmodel.signals import Signal
from repro.sim.engine import Simulation
from repro.units import GB, MB


@pytest.fixture
def kernel():
    return NodeKernel(
        Simulation(seed=2),
        NodeConfig(
            ram_bytes=1 * GB,
            os_reserved_bytes=128 * MB,
            page_cache_min_bytes=0,
            hostname="k",
        ),
    )


class TestProcessTable:
    def test_spawn_assigns_unique_pids(self, kernel):
        pids = {kernel.spawn(f"p{i}").pid for i in range(5)}
        assert len(pids) == 5

    def test_lookup_live_process(self, kernel):
        proc = kernel.spawn("p")
        assert kernel.process(proc.pid) is proc

    def test_lookup_unknown_pid_raises(self, kernel):
        with pytest.raises(NoSuchProcessError):
            kernel.process(99999)

    def test_live_processes_excludes_dead(self, kernel):
        a = kernel.spawn("a")
        b = kernel.spawn("b")
        kernel.signal(a.pid, Signal.SIGKILL)
        assert kernel.live_processes() == [b]

    def test_stopped_processes(self, kernel):
        a = kernel.spawn("a")
        kernel.spawn("b")
        kernel.signal(a.pid, Signal.SIGSTOP)
        assert kernel.stopped_processes() == [a]

    def test_dead_process_leaves_live_set_but_stays_in_history(self, kernel):
        a = kernel.spawn("a")
        b = kernel.spawn("b")
        a.exit_normally()
        assert kernel.live_processes() == [b]
        assert kernel._processes[a.pid] is a
        with pytest.raises(NoSuchProcessError):
            kernel.process(a.pid)

    def test_oom_killed_process_leaves_live_set(self, kernel):
        a = kernel.spawn("a")
        b = kernel.spawn("b")
        kernel.charge_allocation(a, 64 * MB)
        kernel.oom_kill(a, why="test")
        assert kernel.live_processes() == [b]
        assert kernel._processes[a.pid] is a
        assert kernel.memory_headroom().running_resident == 0

    def test_tracker_shutdown_empties_live_set(self):
        from repro.workloads.jobspec import JobSpec, TaskSpec
        from tests.conftest import quick_cluster

        cluster = quick_cluster()
        cluster.submit_job(JobSpec(name="j", tasks=[
            TaskSpec(input_bytes=70 * MB, parse_rate=7 * MB, output_bytes=0)
        ]))
        cluster.start()
        cluster.sim.run(until=6.0)
        kernel = cluster.kernels["node00"]
        live = kernel.live_processes()
        assert live
        cluster.trackers["node00"].shutdown()
        assert kernel.live_processes() == []
        for proc in live:
            assert kernel._processes[proc.pid] is proc
            assert not proc.alive
        kernel.check_invariants()


class TestAllocationCharge:
    def test_touch_time_linear_in_bytes(self, kernel):
        proc = kernel.spawn("p")
        charge = kernel.charge_allocation(proc, 120 * MB)
        expected = 120 * MB / kernel.config.mem_touch_bw
        assert charge.touch_time == pytest.approx(expected)
        assert charge.total_time >= charge.touch_time

    def test_clean_allocation_has_no_touch_time(self, kernel):
        proc = kernel.spawn("p")
        charge = kernel.charge_allocation(proc, 64 * MB, dirty=False)
        assert charge.touch_time == 0.0
        assert proc.image.resident_clean == 64 * MB

    def test_release_memory(self, kernel):
        proc = kernel.spawn("p")
        kernel.charge_allocation(proc, 100 * MB)
        freed = kernel.release_memory(proc, 40 * MB)
        assert freed == 40 * MB
        assert proc.image.virtual == 60 * MB

    @pytest.mark.xfail(
        strict=True,
        reason="release_memory frees swapped image pages but leaves them "
        "held in the SwapArea until the process dies",
    )
    def test_release_memory_returns_swapped_pages(self):
        kernel = NodeKernel(
            Simulation(seed=2),
            NodeConfig(
                ram_bytes=512 * MB,
                os_reserved_bytes=0,
                swap_bytes=512 * MB,
                page_cache_min_bytes=0,
                working_set_protect_bytes=16 * MB,
                hostname="k",
            ),
        )
        a = kernel.spawn("a")
        kernel.charge_allocation(a, 300 * MB)
        b = kernel.spawn("b")
        kernel.charge_allocation(b, 300 * MB)
        assert a.image.swapped > 0
        kernel.release_memory(a, a.image.virtual)
        assert kernel.vmm.swap.swapped_bytes(a.pid) == a.image.swapped == 0

    def test_memory_summary_consistent(self, kernel):
        proc = kernel.spawn("p")
        kernel.charge_allocation(proc, 100 * MB)
        kernel.vmm.cache_file_read(50 * MB)
        summary = kernel.memory_summary()
        assert summary["process_resident"] == 100 * MB
        assert summary["page_cache"] == 50 * MB
        assert (
            summary["free_ram"]
            == summary["usable_ram"] - 100 * MB - 50 * MB
        )


class TestFileIO:
    def test_read_file_populates_cache(self, kernel):
        done = []
        kernel.read_file(100 * MB, lambda: done.append(kernel.sim.now))
        kernel.sim.run()
        assert done
        assert kernel.vmm.page_cache.size == 100 * MB
        assert kernel.disk.bytes_read == 100 * MB

    def test_write_file_timing(self, kernel):
        done = []
        kernel.write_file(90 * MB, lambda: done.append(kernel.sim.now))
        kernel.sim.run()
        assert done == [pytest.approx(90 * MB / kernel.config.disk_write_bw)]


class TestInvariants:
    def test_check_invariants_after_churn(self, kernel):
        procs = [kernel.spawn(f"p{i}") for i in range(4)]
        for proc in procs:
            kernel.charge_allocation(proc, 150 * MB)
        kernel.signal(procs[0].pid, Signal.SIGSTOP)
        kernel.charge_allocation(procs[1], 200 * MB)
        kernel.signal(procs[2].pid, Signal.SIGKILL)
        kernel.check_invariants()

    def test_node_config_validation(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(ram_bytes=0)
        with pytest.raises(ConfigurationError):
            NodeConfig(os_reserved_bytes=5 * GB)
        with pytest.raises(ConfigurationError):
            NodeConfig(swappiness=150)
        with pytest.raises(ConfigurationError):
            NodeConfig(cores=0)
        with pytest.raises(ConfigurationError):
            NodeConfig(direct_reclaim_fraction=1.5)

    def test_config_replace(self):
        config = NodeConfig()
        other = config.replace(hostname="x", cores=8)
        assert other.hostname == "x"
        assert other.cores == 8
        assert config.hostname != "x"
