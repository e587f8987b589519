"""Tests for the Machine assembly and its setup conveniences."""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.driver import ChainsPolicy, FlagPolicy, FlagSemantics
from repro.machine import Machine, MachineConfig, default_policy_for
from repro.ordering import (
    ConventionalScheme,
    NoOrderScheme,
    SchedulerChainsScheme,
    SchedulerFlagScheme,
    SoftUpdatesScheme,
)
from tests.conftest import SMALL_GEOMETRY, make_machine, run_user


class TestDefaultPolicies:
    def test_chains_scheme_gets_chains_policy(self):
        assert isinstance(default_policy_for(SchedulerChainsScheme()),
                          ChainsPolicy)

    def test_flag_scheme_gets_part_nr(self):
        policy = default_policy_for(SchedulerFlagScheme())
        assert isinstance(policy, FlagPolicy)
        assert policy.semantics is FlagSemantics.PART
        assert policy.read_bypass

    def test_others_get_ignore(self):
        for scheme in (NoOrderScheme(), ConventionalScheme(),
                       SoftUpdatesScheme()):
            policy = default_policy_for(scheme)
            assert policy.semantics is FlagSemantics.IGNORE


class TestBlockCopyWiring:
    def test_scheme_preference_respected(self):
        machine = make_machine("conventional")
        assert machine.cache.block_copy is False
        machine = make_machine("softupdates")
        assert machine.cache.block_copy is True

    def test_override_wins(self):
        config = MachineConfig(scheme=ConventionalScheme(),
                               fs_geometry=SMALL_GEOMETRY, block_copy=True)
        machine = Machine(config)
        assert machine.cache.block_copy is True


class TestInstantMode:
    def test_populate_consumes_no_simulated_time(self):
        machine = make_machine("softupdates")

        def builder():
            for index in range(20):
                yield from machine.fs.write_file(f"/f{index}", b"x" * 4000)

        before = machine.engine.now
        machine.populate(builder())
        assert machine.engine.now == before
        # and the data is durable on the platters
        assert machine.disk.storage.sectors_written > 0

    def test_drop_caches_leaves_only_unevictable(self):
        machine = make_machine("noorder")

        def builder():
            yield from machine.fs.write_file("/f", b"x" * 8192)

        machine.populate(builder())
        assert machine.cache.used_bytes <= 2 * machine.fs.geometry.block_size

    def test_cold_read_after_populate(self):
        machine = make_machine("conventional")
        payload = b"p" * 5000

        def builder():
            yield from machine.fs.write_file("/cold", payload)

        machine.populate(builder())

        def reader():
            data = yield from machine.fs.read_file("/cold")
            return data

        assert run_user(machine, reader()) == payload
        assert machine.disk.stats.reads > 0  # really came from the platters


class TestRun:
    def test_run_multiple_processes(self):
        machine = make_machine("noorder")

        def worker(tag):
            yield from machine.fs.write_file(f"/w{tag}", b"y")
            return tag

        procs = [machine.spawn(worker(i), name=f"w{i}") for i in range(3)]
        assert machine.run(*procs) == [0, 1, 2]

    def test_sync_and_settle_flushes(self):
        machine = make_machine("softupdates")

        def worker():
            yield from machine.fs.write_file("/s", b"z" * 2048)

        machine.run(machine.spawn(worker()))
        machine.sync_and_settle()
        assert not machine.cache.dirty_buffers()
        assert machine.scheme.pending_work() == 0


class TestImportFootprint:
    def test_running_a_machine_never_imports_numpy(self):
        """The simulator is pure stdlib: building, formatting and running a
        machine (and digesting its disk) must not pull numpy in, which
        would cost every benchmark process its import time and memory."""
        script = textwrap.dedent("""
            import sys
            from repro.machine import Machine, MachineConfig
            from repro.ordering import SoftUpdatesScheme

            machine = Machine(MachineConfig(scheme=SoftUpdatesScheme()))
            machine.format()

            def user():
                yield from machine.fs.write_file("/f", b"x" * 10000)

            machine.run(machine.spawn(user()))
            machine.sync_and_settle()
            machine.disk.storage.digest()
            print("numpy" in sys.modules)
        """)
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
