"""Runtime ownership sanitizer: soundness, precision, transparency.

Three properties pin the sanitizer down:

- **Transparency + soundness** — a sanitized sharded run is
  bit-identical to the plain single-queue run (the sanitizer only
  observes) and records zero violations for every CPU model: the
  dynamic proof that the static ``race`` verdicts hold at runtime.
- **Detection** — an injected cross-domain write (an event on the CPU
  queue poking memory-domain state) is recorded, naming both domains.
- **Precision** — re-introducing the historical boundary bypass
  (binding ``peer.owner.recv_atomic_fast`` directly instead of going
  through ``RequestPort.atomic_fast_fn``) makes the tripwires fire:
  the instrumentation distinguishes the mediated channel from the
  bypass, it does not blanket-allow cross-domain traffic.
"""

import pytest

from repro.g5 import SimConfig, System, simulate
from repro.g5.cpus.atomic import AtomicSimpleCPU
from repro.workloads.registry import get_workload

from .test_sharded import (
    CPU_MODELS,
    _assert_same_state,
    _memory_digest,
    _run,
    _stats_text,
)


def _run_sanitized(workload_name: str, model: str):
    workload = get_workload(workload_name)
    system = System(SimConfig(cpu_model=model, mode=workload.mode,
                              record=False, domains=2, sanitize=True))
    process = system.set_se_workload(workload.build("test"),
                                     process_name=workload_name)
    result = simulate(system, max_ticks=10**11)
    assert result.exit_cause == "target called exit()"
    state = {
        "int_regs": tuple(system.cpu.regs.ints),
        "fp_regs": tuple(system.cpu.regs.floats),
        "pc": system.cpu.regs.pc,
        "memory": _memory_digest(system),
        "exit_code": process.exit_code,
        "sim_insts": result.sim_insts,
        "sim_ticks": result.sim_ticks,
        "stats_txt": _stats_text(system),
    }
    return state, result, system


@pytest.mark.parametrize("model", CPU_MODELS)
def test_sanitized_run_is_transparent_and_clean(model):
    """Bit identity with the single queue, zero violations."""
    single, _, _ = _run("sieve", model, domains=1)
    sanitized, result, system = _run_sanitized("sieve", model)
    _assert_same_state(single, sanitized, f"sanitize/{model}")
    report = result.sanitize
    assert report["violations"] == []
    assert report["checked_writes"] > 0      # tripwires were exercised
    assert report["domains"] == ["cpu0", "mem"]
    assert len(report["monitored"]) == 6
    if model == "atomic":
        # The atomic protocol crosses synchronously through the port.
        assert report["boundary_crossings"] > 0
    assert system.sanitizer is not None
    assert system.sharded.sanitizer is system.sanitizer


def test_sanitize_requires_sharding():
    with pytest.raises(ValueError, match="domains >= 2"):
        SimConfig(sanitize=True)


def test_injected_cross_domain_write_is_recorded():
    workload = get_workload("sieve")
    system = System(SimConfig(cpu_model="timing", record=False,
                              domains=2, sanitize=True))
    system.set_se_workload(workload.build("test"))

    def naughty():
        system.l2cache._sanitize_canary = 1

    system.cpu.eventq.call_in(5000, naughty, name="naughty")
    result = simulate(system, max_ticks=10**11)
    violations = result.sanitize["violations"]
    assert len(violations) == 1
    violation = violations[0]
    assert violation["path"] == "system.l2"
    assert violation["attr"] == "_sanitize_canary"
    assert violation["owner_domain"] == "mem"
    assert violation["active_domain"] == "cpu0"
    assert violation["tick"] == 5000


def test_boundary_bypass_trips_the_sanitizer(monkeypatch):
    """The pre-fix direct peer.owner binding is caught at runtime."""

    def bypass_activate(self):
        self._icache_fast = \
            self.icache_port._require_peer().owner.recv_atomic_fast
        self._dcache_fast = \
            self.dcache_port._require_peer().owner.recv_atomic_fast
        self.schedule_in(self._tick_event, 0)

    monkeypatch.setattr(AtomicSimpleCPU, "activate", bypass_activate)
    _, result, _ = _run_sanitized("sieve", "atomic")
    violations = result.sanitize["violations"]
    assert violations, "bypassing the port must trip the tripwires"
    assert all(v["owner_domain"] == "mem" and v["active_domain"] == "cpu0"
               for v in violations)


def test_sanitizer_outside_windows_is_quiet():
    """Construction/workload-load writes happen with no active window."""
    system = System(SimConfig(cpu_model="timing", record=False,
                              domains=2, sanitize=True))
    system.set_se_workload(get_workload("sieve").build("test"))
    # Plenty of monitored-object writes happened during construction
    # and binding, all with current_domain=None: none may be counted
    # as violations.
    assert system.sanitizer.violations == []
    assert system.sanitizer.current_domain is None
