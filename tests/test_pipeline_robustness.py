"""Pipeline hardening: tiers run once, serial fallback, checkpoints."""

import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import pytest

from repro.app.service import Deployment, Placement
from repro.app.workloads import build_memcached, build_redis
from repro.core import CloneRequest, DittoCloner
from repro.core.pipeline import TierCheckpoint, clone_tier, run_tier_pipeline
from repro.faults import FaultPlan, LatencySpikeFault, PacketLossFault
from repro.hw import PLATFORM_A
from repro.loadgen import LoadSpec
from repro.profiling import ProfilingBudget, profile_deployment
from repro.runtime import ExperimentConfig, run_experiment
from repro.runtime.pool import worker_pool
from repro.telemetry import Telemetry
from repro.util.errors import ConfigurationError, TierExecutionError
from repro.util.spec_hash import stable_digest
from repro.validation import integrity

FAST_BUDGET = ProfilingBudget(
    sampled_requests=8, max_accesses_per_spec=512,
    max_istream_per_block=2048, branch_outcomes_per_site=128,
    max_sites_per_population=8, dep_samples_per_block=48,
    profile_duration_s=0.015,
)
CONFIG = ExperimentConfig(platform=PLATFORM_A, duration_s=0.02, seed=5)


def _two_tier_deployment():
    memcached, redis = build_memcached(), build_redis()
    return Deployment(
        services={memcached.name: memcached, redis.name: redis},
        placements=[Placement(memcached.name, "node0"),
                    Placement(redis.name, "node1")],
        entry_service=memcached.name,
    )


@pytest.fixture(scope="module")
def tier_tasks():
    deployment = _two_tier_deployment()
    request = CloneRequest(
        deployment=deployment, load=LoadSpec.open_loop(30_000),
        config=CONFIG, fine_tune_tiers=False, budget=FAST_BUDGET,
        seed=17).resolved()
    profile = profile_deployment(deployment, request.load, CONFIG,
                                 budget=FAST_BUDGET, seed=17)
    return [DittoCloner()._tier_task(
                profile, name, request, seed=request.seed,
                max_tune_iterations=request.max_tune_iterations)
            for name in deployment.services]


# ---------------------------------------------------------------------- #
# module-level tier functions: picklable for pool executors, with
# cross-process state carried through files (pool workers are forks)
# ---------------------------------------------------------------------- #

def _bump(counter_path):
    # Atomic write-then-rename: concurrent bumpers (pool workers) never
    # observe a torn/truncated counter file.
    count = 0
    if os.path.exists(counter_path):
        with open(counter_path) as handle:
            count = int(handle.read() or 0)
    count += 1
    scratch = f"{counter_path}.{os.getpid()}.tmp"
    with open(scratch, "w") as handle:
        handle.write(str(count))
    os.replace(scratch, counter_path)
    return count


def _note(log_path, service):
    with open(log_path, "a") as handle:
        handle.write(service + "\n")


def _logged_failure(log_path, task):
    _note(log_path, task.artifacts.service)
    raise RuntimeError(f"{task.artifacts.service} keeps failing")


def _crash_once_then_clone(counter_path, parent_pid, task):
    # Hard worker death breaks the whole process pool — but only ever
    # kill a *worker*: after the serial fallback this same function
    # re-runs in the parent, where exiting would take the test session
    # down with it.
    if _bump(counter_path) == 1 and os.getpid() != parent_pid:
        os._exit(23)
    return clone_tier(task)


def _fail_one_service(service, task):
    if task.artifacts.service == service:
        raise RuntimeError(f"{service} keeps failing")
    return clone_tier(task)


def _logged_clone(log_path, task):
    _note(log_path, task.artifacts.service)
    return clone_tier(task)


_FAULTED_CONFIG = ExperimentConfig(
    platform=PLATFORM_A, duration_s=0.008, seed=21,
    fault_plan=FaultPlan((
        PacketLossFault(rate=0.2, retransmit_delay_s=100e-6),
        LatencySpikeFault(extra_s=50e-6, probability=0.4),
    )))


def _faulted_run_digest(_index=0):
    result = run_experiment(Deployment.single(build_memcached()),
                            LoadSpec.open_loop(40_000), _FAULTED_CONFIG)
    return (result.faults.digest(), stable_digest(
        {name: m.snapshot() for name, m in result.services.items()}))


class TestTierRunsOnce:
    @pytest.mark.parametrize("pooled", [False, True],
                             ids=["serial", "pool"])
    def test_raising_tier_runs_once(self, tier_tasks, tmp_path, pooled):
        # A tier's outcome is a pure function of its task: running a
        # raising tier again would raise again, so nothing re-runs it.
        log = str(tmp_path / "invocations")
        failing = functools.partial(_logged_failure, log)
        with worker_pool("process" if pooled else "serial",
                         n_tasks=len(tier_tasks), max_workers=2) as pool:
            with pytest.raises(TierExecutionError):
                run_tier_pipeline(tier_tasks, tier_fn=failing, pool=pool)
        with open(log) as handle:
            ran = handle.read().split()
        assert ran and len(ran) == len(set(ran))

    def test_failure_names_the_tier(self, tier_tasks):
        broken = functools.partial(_fail_one_service, "redis")
        with pytest.raises(TierExecutionError) as excinfo:
            run_tier_pipeline(tier_tasks, tier_fn=broken)
        error = excinfo.value
        assert error.tier == "redis"
        assert isinstance(error.last_error, RuntimeError)
        assert error.__cause__ is error.last_error


class TestExecutorDegradation:
    def test_worker_crash_degrades_and_completes(self, tier_tasks, tmp_path):
        crashing = functools.partial(
            _crash_once_then_clone, str(tmp_path / "counter"), os.getpid())
        with Telemetry() as telemetry, worker_pool(
                "process", n_tasks=len(tier_tasks), max_workers=2) as pool:
            outcomes, mode = run_tier_pipeline(
                tier_tasks, tier_fn=crashing, pool=pool)
        # The killed worker broke the process pool; the unfinished
        # tiers were re-run serially and the clone still finished.
        assert mode == "serial"
        assert sorted(o.service for o in outcomes) == sorted(
            task.artifacts.service for task in tier_tasks)
        degradations = telemetry.registry.get(
            "ditto_pipeline_degradations_total")
        assert degradations.value(from_mode="process",
                                  to_mode="serial") == 1
        assert degradations.total() == 1


class TestCheckpointResume:
    def test_outcomes_persist_and_resume(self, tier_tasks, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        first, _ = run_tier_pipeline(tier_tasks, checkpoint_dir=ckpt)
        assert len(os.listdir(ckpt)) == len(tier_tasks)
        log = str(tmp_path / "invocations")
        resumed, _ = run_tier_pipeline(
            tier_tasks, tier_fn=functools.partial(_logged_clone, log),
            checkpoint_dir=ckpt)
        assert not os.path.exists(log)  # nothing re-ran
        assert stable_digest([o.spec for o in resumed]) == stable_digest(
            [o.spec for o in first])

    def test_interrupted_run_reruns_only_missing_tiers(
            self, tier_tasks, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        # First run dies on the second tier — like a killed pipeline —
        # but the finished tier's checkpoint has already been written.
        with pytest.raises(TierExecutionError):
            run_tier_pipeline(
                tier_tasks,
                tier_fn=functools.partial(_fail_one_service, "redis"),
                checkpoint_dir=ckpt)
        assert len(os.listdir(ckpt)) == 1
        log = str(tmp_path / "invocations")
        outcomes, _ = run_tier_pipeline(
            tier_tasks, tier_fn=functools.partial(_logged_clone, log),
            checkpoint_dir=ckpt)
        with open(log) as handle:
            reran = handle.read().split()
        assert reran == ["redis"]  # memcached came from the checkpoint
        assert len(outcomes) == len(tier_tasks)

    def test_changed_task_misses_stale_checkpoint(self, tier_tasks,
                                                  tmp_path):
        ckpt = str(tmp_path / "ckpt")
        run_tier_pipeline(tier_tasks, checkpoint_dir=ckpt)
        changed = [replace(task, max_tune_iterations=
                           task.max_tune_iterations + 1)
                   for task in tier_tasks]
        log = str(tmp_path / "invocations")
        run_tier_pipeline(changed,
                          tier_fn=functools.partial(_logged_clone, log),
                          checkpoint_dir=ckpt)
        with open(log) as handle:
            reran = sorted(handle.read().split())
        assert reran == ["memcached", "redis"]  # stale entries ignored

    def test_corrupt_checkpoint_is_a_miss(self, tier_tasks, tmp_path):
        ckpt = TierCheckpoint(str(tmp_path / "ckpt"))
        with open(ckpt.path(tier_tasks[0]), "wb") as handle:
            handle.write(b"not a pickle")
        assert ckpt.load(ckpt.path(tier_tasks[0])) is None

    def test_cloner_exposes_robustness_knobs(self):
        cloner = DittoCloner(checkpoint_dir="/tmp/x")
        assert cloner.checkpoint_dir == "/tmp/x"
        with pytest.raises(ConfigurationError):
            DittoCloner(checkpoint_dir=123)


class TestCrossExecutorFaultDeterminism:
    def test_fault_timeline_identical_inline_and_in_worker(self):
        # Satellite of the determinism contract: the same (seed, plan)
        # yields the same fault timeline digest and the same metrics
        # whether the experiment runs in this process or inside a
        # process-pool worker.
        inline = _faulted_run_digest()
        with ProcessPoolExecutor(max_workers=2) as pool:
            remote, remote2 = list(pool.map(_faulted_run_digest, [0, 1]))
        assert inline == remote == remote2

    def test_clone_digest_identical_serial_and_process(self, tier_tasks):
        serial, _ = run_tier_pipeline(tier_tasks)
        with worker_pool("process", n_tasks=len(tier_tasks),
                         max_workers=2) as pool:
            pooled, mode = run_tier_pipeline(tier_tasks, pool=pool)
        assert mode == "process"
        assert stable_digest([o.spec for o in serial]) == stable_digest(
            [o.spec for o in pooled])


class TestCheckpointIntegrity:
    def test_truncated_checkpoint_quarantined_and_rerun(
            self, tier_tasks, tmp_path):
        # Regression for the integrity envelope: a checkpoint cut short
        # mid-file (killed writer, torn disk) must be detected by its
        # digest trailer, moved aside as evidence, and treated as a
        # miss — the damaged tier re-runs, the intact one resumes.
        ckpt_dir = str(tmp_path / "ckpt")
        run_tier_pipeline(tier_tasks, checkpoint_dir=ckpt_dir)
        ckpt = TierCheckpoint(ckpt_dir)
        victim = tier_tasks[0]
        path = ckpt.path(victim)
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[:len(blob) // 2])
        assert ckpt.load(path) is None
        assert not os.path.exists(path)
        assert os.path.exists(path + ".quarantined")
        log = str(tmp_path / "invocations")
        run_tier_pipeline(tier_tasks,
                          tier_fn=functools.partial(_logged_clone, log),
                          checkpoint_dir=ckpt_dir)
        with open(log) as handle:
            reran = handle.read().split()
        assert reran == [victim.artifacts.service]

    def test_bitflipped_checkpoint_rejected_by_digest(
            self, tier_tasks, tmp_path):
        ckpt = TierCheckpoint(str(tmp_path / "ckpt"))
        victim = tier_tasks[0]
        outcome = clone_tier(victim)
        ckpt.save(ckpt.path(victim), outcome)
        path = ckpt.path(victim)
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        blob[len(blob) // 2] ^= 0x40
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        assert ckpt.load(path) is None
        assert os.path.exists(path + ".quarantined")

    def test_legacy_plain_pickle_is_quiet_miss(self, tier_tasks, tmp_path):
        # Pre-envelope checkpoints (or foreign files) lack the artifact
        # magic: they miss without being quarantined as corruption.
        ckpt = TierCheckpoint(str(tmp_path / "ckpt"))
        path = ckpt.path(tier_tasks[0])
        with open(path, "wb") as handle:
            handle.write(b"\x80\x04legacy pickle bytes")
        assert ckpt.load(path) is None
        assert os.path.exists(path)
        assert not os.path.exists(path + ".quarantined")

    def test_older_payload_version_is_a_miss(self, tier_tasks, tmp_path):
        # A checkpoint of an older TierOutcome layout is intact but
        # unusable: a quiet miss that the re-run tier overwrites.
        ckpt_dir = str(tmp_path / "ckpt")
        ckpt = TierCheckpoint(ckpt_dir)
        victim = tier_tasks[0]
        path = ckpt.path(victim)
        integrity.save_object(path, clone_tier(victim),
                              schema=TierCheckpoint.SCHEMA,
                              version=TierCheckpoint.SCHEMA_VERSION - 1)
        assert ckpt.load(path) is None
        assert not os.path.exists(path + ".quarantined")
        log = str(tmp_path / "invocations")
        run_tier_pipeline([victim],
                          tier_fn=functools.partial(_logged_clone, log),
                          checkpoint_dir=ckpt_dir)
        with open(log) as handle:
            assert handle.read().split() == [victim.artifacts.service]
        assert ckpt.load(path) is not None

    def test_checkpoint_write_is_atomic(self, tier_tasks, tmp_path):
        ckpt = TierCheckpoint(str(tmp_path / "ckpt"))
        victim = tier_tasks[0]
        ckpt.save(ckpt.path(victim), clone_tier(victim))
        leftovers = [name for name in os.listdir(str(tmp_path / "ckpt"))
                     if ".tmp" in name]
        assert leftovers == []
        assert ckpt.load(ckpt.path(victim)) is not None
