"""gyroshot benchmark: training steps, evaluation episodes and memory.

Drives the package from outside, through the calls a user makes:
`generate_synthetic`, `train()` with its `on_episode` hook, `evaluate()`,
`ModelBundle.save`/`load` and `sample_episode`. Nothing in `src/` records a
span; every timer is a wrapper installed by this directory's files.

    python3 perfbench/run.py --workload train_app2s --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
(see tracing.py). The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. A record of the run, with
every sample and, when traced, every span, is written to perfbench/out/.
"""

import time

_T_START = time.perf_counter()

import os  # noqa: E402

# One process, no extra threads: BLAS reads these when numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import namedtuple  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# the package is measured from this checkout's sources, never from an
# installed copy
if not (SRC / "gyroshot" / "__init__.py").is_file():
    sys.exit(f"{SRC / 'gyroshot'} not found: run from the root of a gyroshot checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import gyroshot  # noqa: E402
from gyroshot import (  # noqa: E402
    BallConfig,
    GyroshotError,
    ModelBundle,
    ModelConfig,
    SyntheticConfig,
    TrainConfig,
    autodiff,
    evaluate,
    generate_synthetic,
    train,
)
from tracing import STAGES, Tracer, train_mod, typical  # noqa: E402

_T_IMPORTED = time.perf_counter()

OUT_DIR = HERE / "out"
BALL = BallConfig(c=0.7)
#: accuracy every trained model must reach on its evaluated episodes;
#: chance is 1/5 in a 5-way episode
ACCURACY_FLOOR = 0.5
#: the first samples of each kind in a process are warm-up: they are kept
#: in the record and in peak_rss_mb, and left out of the typical values
#: and the tails
WARMUP = {"train": 50, "eval": 10}
#: with the default 0.2 of 20 classes, 4 classes cannot form a 5-way
#: episode and train() silently skips validation; 0.25 keeps it on
VAL_FRACTION = 0.25
_MB = 1e6

END_TO_END = {
    "setup_s": "s",
    "train_step_ms": "ms",
    "eval_episode_ms": "ms",
    "peak_rss_mb": "MB",
    "peak_tape_mb": "MB",
}
#: printed and recorded on every run but left out of BENCHMARK.json: on a
#: shared machine the ten slowest samples of a run move with its CPU speed
#: phases, and their spread between runs reaches the largest allowed bound
REPORTED_ONLY = {"train_step_ms_tail": "ms", "eval_episode_ms_tail": "ms"}

_STAGE_UNITS = {"fwd_ms": "ms", "bwd_ms": "ms", "tape_nodes": "count", "tape_mb": "MB"}
PER_LAYER = {
    **{f"{stage}.{part}": unit
       for stage in STAGES for part, unit in _STAGE_UNITS.items()},
    "autodiff.backward_ms": "ms",
    "autodiff.tape_nodes": "count",
    "autodiff.tape_mb": "MB",
    "autodiff.grad_mb": "MB",
    "autodiff.tapes_alive_max": "count",
    "autodiff.gc_ms": "ms",
    "autodiff.live_node_frac": "ratio",
    "autodiff.dead_params": "count",
    "train.optimizer_ms": "ms",
    "train.validation_ms": "ms",
    "episodes.sample_ms": "ms",
    "episodes.generate_s": "s",
    "netmods.checkpoint_save_ms": "ms",
    "netmods.checkpoint_load_ms": "ms",
    "trace.overhead_ms": "ms",
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; every size not named here is the default
    config (5-way 5-shot, 3 queries, 3x3 grid, C=16, c=0.7)."""

    variant: str
    primary: str            # "train" or "eval": the samples the run is about
    tasks: int              # training episodes per train() call (one epoch)
    val_tasks: int
    eval_tasks: int         # evaluate() episodes per round
    n_outliers: int
    setup_repeats: int


# Why each workload: see README.md in this directory.
WORKLOADS = {
    # every stage does work; backward, attention, the pairwise geodesic and
    # the live tapes set the step time and the peak RSS
    "train_app2s": Workload("app2s", "train", 10, 5, 5, 0, 5),
    # encoder and midpoint only, on a tape of small nodes: per-node Python
    # and GC overhead dominate
    "train_prototype": Workload("prototype", "train", 100, 5, 25, 0, 5),
    # untaped evaluation with 2 outliers per class: attention dominates, no
    # backward or optimizer runs; set-up trains the checkpoint it evaluates
    "eval_app2s_outliers": Workload("app2s", "eval", 30, 5, 20, 2, 3),
}
#: a training run trains at least this many steps before its model is
#: checked against ACCURACY_FLOOR
MIN_TRAIN_STEPS = 100


# ---------------------------------------------------------------------------
# environment record


def _blas_threads() -> str:
    """Thread count reported by the OpenBLAS that numpy loaded."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment() -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gyroshot": gyroshot.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


# ---------------------------------------------------------------------------
# timing from outside


Sample = namedtuple("Sample", "kind step start seconds traced round")


class EpisodeClock:
    """Times episodes through the public hooks.

    A window opens when `sample_episode` is called. A training step's window
    closes at the `on_episode` hook, so it holds the forward, the backward
    and the Adam step. Validation and evaluation windows close at the next
    `sample_episode` call or when train()/evaluate() returns.
    """

    def __init__(self, checks):
        self.checks = checks
        self.samples = []          # Sample tuples
        self.round = 0             # set-up repeats count down from -1
        self.phase = None          # "train" or "eval": the public call running
        self.train_seed = None     # TrainConfig.seed of the running train()
        self.traced = False
        self.kind = None           # kind of the open window
        self.step = 0              # id of the open window
        self.root = None           # loss Var of the current step
        self.peak_tape_bytes = 0
        self.eval_infos = []
        self.tracer = None
        self._t0 = None

    def install(self) -> None:
        sample, backward, forward = (
            train_mod.sample_episode, autodiff.backward, train_mod.episode_forward)
        clock = self

        def timed_sample(dataset, spec, index=0):
            clock.open(spec)
            return sample(dataset, spec, index)

        def keep_root(root):
            clock.root = root
            return backward(root)

        def keep_info(*args, **kwargs):
            out = forward(*args, **kwargs)
            if clock.kind == "eval":
                clock.eval_infos.append(out[1])
            return out

        train_mod.sample_episode = timed_sample
        autodiff.backward = keep_root
        train_mod.episode_forward = keep_info

    def open(self, spec) -> None:
        t = perf_counter()
        self.close(t)
        if self.phase == "eval":
            self.kind = "eval"
        else:
            self.kind = "train" if spec.seed == self.train_seed else "val"
        self.step += 1
        self._t0 = t

    def close(self, t) -> None:
        if self._t0 is not None:
            self.samples.append(
                Sample(self.kind, self.step, self._t0, t - self._t0, self.traced, self.round))
            self._t0 = None
            self.kind = None

    def on_episode(self, info) -> None:
        """train()'s hook: ends the step, then checks it outside the window."""
        self.close(perf_counter())
        self.checks.op("train step", episode_problems(info))
        root, self.root = self.root, None
        if root is not None:
            nodes = root.tape.nodes
            self.peak_tape_bytes = max(self.peak_tape_bytes, sum(
                n.value.nbytes + (0 if n.grad is None else n.grad.nbytes) for n in nodes))
            if self.tracer is not None:
                self.tracer.after_step(root)

    def run(self, phase, fn, *args, **kwargs):
        """Call train() or evaluate() with the windows of `phase`."""
        self.phase = phase
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(perf_counter())
            self.phase = None

    def seconds(self, kind, traced=None, skip_warmup=True):
        picked = [x for x in self.samples if x.kind == kind]
        if skip_warmup:
            picked = picked[WARMUP.get(kind, 0):]
        return [x.seconds for x in picked if traced is None or x.traced == traced]

    def steps(self, kind, traced):
        return [x.step for x in self.samples if x.kind == kind and x.traced == traced]


# ---------------------------------------------------------------------------
# correctness


class Checks:
    """Counts operations and the ones whose outputs fail a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.accuracies = []

    def op(self, what: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {'; '.join(problems)}")

    def accuracy(self, what: str, value: float) -> None:
        """A trained model must clear ACCURACY_FLOOR on its evaluated episodes."""
        self.accuracies.append(value)
        self.op(what, [] if value >= ACCURACY_FLOOR else [
            f"accuracy {value:.4f} below the floor {ACCURACY_FLOOR}"])


def episode_problems(info) -> list:
    """Finite loss, convex weights, and the convex-combination bound."""
    problems = []
    if not math.isfinite(info["loss"]):
        problems.append(f"loss {info['loss']} is not finite")
    w = info["weights"]
    if w is not None:
        if np.any(w < 0.0):
            problems.append(f"negative weight {w.min()}")
        err = float(np.max(np.abs(w.sum(axis=-1) - 1.0)))
        if err > 1e-9:
            problems.append(f"class weights sum to 1 +- {err}")
    s2s = info["s2s"]
    if s2s is not None:
        d = info["distances"]
        slack = 1e-9 * (1.0 + np.abs(s2s).max(axis=-1))
        outside = (d < s2s.min(axis=-1) - slack) | (d > s2s.max(axis=-1) + slack)
        if np.any(outside):
            problems.append(f"{int(outside.sum())} class distances outside their s2s range")
    return problems


def check_eval_infos(clock, checks) -> None:
    for info in clock.eval_infos:
        checks.op("eval episode", episode_problems(info))
    clock.eval_infos.clear()


# ---------------------------------------------------------------------------
# workloads


def round_seed(seed: int, r: int) -> int:
    """TrainConfig.seed of round r; round 0 uses the workload seed itself."""
    return seed + (r << 40)


def train_cfg(w: Workload, seed: int) -> TrainConfig:
    return TrainConfig(ball=BALL, seed=seed, epochs=1, tasks_per_epoch=w.tasks,
                       val_fraction=VAL_FRACTION, val_tasks=w.val_tasks).variant(w.variant)


def model_config(dataset) -> ModelConfig:
    """The default model for `dataset`, as train() builds it."""
    h, w, c = dataset.dims
    return ModelConfig(in_dim=c, grid=(h, w))


def roundtrip(bundle, path: Path, model_cfg, seed: int, timings, checks):
    """Save and load through ModelBundle; the loaded state must be identical."""
    t0 = perf_counter()
    bundle.save(path)
    t1 = perf_counter()
    loaded = ModelBundle.load(path, model_cfg, seed=seed)
    t2 = perf_counter()
    timings["save"].append(t1 - t0)
    timings["load"].append(t2 - t1)
    data = path.read_bytes()
    path.unlink()
    before, after = bundle.state_dict(), loaded.state_dict()
    checks.op("checkpoint round trip", [] if all(
        np.array_equal(before[k], after[k]) for k in before) else ["state changed"])
    return loaded, data


def setup(w: Workload, seed: int, clock, checks, timings, ckpt: Path):
    """Set up `w.setup_repeats` times; returns the dataset and, for the
    evaluation workload, the loaded checkpoint."""
    durations, fixtures = [], []
    bundle = dataset = None
    for i in range(w.setup_repeats):
        clock.round = -1 - i
        t0 = perf_counter()
        dataset = generate_synthetic(SyntheticConfig(seed=seed), BALL)
        t1 = perf_counter()
        timings["generate"].append(t1 - t0)
        model_cfg = model_config(dataset)
        if w.primary == "train":
            ModelBundle(model_cfg, seed=seed)
        else:
            cfg = train_cfg(w, seed)
            clock.train_seed = cfg.seed
            result = clock.run("train", train, dataset, cfg, model_cfg,
                               on_episode=clock.on_episode)
            bundle, data = roundtrip(result.bundle, ckpt, model_cfg, seed, timings, checks)
            fixtures.append(data)
        durations.append(perf_counter() - t0)
    if fixtures:
        checks.op("fixture determinism",
                  [] if len(set(fixtures)) == 1 else ["repeated set-ups wrote different checkpoints"])
    gc.collect()
    return dataset, bundle, durations


def run_rounds(seconds, min_rounds, clock, tracer, body) -> int:
    """Call body(r) for rounds r = 0, 1, ... until `seconds` pass and at
    least `min_rounds` ran.

    A traced run alternates untraced and traced rounds, starting untraced,
    and runs at least three. So that its exact counts cover a fixed amount
    of work, they come from round 1 alone, and the live-tape count from the
    first `min_rounds` rounds.
    """
    t_start = perf_counter()
    if tracer is not None:
        min_rounds = max(min_rounds, 3)
    r = 0
    while r < min_rounds or perf_counter() - t_start < seconds:
        traced = tracer is not None and r % 2 == 1
        if tracer is not None:
            tracer.count_alive = r < min_rounds
        if traced:
            tracer.exact = r == 1
            tracer.install()
        clock.traced, clock.round = traced, r
        try:
            body(r)
        finally:
            if traced:
                tracer.uninstall()
                tracer.exact = False
            clock.traced = False
        r += 1
    return r


def measure_train(w, seed, seconds, dataset, clock, checks, timings, tracer, ckpt):
    """Short train() calls, each warm-started from the checkpoint of the one
    before, with a few evaluate() episodes after each. Interleaving the two
    keeps both kinds of sample spread over the whole run."""
    model_cfg = model_config(dataset)
    state, accuracies = None, []

    def body(r):
        nonlocal state
        cfg = train_cfg(w, round_seed(seed, r))
        clock.train_seed = cfg.seed
        try:
            result = clock.run("train", train, dataset, cfg, model_cfg,
                               on_episode=clock.on_episode, init_state=state)
        except GyroshotError as e:
            checks.op(f"training round {r}", [f"{type(e).__name__}: {e}"])
            return
        loaded, _ = roundtrip(result.bundle, ckpt, model_cfg, cfg.seed, timings, checks)
        state = loaded.state_dict()
        report = clock.run("eval", evaluate, dataset, loaded, cfg, n_epochs=1,
                           tasks_per_epoch=w.eval_tasks, seed=cfg.seed + 2**33)
        check_eval_infos(clock, checks)
        accuracies.append(report.mean_accuracy)

    rounds = run_rounds(seconds, math.ceil(MIN_TRAIN_STEPS / w.tasks), clock, tracer, body)
    checks.accuracy("trained model", accuracies[-1] if accuracies else 0.0)
    return rounds


def measure_eval(w, seed, seconds, dataset, bundle, clock, checks, tracer):
    """evaluate() chunks of the fixture checkpoint until `seconds` pass."""
    cfg = train_cfg(w, seed)
    accs = []

    def body(r):
        report = clock.run("eval", evaluate, dataset, bundle, cfg, n_epochs=1,
                           tasks_per_epoch=w.eval_tasks, n_outliers=w.n_outliers,
                           seed=round_seed(seed, r) + 2**33)
        check_eval_infos(clock, checks)
        accs.extend(report.per_task)

    rounds = run_rounds(seconds, 1, clock, tracer, body)
    checks.accuracy("fixture", float(np.mean(accs)))
    return rounds


# ---------------------------------------------------------------------------
# statistics


def tail(values):
    """Highest whole percentile with at least 10 samples above it.

    Returns (value, percentile, sample count); nearest-rank percentiles.
    """
    n = len(values)
    ordered = sorted(values)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], p, n
    return (ordered[-1] if ordered else 0.0), 100, n


def end_to_end(clock, setup_s) -> tuple[dict, dict]:
    metrics, detail = {"setup_s": setup_s}, {}
    for kind, name in (("train", "train_step_ms"), ("eval", "eval_episode_ms")):
        ms = [1e3 * s for s in clock.seconds(kind, traced=False)]
        value, p, n = tail(ms)
        metrics[name] = typical(ms)
        metrics[f"{name}_tail"] = value
        warm = [1e3 * s for s in clock.seconds(kind, skip_warmup=False)][:WARMUP[kind]]
        detail[name] = {"samples": n, "tail_percentile": p,
                        "warmup_samples": len(warm), "warmup_typical_ms": typical(warm)}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / _MB
    metrics["peak_tape_mb"] = clock.peak_tape_bytes / _MB
    return metrics, detail


def layer_metrics(w, clock, tracer, timings) -> dict:
    kind = w.primary
    traced_steps = clock.steps(kind, traced=True)
    out = tracer.per_layer(traced_steps, kind)
    # validation runs between steps, outside their windows; its time is
    # spread over the traced training steps
    val = [x.seconds for x in clock.samples if x.kind == "val" and x.traced]
    train_steps = clock.steps("train", traced=True)
    out["train.validation_ms"] = 1e3 * sum(val) / len(train_steps) if train_steps else 0.0
    out["episodes.generate_s"] = typical(timings["generate"])
    out["netmods.checkpoint_save_ms"] = 1e3 * typical(timings["save"])
    out["netmods.checkpoint_load_ms"] = 1e3 * typical(timings["load"])
    out["trace.overhead_ms"] = 1e3 * (
        typical(clock.seconds(kind, traced=True))
        - typical(clock.seconds(kind, traced=False)))
    return out


# ---------------------------------------------------------------------------
# entry points


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    w = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    ckpt = OUT_DIR / f"checkpoint-{os.getpid()}.bin"
    checks = Checks()
    clock = EpisodeClock(checks)
    clock.install()
    timings = {"generate": [], "save": [], "load": []}
    dataset, bundle, setup_durations = setup(w, seed, clock, checks, timings, ckpt)
    setup_s = (_T_IMPORTED - _T_START) + statistics.median(setup_durations)

    tracer = None
    if trace:
        cfg = train_cfg(w, seed)
        params = ModelBundle(model_config(dataset)).modules()
        names = [f"{m}.{k}" for m in train_mod.trainable_modules(cfg) for k in params[m].params]
        tracer = Tracer(clock, names)
        clock.tracer = tracer
        tracer.start_process_counters()

    if w.primary == "train":
        rounds = measure_train(w, seed, seconds, dataset, clock, checks, timings, tracer, ckpt)
    else:
        rounds = measure_eval(w, seed, seconds, dataset, bundle, clock, checks, tracer)

    e2e, detail = end_to_end(clock, setup_s)
    metrics = layer_metrics(w, clock, tracer, timings) if trace else {k: e2e[k] for k in END_TO_END}
    units = PER_LAYER if trace else END_TO_END
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": rounds, "environment": environment(),
        "import_s": _T_IMPORTED - _T_START, "setup_repeats_s": setup_durations,
        "end_to_end": e2e, "detail": detail,
        "attempted": checks.attempted, "failed": checks.failed, "failures": checks.failures,
        "accuracies": checks.accuracies,
        "samples": clock.samples,
    }
    if trace:
        record["per_layer"] = metrics
        record["exact"] = tracer.exact_detail()
        record["spans"] = tracer.spans
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))

    env = record["environment"]
    print(f"# {name} seed={seed} seconds={seconds} trace={int(trace)} rounds={rounds}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for kind, name_ in (("train", "train_step_ms"), ("eval", "eval_episode_ms")):
        d = detail[name_]
        print(f"# {name_}: {d['samples']} samples after {d['warmup_samples']} warm-up "
              f"(warm-up typical {d['warmup_typical_ms']:.3f} ms); tail is p{d['tail_percentile']}")
    if trace:
        print(f"# exact counts over {record['exact']['exact_steps']} steps; live node base "
              f"{record['exact']['live_node_base']}; dead {record['exact']['dead_param_names']}")
    for key, value in metrics.items():
        print(f"{key:40s} {value:14.6f} {units[key]}")
    if not trace:
        for key, unit in REPORTED_ONLY.items():
            print(f"{key:40s} {e2e[key]:14.6f} {unit} (reported, not gated)")
    print(f"operations: {checks.failed} failed of {checks.attempted} attempted; lowest "
          f"trained-model accuracy {min(checks.accuracies):.4f} (floor {ACCURACY_FLOOR})")
    for failure in checks.failures:
        print(f"FAILED {failure}")
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: int, trace: int) -> dict:
    """Each workload in a fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    return combined


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
