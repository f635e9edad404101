"""``cold-train``: empty cache -> trained model -> held-out CCR.

Why this workload: training is where ``nn`` and ``core.model`` forward
and backward passes do almost all the work.  Measured on a 2-CPU
OpenBLAS host, one epoch over the M3 training corpus takes 48 s and
``Conv2D`` forward plus backward is about 77 % of training wall time,
while layout (2.2 s) and candidates/features (5.6 s) are small beside
it.  A change to the conv kernels, the dedup gather/scatter or the
optimiser moves this workload first.

One cycle, on a fresh ``REPRO_CACHE_DIR``: ``get_split`` for each
training design, ``SplitDataset`` (candidates + feature tensors, cold),
this data path ``DATA_REPEATS`` times over, each time on an empty cache,
then ``DLAttack.train`` with ``AttackConfig.benchmark()`` on a short fixed
schedule, then the CCR of the trained model on a held-out Table 3
design.  The training inputs are the same for every seed: all
labelled groups of a two-design corpus slice, configuration seed 0.
The seed picks the held-out design: c880 on the golden seed, else a
generated design of c880's flavour and size.  (Seeding the training
itself, through the configuration seed, made the conv work per step
and so the cycle time differ by about 10 % between seeds, because the
seed decides which groups share a batch and so how many unique images
the tower embeds.)
"""

from __future__ import annotations

import math
import time

from cold_attack import make_netlist
from common import median

# A two-design slice of the paper's nine-design M3 corpus (one random
# logic, one parity design; 59 labelled groups, 8 training steps),
# small enough that a cycle takes about seven seconds.
TRAIN_DESIGNS = ("train_alu2", "train_t481")
HELD_OUT = "c880"
SPLIT_LAYER = 3
EPOCHS = 1
# The data path is short (about 0.4 s) and Python-heavy, so one sample
# of it per cycle spread 20 % between runs; it is timed this many times
# a cycle and the median over all of them is used.
DATA_REPEATS = 3


class ColdTrain:
    name = "cold-train"
    # What work_per_cpu_s and aux_per_cpu_s count on this workload.
    units = ("train groups/s", "sink groups/s of the cold data path")

    def __init__(self, seed: int, scratch):
        self.seed = seed
        self.scratch = scratch
        self.cycles = 0

    def _config(self):
        from repro.core import AttackConfig

        return AttackConfig.benchmark().with_(epochs=EPOCHS)

    def setup(self) -> None:
        """Import the stack and run one training step on a tiny design,
        so BLAS threads and lazy imports are up before timing."""
        from repro.core.attack import DLAttack
        from repro.pipeline import flow

        self.scratch.fresh_cache()
        flow.clear_memo()
        config = self._config().with_(max_train_groups_per_design=8)
        DLAttack(config, SPLIT_LAYER).train([flow.get_split("tiny_a", SPLIT_LAYER)])

    def cycle(self, recorder=None) -> dict:
        from repro.core.attack import DLAttack
        from repro.core.dataset import SplitDataset
        from repro.layout import design
        from repro.pipeline import flow
        from repro.split import split as split_mod

        config = self._config()
        times = {"splits": [], "features": []}
        for _ in range(DATA_REPEATS):
            self.scratch.fresh_cache()
            flow.clear_memo()
            started = time.process_time()
            splits = [flow.get_split(n, SPLIT_LAYER) for n in TRAIN_DESIGNS]
            times["splits"].append(time.process_time() - started)
            started = time.process_time()
            datasets = [SplitDataset(s, config) for s in splits]
            times["features"].append(time.process_time() - started)

        attack = DLAttack(config, SPLIT_LAYER)
        # Each training step is its own part (see run.end_to_end).
        step = getattr(attack, "_train_step", None)
        steps = []

        def timed_step(*args):
            step_started = time.process_time()
            loss = step(*args)
            steps.append(time.process_time() - step_started)
            return loss

        if step is not None:
            attack._train_step = timed_step
        started = time.process_time()
        log = attack.train(splits)
        times["train.other"] = time.process_time() - started - sum(steps)
        times.update({f"train.step{i}": t for i, t in enumerate(steps)})
        started = time.process_time()
        held_out = split_mod.split_design(
            design.build_layout(make_netlist(HELD_OUT, SPLIT_LAYER, self.seed)),
            SPLIT_LAYER,
        )
        ccr = attack.evaluate(held_out)
        times["eval"] = time.process_time() - started

        failures = []
        if not all(math.isfinite(x) for x in log.losses) or not log.losses:
            failures.append(f"non-finite training losses {log.losses}")
        path = self.scratch.path / f"weights-{self.cycles}.npz"
        attack.save(path)
        reloaded = DLAttack(config, SPLIT_LAYER)
        reloaded.load(path)
        round_trip = reloaded.evaluate(held_out)
        if round_trip != ccr:
            failures.append(
                f"save/load changed the held-out CCR: {ccr} -> {round_trip}"
            )
        self.cycles += 1
        trained = EPOCHS * sum(len(d.trainable_groups()) for d in datasets)
        return {
            "parts": times,
            "work": (trained, [k for k in times if k.startswith("train.")]),
            "aux": (sum(len(d.groups) for d in datasets), ["splits", "features"]),
            "trained_ccr_pct": ccr,
            "attempted": 2,  # the train-and-score pipeline, the round trip
            "failures": failures,
        }

    def stop(self) -> None:
        pass

    def probe(self) -> dict[str, float]:
        return {}

    @staticmethod
    def report(cycles: list[dict]) -> dict:
        return {"trained_ccr_pct": median(c["trained_ccr_pct"] for c in cycles)}
