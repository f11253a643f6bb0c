"""Self-test of the tracer at a tiny size: `python3 perfbench/selftest.py`.

Runs the three workloads' code under the tracer on a tiny corpus with a few
training steps and one short decode per length stratum, then checks that
every function in tracing.LAYERS recorded at least one span, that no span's
children outlast it, and that every per-layer metric can be derived. Exits 1
on a failure.
"""

from __future__ import annotations

import json
import sys

import run  # sets the BLAS thread count before numpy loads
import stack
from tracing import LAYERS, Tracer

TINY = {
    "corpus.texts": 120, "corpus.heldout_texts": 20, "codec.iters": 3,
    "enc.sem_steps": 20, "enc.spk_steps": 20, "oracle.transcriber_steps": 60,
    "train.asr_steps": 2, "train.vc_steps": 2, "train.joint_steps": 2,
}


def main() -> int:
    stack.import_synthvc()
    from synthvc import checkpoint as ck, trainer as tr

    work = stack.CACHE / "selftest"
    prepare = run.Prepare(0, TINY)
    prepare.work = work
    tracer = Tracer()
    tracer.install()
    try:
        state = prepare.setup()
        units = [run.run_unit(prepare, state)]
        root = state[0]
        config = {**TINY, **prepare.values}
        train = run.Train(0, root, config)
        ctx, plan = state = train.setup()
        ck.save_checkpoint(root / "lm.ckpt", ck.params_to_components(
            tr.init_pipeline_params(ctx, plan.seed), frozen=False))
        units.append(run.run_unit(train, state))
        convert = run.Convert(0, root, config, max_steps=16)
        units.append(run.run_unit(convert, convert.setup()))
    finally:
        tracer.uninstall()
        prepare.close()

    table = tracer.table()
    problems = [p for u in units for p in u.problems]
    problems += [f"{name}: no span recorded" for name, _, _ in LAYERS
                 if table.get(name, {}).get("calls", 0) == 0]
    if tracer.nesting_violations():
        problems.append(f"{tracer.nesting_violations()} spans outlast their parent")
    metrics = tracer.layer_metrics(table)
    with open(stack.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        wanted = [m["name"] for m in json.load(fh)["per_layer"]]
    problems += [f"per-layer metric {m} not derived" for m in wanted
                 if m not in metrics and m != "trace.slowdown"]
    for p in problems:
        print(f"selftest: {p}")
    print(f"selftest: {len(tracer.start)} spans, {len(table)} layers, "
          f"{'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
