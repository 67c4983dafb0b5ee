"""One benchmark pass in a fresh interpreter; prints one JSON object.

    python3 perfbench/worker.py WORKLOAD SEED MODE [--small] [--spans PATH]

``setup_s`` runs from the start of this script through ``import acmpts``
and input generation to the first operation.  Interpreter start-up comes
before it: the package cannot change it, and it only adds noise.
``MODE`` is ``setup`` (stop there), ``run`` or ``trace`` (run with every
layer wrapped, see ``tracing.py``).

A fresh interpreter per pass keeps process-global caches of the package,
such as the ``lru_cache`` on ``reisner_oracle._faces_of``, cold, as they
are for every CLI invocation.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse
import json
import resource
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import acmpts

    if Path(acmpts.__file__).resolve().parent != SRC / "acmpts":
        raise SystemExit(f"imported acmpts from {acmpts.__file__}, not from {SRC}")
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, args.small)
    setup_s = time.perf_counter() - START
    out = {"setup_s": setup_s}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        with tempfile.TemporaryDirectory(dir=HERE / "out") as workdir:
            out.update(workloads.run_pass(args.workload, inputs, workdir))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            out["layers"] = tracing.layer_metrics(tracer, out["busy_s"])
            if args.spans:
                tracer.write(args.spans)
        out["digest"] = workloads.digest_of(args.workload, inputs)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
