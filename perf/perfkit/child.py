"""Fresh-interpreter entry point: ``python -m perfkit.child <task> ...``.

``run.py`` starts one of these per ``sim_*`` round and per traced
``figs_*`` / ``sim_*`` pass, so in-process work always starts cold.
The last line of standard output is one JSON document.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfkit.child")
    parser.add_argument("task",
                        choices=["sim-round", "sim-traced", "figs-traced"])
    parser.add_argument("--workload", default="sim_single")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--warm", action="store_true")
    parser.add_argument("--started-at", type=float, default=0.0)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    if args.task == "sim-round":
        from .sim import run_round

        doc = run_round(args.workload, args.seed, args.smoke,
                        args.started_at)
    elif args.task == "sim-traced":
        from .sim import run_traced

        doc = run_traced(args.workload, args.seed, args.smoke,
                         args.spans_out)
    else:
        from . import gen
        from .figs import traced_campaign

        doc = traced_campaign(gen.figure_order(args.seed, args.smoke),
                              args.cache_dir, args.spans_out, args.warm)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
