"""Command-line interface: batch decisions over JSON instance files.

All results go to stdout as key-sorted JSON; diagnostics go to stderr.
Exit codes are a stable contract: 0 equivalent / verified, 1 not equivalent /
not verified, 2 input error, 3 word budget exceeded, 4 internal error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import textwrap
import traceback

from . import engines, fileio, instances, words
from .gadgets import (
    build_congruence_K,
    build_congruence_K_prime,
    build_general_gadget,
    build_similarity_gadget,
)
from .numerics import ModeMismatchError, _far

EXIT_EQUIVALENT = 0
EXIT_NOT_EQUIVALENT = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3
EXIT_INTERNAL_ERROR = 4


def _emit(doc):
    print(json.dumps(doc, sort_keys=True, indent=2))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unieq",
        description=(
            "Decide simultaneous unitary similarity and congruence of "
            "complex matrix pairs with finitely many computations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide an instance file")
    p.add_argument("instance")
    p.add_argument("--engine", choices=("auto", "brute", "closure"), default="auto")
    p.add_argument("--tol", type=float, default=engines.DEFAULT_TOL)
    p.add_argument("--budget", type=int, default=engines.DEFAULT_BUDGET)
    p.add_argument("--max-length", type=int, default=None)
    p.add_argument(
        "--use-k-gadget",
        action="store_true",
        help=(
            "decide through the paper's gadget and its 4n-by-4n K gadget "
            "instead of the real 2n letters; slower in exact mode, where a NO "
            "on one 2x2 pair fills a 64-dimensional span of the K gadget and "
            "takes about 0.1 s (a YES about 8 ms)"
        ),
    )

    p = sub.add_parser("bound", help="print the word-length bound for size m")
    p.add_argument("m", type=int)

    p = sub.add_parser("gadget", help="emit constructed gadget matrices")
    p.add_argument("path")
    p.add_argument(
        "--which",
        choices=("similarity", "general", "K", "Kprime"),
        default="general",
    )

    p = sub.add_parser("words", help="trace table for a matrix pair file")
    p.add_argument("pair")
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--max-exponent", type=int, default=None)
    p.add_argument(
        "--dedup",
        choices=(words.DEDUP_NONE, words.DEDUP_CYCLIC, words.DEDUP_CYCLIC_STAR),
        default=words.DEDUP_NONE,
    )
    p.add_argument("--tol", type=float, default=engines.DEFAULT_TOL)

    p = sub.add_parser("gen", help="generate a seeded instance with a witness")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m1", type=int, default=0)
    p.add_argument("--m2", type=int, default=0)
    p.add_argument("--m3", type=int, default=0)
    p.add_argument("--m4", type=int, default=0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--witness-out", required=True)
    p.add_argument("--perturb", type=float, default=None)
    p.add_argument("--perturb-seed", type=int, default=None)

    p = sub.add_parser("verify", help="check a witness file against an instance")
    p.add_argument("instance")
    p.add_argument("witness")
    p.add_argument("--tol", type=float, default=engines.DEFAULT_TOL)

    return parser


def _layout_json(layout):
    def parity(x):
        return "odd" if x % 2 else "even"

    return {
        "n": layout.n,
        "k": layout.k,
        "placements": [
            {
                "set": p.set_id,
                "pair_index": p.pair_index,
                "i": p.i,
                "j": p.j,
                "parity": [parity(p.i), parity(p.j)],
            }
            for p in layout.placements
        ],
    }


def _cmd_decide(args) -> int:
    inst = fileio.load_instance(args.instance)
    verdict = engines.solve_general(
        inst,
        engine=args.engine,
        tol=args.tol,
        budget=args.budget,
        max_length=args.max_length,
        use_k_gadget=args.use_k_gadget,
    )
    _emit(verdict.to_json())
    return EXIT_EQUIVALENT if verdict.equivalent else EXIT_NOT_EQUIVALENT


def _cmd_bound(args) -> int:
    floor = engines.floor_length_bound(args.m)
    value = words.pappacena_bound(args.m) if args.m > 1 else floor
    _emit({"m": args.m, "bound": round(value, 2), "floor": floor})
    return 0


def _cmd_gadget(args) -> int:
    if args.which in ("K", "Kprime"):
        matrix = fileio.load_matrix(args.path)
        builder = build_congruence_K if args.which == "K" else build_congruence_K_prime
        out = builder(matrix)
        _emit({"which": args.which, "K": fileio.matrix_json(out)})
        return 0
    inst = fileio.load_instance(args.path)
    if args.which == "similarity":
        if any((inst.S2, inst.S3, inst.S4)):
            raise fileio.InstanceFormatError(
                "similarity gadgets take pure-S1 instances"
            )
        ga, gb = build_similarity_gadget(inst.S1, inst.n)
    else:
        ga, gb = build_general_gadget(inst)
    _emit(
        {
            "which": args.which,
            "layout": _layout_json(ga.layout),
            "A": fileio.matrix_json(ga.M),
            "B": fileio.matrix_json(gb.M),
        }
    )
    return 0


def _cmd_words(args) -> int:
    engines._check_tol(args.tol)
    a, b = fileio.load_pair(args.pair)
    engines._check_budget(
        args.max_length, args.max_exponent, engines.DEFAULT_BUDGET, args.dedup
    )
    stream = words.iter_word_traces(
        [[a, a.adjoint()], [b, b.adjoint()]],
        args.max_length,
        args.max_exponent,
        args.dedup,
    )
    first = next(stream, None)  # the walk checks its arguments as it starts
    # the bytes of _emit({"max_length": ..., "rows": [...]}), written row by
    # row as the walk yields them, so the table is never held in memory
    out = sys.stdout
    out.write('{\n  "max_length": %s,\n  "rows": [' % json.dumps(args.max_length))
    sep = "\n"
    for word, (ta, tb) in itertools.chain([first] if first else [], stream):
        row = {
            "word": str(word),
            "trace_a": engines._scalar_json(ta),
            "trace_b": engines._scalar_json(tb),
            "match": not _far(ta, tb, args.tol),
        }
        out.write(sep + textwrap.indent(json.dumps(row, sort_keys=True, indent=2), "    "))
        sep = ",\n"
    out.write("\n  ]\n}\n" if first else "]\n}\n")
    return 0


def _cmd_gen(args) -> int:
    gen = instances.make_yes_instance(
        args.n, args.m1, args.m2, args.m3, args.m4, args.seed
    )
    if args.perturb is not None:
        pseed = args.perturb_seed if args.perturb_seed is not None else args.seed + 1
        gen = instances.perturb_to_no(gen, args.perturb, pseed)
    fileio.save_instance(gen.inst, args.out)
    fileio.save_matrix(gen.witness, args.witness_out)
    _emit(
        {
            "instance": args.out,
            "witness": args.witness_out,
            "label": gen.label,
            "seed": args.seed,
        }
    )
    return 0


def _cmd_verify(args) -> int:
    inst = fileio.load_instance(args.instance)
    witness = fileio.load_matrix(args.witness)
    ok = engines.verify_witness(inst, witness, tol=args.tol)
    _emit({"verified": ok})
    return 0 if ok else 1


_COMMANDS = {
    "decide": _cmd_decide,
    "bound": _cmd_bound,
    "gadget": _cmd_gadget,
    "words": _cmd_words,
    "gen": _cmd_gen,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except engines.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (fileio.InstanceFormatError, ModeMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:
        # anything else is a fault of the program, not a verdict: keep it
        # off exit code 1, which means NotEquivalent
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
