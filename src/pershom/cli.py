"""Command-line front end.

Exit codes: 0 on success, 1 on input/validation errors, 2 when a
theorem precondition fails (a diagram with births at -inf fed to the
Morse-inequality checker) or a Morse identity or inequality fails.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import io
from .barcode import TooLargeError, radical
from .bottleneck import bottleneck
from .covers import dowker_check
from .filtration import GF2, ComplexValidationError, PrimeField, betti_at, compute_persistence, persistence_diagram
from .gallery import DouglasInput, HawaiianSpec, douglas_eval, hawaiian_complex, hawaiian_rank_sweep, product_family
from .morse import MORSE_DEGREE_LIMIT, MorseCheckFailed, PreconditionViolated, cap_number, cap_number_at, morse_check


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="pershom",
        description="Persistent homology, cap numbers, Morse inequalities, "
        "bottleneck distance, and nerve/Vietoris duality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="persistence diagram of a filtered complex")
    p.add_argument("--input", required=True, help="filtration file (.flt)")
    p.add_argument("--field", type=int, default=2, help="prime coefficient field")
    p.add_argument("--output", required=True, help="diagram file to write (.dgm)")

    p = sub.add_parser("caps", help="cap numbers of a diagram")
    p.add_argument("--dgm", required=True, help="diagram file (.dgm)")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--at", type=float, default=None, help="cap number at a single value")
    p.add_argument("--degree", type=int, default=None)

    p = sub.add_parser("morse", help="Morse-inequality report for a diagram")
    p.add_argument("--dgm", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--max-degree", type=int, required=True)

    p = sub.add_parser("bottleneck", help="bottleneck distance of two diagrams")
    p.add_argument("diagram_a", metavar="a.dgm")
    p.add_argument("diagram_b", metavar="b.dgm")
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("radical", help="open attained left endpoints of a barcode")
    p.add_argument("--barcode", required=True, help="barcode file (.bar)")
    p.add_argument("--output", required=True, help="barcode file to write")

    p = sub.add_parser("dowker", help="compare nerve and Vietoris homology of a cover")
    p.add_argument("--cover", required=True, help="cover file (.cov)")
    p.add_argument("--field", type=int, default=2)

    p = sub.add_parser("hawaiian", help="earring truncation ranks")
    p.add_argument("--k", type=int, required=True, help="truncation index")
    p.add_argument("--sweep", type=int, default=None, metavar="KMAX", help="sweep k = 1..KMAX")

    p = sub.add_parser("product", help="truncated shrinking-interval barcode")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("douglas", help="evaluate the Douglas energy of a sampled curve")
    p.add_argument("--curve", required=True, help="curve samples (.csv)")
    p.add_argument("--phi", required=True, help="reparametrization samples (.csv) or 'id'")
    p.add_argument("--n", type=int, required=True, help="quadrature grid size")

    return parser


def _run(args: argparse.Namespace) -> None:
    if args.command == "compute":
        complex_ = io.read_filtration(args.input)
        diagram = persistence_diagram(complex_, PrimeField(args.field))
        io.write_diagram(args.output, diagram)
        print(f"{diagram.total()} points in {len(diagram.degrees())} degrees -> {args.output}")

    elif args.command == "caps":
        diagram = io.read_diagram(args.dgm)
        if args.degree is not None:
            degrees = [args.degree]
        else:  # every degree from 0 to one past the diagram's top degree
            top = max(diagram.degrees(), default=-1) + 1
            if top > MORSE_DEGREE_LIMIT:
                raise TooLargeError(f"listing degrees 0 to {top} is over {MORSE_DEGREE_LIMIT}; use --degree")
            degrees = range(top + 1)
        for d in degrees:
            if args.at is not None:
                value = cap_number_at(diagram, d, args.at, args.epsilon)
            else:
                value = cap_number(diagram, d, args.epsilon)
            print(f"{d} {value}")

    elif args.command == "morse":
        diagram = io.read_diagram(args.dgm)
        report = morse_check(diagram, args.epsilon, args.max_degree)
        print(report.render())

    elif args.command == "bottleneck":
        a = io.read_diagram(args.diagram_a)
        b = io.read_diagram(args.diagram_b)
        print(bottleneck(a, b, args.degree))

    elif args.command == "radical":
        barcode = io.read_barcode(args.barcode)
        out = radical(barcode)
        io.write_barcode(args.output, out)
        print(f"{len(out)} bars -> {args.output}")

    elif args.command == "dowker":
        cover = io.read_cover(args.cover)
        agree, nerve_ranks, vietoris_ranks = dowker_check(cover, PrimeField(args.field))
        print(f"agree: {'yes' if agree else 'no'}")
        print("nerve: " + " ".join(str(r) for r in nerve_ranks))
        print("vietoris: " + " ".join(str(r) for r in vietoris_ranks))

    elif args.command == "hawaiian":
        if args.sweep is not None:
            for k, rank in hawaiian_rank_sweep(1, args.sweep):
                print(f"{k} {rank}")
        else:
            complex_ = hawaiian_complex(HawaiianSpec(1, args.k))
            barcode = compute_persistence(complex_, GF2)
            print(f"k={args.k} rank={betti_at(complex_, 1.0, 1, GF2)} "
                  f"({len(complex_)} simplices, {len(barcode)} bars)")

    elif args.command == "product":
        sys.stdout.write(io.format_barcode(product_family(args.n)))

    elif args.command == "douglas":
        curve = io.read_csv_samples(args.curve)
        if args.phi == "id":
            inp = DouglasInput.identity(curve, args.n)
        else:
            phi = io.read_csv_samples(args.phi).ravel()
            inp = DouglasInput(curve, phi, args.n)
        print(repr(douglas_eval(inp)))

    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(args.command)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _run(args)
    except (PreconditionViolated, MorseCheckFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (io.FormatError, ComplexValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
