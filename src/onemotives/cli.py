"""Command-line front end.

Subcommands build realizations from inline flags or a JSON spec file, run
the Hom/End solvers, and reproduce the classification tables by surveying
every Hasse-admissible trace.  Hom direction at this level is motivic:
``hom --a X --b Y`` computes morphisms of motives X -> Y, which the
contravariant realization turns into module maps realize(Y) -> realize(X)
before the solver runs.

Exit codes: 0 ok, 2 invalid input, 3 precision failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import crystal, homsolver, linalg, motivic
from .crystal import EllipticFilMode, OneMotiveSpec
from .errors import OneMotivesError, PrecisionExhausted, UnclassifiedShape
from .padic import PadicContext, rational_from_str

SURVEY_HEADERS = ("q", "t", "mode", "ordinary", "slopes", "end_dim", "class", "frob_member")


def _context(args) -> PadicContext:
    return PadicContext(args.p, args.f, args.prec)


def _integer(text: str, what: str) -> int:
    """int(text), or a ValueError that names the input it came from."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} needs an integer value") from None


def _parse_traces(text: str) -> tuple[int, ...]:
    return tuple(_integer(t, f"--elliptic trace {t.strip()!r}") for t in text.split(",") if t.strip() != "")


def _fil_mode(text: str) -> EllipticFilMode:
    """The parsed --fil-mode; its errors name the flag and the value."""
    if text.startswith("eigenline:"):
        _integer(text.split(":", 1)[1], f"fil mode {text!r}")
    try:
        return EllipticFilMode.parse(text)
    except ValueError as exc:
        raise ValueError(f"--fil-mode {text!r}: {exc}") from None


def _spec_from_args(args) -> OneMotiveSpec:
    """The spec file or the inline spec flags; giving both is an error."""
    inline = ("lattice", "torus", "elliptic", "kummer_lambda")
    given = [f"--{name.replace('_', '-')}" for name in inline if getattr(args, name) is not None]
    if args.spec:
        if given:
            raise ValueError(f"--spec excludes the inline spec flags, got {' '.join(given)}")
        with open(args.spec, "r", encoding="utf-8") as fh:
            return crystal.spec_from_jsonable(json.load(fh))
    lam = args.kummer_lambda
    return OneMotiveSpec(
        lattice_rank=args.lattice or 0,
        torus_dim=args.torus or 0,
        elliptic_traces=_parse_traces(args.elliptic or ""),
        kummer_lambda=rational_from_str(lam) if lam else None,
    )


def parse_inline_spec(text: str) -> OneMotiveSpec:
    """Compact spec strings like "lattice:1,torus:1" or "elliptic:3"."""
    lattice = torus = 0
    traces: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            kind, value = part.split(":", 1)
        except ValueError:
            raise ValueError(f"bad spec component {part!r}; expected kind:value") from None
        if kind not in ("lattice", "torus", "elliptic"):
            raise ValueError(f"unknown spec component kind {kind!r}")
        n = _integer(value, f"spec component {part!r}")
        if kind == "lattice":
            lattice += n
        elif kind == "torus":
            torus += n
        else:
            traces.append(n)
    return OneMotiveSpec(lattice_rank=lattice, torus_dim=torus, elliptic_traces=tuple(traces))


def parse_complex_spec(text: str, ctx: PadicContext, mode: EllipticFilMode) -> motivic.MotivicComplex:
    """Degree-annotated spec strings: "lattice:1,torus:1@0;lattice:1@2"."""
    summands = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "@" in chunk:
            body, deg = chunk.rsplit("@", 1)
            degree = _integer(deg, f"degree of complex summand {chunk!r}")
        else:
            body, degree = chunk, 0
        module = crystal.realize_one_motive(parse_inline_spec(body), ctx, fil_mode=mode)
        if module.dim > 0:
            summands.append((module, degree))
    return motivic.MotivicComplex(tuple(summands))


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, indent=2))


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _emit_basis(space) -> None:
    for i, b in enumerate(space.basis):
        _emit(f"basis[{i}]: {json.dumps(linalg.matrix_to_jsonable(b))}")


def _fmt_slopes(slopes) -> str:
    return "{" + ",".join(str(s) for s in slopes) + "}"


def _render_table(headers, rows) -> str:
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


# -- subcommands ---------------------------------------------------------------


def cmd_realize(args) -> int:
    ctx = _context(args)
    mode = _fil_mode(args.fil_mode)
    module = crystal.realize_one_motive(_spec_from_args(args), ctx, fil_mode=mode)
    if args.format == "json":
        _emit_json(crystal.module_to_jsonable(module))
    else:
        t_h, t_n = crystal.hodge_newton_numbers(module)
        _emit(
            f"module {module.label}: dim {module.dim}, weights {list(module.weights)}, "
            f"slopes {_fmt_slopes(crystal.newton_slopes_of(module))}, "
            f"hodge/newton ({t_h}, {t_n})"
        )
    return 0


def _classification_string(module, space) -> str:
    try:
        return homsolver.classify_end(module, space).summary()
    except UnclassifiedShape:
        return "unclassified"


def cmd_end(args) -> int:
    ctx = _context(args)
    mode = _fil_mode(args.fil_mode)
    module = crystal.realize_one_motive(_spec_from_args(args), ctx, fil_mode=mode)
    space = homsolver.end_algebra(module)
    tag = _classification_string(module, space)
    if args.format == "json":
        _emit_json(homsolver.homspace_to_jsonable(space, tag))
    else:
        _emit(f"end dimension: {space.dimension}")
        _emit(f"classification: {tag}")
        _emit(f"frobenius member: {_fmt_bool(homsolver.frobenius_membership(module, space))}")
        _emit_basis(space)
    return 0


def cmd_hom(args) -> int:
    ctx = _context(args)
    mode = _fil_mode(args.fil_mode)
    src = crystal.realize_one_motive(parse_inline_spec(args.a), ctx, fil_mode=mode)
    tgt = crystal.realize_one_motive(parse_inline_spec(args.b), ctx, fil_mode=mode)
    # motives are contravariant under realization: Hom(A, B) solves maps
    # realize(B) -> realize(A)
    space = homsolver.hom_space(tgt, src)
    if args.format == "json":
        _emit_json(homsolver.homspace_to_jsonable(space, None))
    else:
        _emit(f"hom dimension: {space.dimension}")
        _emit_basis(space)
    return 0


def survey_rows(ctx: PadicContext) -> list[dict]:
    """One row per admissible trace (plus scalar/jordan rows at t^2 = 4q)."""
    q = ctx.q
    bound = math.isqrt(4 * q)
    rows = []
    for t in range(-bound, bound + 1):
        modes = [EllipticFilMode("auto")]
        if t * t == 4 * q:
            modes += [EllipticFilMode("scalar"), EllipticFilMode("jordan")]
        for mode in modes:
            elliptic = crystal.realize_elliptic(t, mode, ctx)
            motive = crystal.direct_sum([crystal.realize_lattice(1, ctx), elliptic])
            space = homsolver.end_algebra(motive)
            classification = homsolver.classify_end(motive, space)
            rows.append(
                {
                    "q": q,
                    "t": t,
                    "mode": str(mode),
                    "ordinary": crystal.is_ordinary(t, ctx),
                    "slopes": crystal.newton_slopes_of(elliptic),
                    "end_dim": space.dimension,
                    "class": classification.tag_for_weight(-1),
                    "frob_member": homsolver.frobenius_membership(motive, space),
                }
            )
    return rows


def cmd_survey(args) -> int:
    ctx = _context(args)
    rows = survey_rows(ctx)
    if args.format == "json":
        for row in rows:
            out = dict(row)
            out["slopes"] = [str(s) for s in row["slopes"]]
            _emit(json.dumps(out))
    else:
        cells = [
            (
                str(r["q"]),
                str(r["t"]),
                r["mode"],
                _fmt_bool(r["ordinary"]),
                _fmt_slopes(r["slopes"]),
                str(r["end_dim"]),
                r["class"],
                _fmt_bool(r["frob_member"]),
            )
            for r in rows
        ]
        sys.stdout.write(_render_table(SURVEY_HEADERS, cells))
    return 0


def cmd_motivic_hom(args) -> int:
    ctx = _context(args)
    mode = _fil_mode(args.fil_mode)
    a = parse_complex_spec(args.a, ctx, mode)
    b = parse_complex_spec(args.b, ctx, mode)
    # contravariant flip, as in cmd_hom
    result = motivic.hom_complex(b, a)
    detail = {
        str(d): sum(h.dimension for h in spaces) for d, spaces in sorted(result.by_degree.items())
    }
    if args.format == "json":
        _emit_json({"dimension": result.dimension, "by_degree": detail})
    else:
        _emit(f"hom dimension: {result.dimension}")
        for d, v in detail.items():
            _emit(f"  degree {d}: {v}")
    return 0


# -- parser ---------------------------------------------------------------------


def _add_common(sub, default_format: str) -> None:
    sub.add_argument("--p", type=int, required=True, help="prime p")
    sub.add_argument("--f", type=int, default=1, help="exponent f with q = p^f")
    sub.add_argument("--prec", type=int, default=40, help="working precision in p-adic digits")
    sub.add_argument(
        "--format", choices=("json", "table"), default=default_format, help="output format"
    )


def _add_spec_flags(sub) -> None:
    sub.add_argument("--lattice", type=int, default=None, help="lattice rank (default 0)")
    sub.add_argument("--torus", type=int, default=None, help="torus dimension (default 0)")
    sub.add_argument("--elliptic", default=None, help="comma-separated Frobenius traces")
    sub.add_argument("--kummer-lambda", default=None, help="extension demo scalar (rational)")
    sub.add_argument("--spec", default=None, help="path to a JSON motive spec file; excludes the flags above")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onemotives",
        description=(
            "Realize one-motives over F_q as filtered phi-modules and compute "
            "Hom/End spaces by exact linear algebra."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_realize = sub.add_parser("realize", help="print the realization of a motive spec")
    _add_common(p_realize, "json")
    _add_spec_flags(p_realize)
    p_realize.set_defaults(func=cmd_realize)

    p_end = sub.add_parser("end", help="endomorphism algebra of a motive")
    _add_common(p_end, "json")
    _add_spec_flags(p_end)
    p_end.set_defaults(func=cmd_end)

    p_hom = sub.add_parser(
        "hom",
        help="Hom space between two motives",
        description=(
            "Computes Hom(A, B) of motives.  The realization is contravariant, "
            "so the solver receives maps realize(B) -> realize(A)."
        ),
    )
    _add_common(p_hom, "json")
    p_hom.add_argument("--a", required=True, help="source motive, e.g. torus:1 or lattice:1,elliptic:2")
    p_hom.add_argument("--b", required=True, help="target motive")
    p_hom.set_defaults(func=cmd_hom)

    p_survey = sub.add_parser(
        "survey", help="classification table over every trace with t^2 <= 4q"
    )
    _add_common(p_survey, "table")
    p_survey.set_defaults(func=cmd_survey)

    p_mot = sub.add_parser(
        "motivic-hom", help="Hom between formal complexes of motives"
    )
    _add_common(p_mot, "json")
    p_mot.add_argument("--a", required=True, help='complex spec, e.g. "lattice:1,torus:1@0;lattice:1@2"')
    p_mot.add_argument("--b", required=True, help="complex spec")
    p_mot.set_defaults(func=cmd_motivic_hom)
    # survey sweeps its own modes, so only the other subcommands take --fil-mode
    for sub_parser in (p_realize, p_end, p_hom, p_mot):
        sub_parser.add_argument(
            "--fil-mode",
            default="auto",
            help="Hodge line mode: auto | generic | eigenline:K | scalar | jordan",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PrecisionExhausted as exc:
        print(f"precision failure: {exc}; retry with a larger --prec", file=sys.stderr)
        return 3
    except (OneMotivesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
