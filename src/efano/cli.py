"""Command-line front end.

Subcommands map one-to-one onto the library modules: dipole-ladder,
scattering-length, efimov-count, efimov-ladder, profile-gen, and
profile-fit.  Exit codes: 0 on success, 1 on I/O failure, 2 on a
domain or precondition violation (argparse's own usage errors also
exit 2).

Formats: tables and curves are CSV with a single "# key=value ..."
header line followed by comma-separated data rows; reports are flat
JSON objects.  Every float is rendered in shortest round-trip form so
repeated runs are byte-identical.  Units are never converted; an
optional --unit-label is carried into headers as an annotation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .dipole_ladder import alpha_from_strength, build_ladder
from .efimov import UNBOUNDED, build_efimov_ladder, classify_states_vs_threshold, count_states
from .errors import DomainError, ToolkitError
from .fitter import compare_models, fit, report_to_json_dict
from .profiles import (
    MIN_CURVE_SAMPLES,
    BreitWignerParameters,
    CrossSectionCurve,
    FanoParameters,
    synthesize,
)
from .twobody import (
    DEFAULT_UNITARITY_TOL,
    SquareWell,
    binding_energy,
    scattering_length,
    tune_to_scattering_length,
)

__all__ = ["main"]


# --model values and the parameter class each selects.
_MODELS = {"fano": FanoParameters, "bw": BreitWignerParameters}

# Most levels either ladder command emits.  A near-flat ladder (alpha
# ~ 1e6) stays in the normal float range for ~1e8 levels, so an
# unchecked --count or --n-max could ask for tens of GB.
MAX_LEVELS = 10_000

# Largest profile-gen grid.  A curve costs ~190 bytes of peak memory
# per point (its arrays and its CSV rows; 10^5 points with noise, in
# process), so an unchecked --points could ask for any amount.
MAX_POINTS = 10_000_000


def _check_levels(levels: int) -> None:
    if levels > MAX_LEVELS:
        raise DomainError(f"{levels} levels requested; at most {MAX_LEVELS} are allowed")


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def _csv(pairs, rows, unit_label: str | None, columns: tuple[str, ...] = ()) -> str:
    """One "# key=value ..." header line, then one comma-joined line per row.

    unit_label, then columns, are the last header tokens when given.
    """
    pairs = list(pairs)
    # Header values are whitespace-delimited tokens; collapse any
    # whitespace inside the label so the grammar survives.
    unit_label = "_".join((unit_label or "").split())
    if unit_label:
        pairs.append(("unit_label", unit_label))
    if columns:
        pairs.append(("columns", ",".join(columns)))
    lines = ["# " + " ".join(f"{key}={_cell(value)}" for key, value in pairs)]
    lines += [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _json(obj) -> str:
    return json.dumps(obj) + "\n"


def _ladder(args, head: dict, csv_head: list, truncated_at, columns, rows) -> str:
    """A ladder as JSON (head, truncated_at, then the entries) or as CSV
    (head, then csv_head and truncated_at when set, in the header line)."""
    if args.format == "json":
        entries = [dict(zip(columns, row)) for row in rows]
        return _json({**head, "truncated_at": truncated_at, "entries": entries})
    pairs = [*head.items(), *csv_head]
    if truncated_at is not None:
        pairs.append(("truncated_at", truncated_at))
    return _csv(pairs, rows, args.unit_label, columns)


def _cmd_dipole_ladder(args: argparse.Namespace) -> str:
    _check_levels(args.n_max + 1)
    alpha = args.alpha if args.alpha is not None else alpha_from_strength(args.strength_a)
    ladder = build_ladder(alpha, args.n_max, scale=args.scale)
    entries = ladder.entries
    ratios = [None] + [cur.epsilon / prev.epsilon for prev, cur in zip(entries, entries[1:])]
    columns = ("n", "kappa", "epsilon", "ratio_to_previous")
    rows = [(e.n, e.kappa, e.epsilon, ratio) for e, ratio in zip(entries, ratios)]
    head = {"alpha": ladder.alpha, "scale": ladder.scale}
    return _ladder(args, head, [("n_max", args.n_max)], ladder.truncated_at, columns, rows)


def _cmd_scattering_length(args: argparse.Namespace) -> str:
    if args.tune_to is None and args.depth is None:
        raise DomainError("--depth is required unless --tune-to is given")
    well = SquareWell(args.depth if args.depth is not None else 1.0, args.range, args.mass)
    if args.tune_to is not None:
        well = tune_to_scattering_length(well, args.tune_to, args.branch)
    result = scattering_length(well, unitarity_tol=args.unitarity_tol)
    report: dict = {
        "a": "unitary" if result.unitary else result.a,
        "bound_state_count": result.bound_state_count,
    }
    epsilon2 = binding_energy(well)
    if epsilon2 is not None:
        report["binding_energy"] = epsilon2
    report["depth_V0"] = well.depth_V0
    if args.format == "json":
        return _json(report)
    pairs = [("range_Rw", well.range_Rw), ("reduced_mass_mu", well.reduced_mass_mu)]
    return _csv(pairs, report.items(), args.unit_label)


def _cmd_efimov_count(args: argparse.Namespace) -> str:
    a = math.inf if args.a_infinite else args.a
    count = count_states(a, args.r0)
    value: int | str = "unbounded" if count is UNBOUNDED else count
    return f"count,{value}\n" if args.format == "csv" else _json(value)


def _cmd_efimov_ladder(args: argparse.Namespace) -> str:
    by_count = args.count is not None
    by_window = args.a is not None or args.r0 is not None
    if by_count == by_window:
        raise DomainError("give either --count or the pair --a/--r0, not both")
    if by_window:
        if args.a is None or args.r0 is None:
            raise DomainError("--a and --r0 must be given together")
        count = count_states(args.a, args.r0)
        if count is UNBOUNDED:
            raise DomainError(
                "infinite scattering length gives an unbounded ladder; "
                "choose an explicit --count"
            )
        if count < 1:
            raise DomainError(
                f"no Efimov window: |a| = {abs(args.a)!r} supports no states "
                f"for r0 = {args.r0!r}"
            )
    else:
        count = args.count
    _check_levels(count)
    ladder = build_efimov_ladder(args.alpha_eff, args.ground_energy, count)
    csv_head = [("count", count)]
    columns: tuple[str, ...] = ("n", "energy")
    rows = ladder.entries
    if args.threshold is not None:
        # Energies rise along the ladder, so the bound levels come first.
        partition = classify_states_vs_threshold(ladder, args.threshold)
        csv_head.append(("threshold", args.threshold))
        columns += ("classification",)
        rows = [(n, energy, "bound") for n, energy in partition.bound]
        rows += [(n, energy, "embedded") for n, energy in partition.embedded]
    head = {"alpha_eff": ladder.alpha_eff, "ground_energy": ladder.ground_energy}
    return _ladder(args, head, csv_head, ladder.truncated_at, columns, rows)


def _curve_from_csv(text: str) -> CrossSectionCurve:
    energies: list[float] = []
    sigmas: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DomainError(f"malformed curve row at line {lineno}: {raw!r}")
        try:
            energies.append(float(parts[0]))
            sigmas.append(float(parts[1]))
        except ValueError as exc:
            raise DomainError(f"non-numeric curve row at line {lineno}: {raw!r}") from exc
    if not energies:
        raise DomainError("curve file contains no data rows")
    return CrossSectionCurve(energies, sigmas)


def _cmd_profile_gen(args: argparse.Namespace) -> str:
    if args.emin >= args.emax:
        raise DomainError(f"--emin must be below --emax, got {args.emin!r} >= {args.emax!r}")
    if not MIN_CURVE_SAMPLES <= args.points <= MAX_POINTS:
        raise DomainError(
            f"--points must be from {MIN_CURVE_SAMPLES} to {MAX_POINTS}, got {args.points}"
        )
    cls = _MODELS[args.model]
    names = [f.name for f in fields(cls)]
    if "q" in names and args.q is None:
        raise DomainError(f"--q is required for the {args.model} model")
    if "q" not in names and args.q is not None:
        raise DomainError(f"--q does not apply to the {args.model} model")
    params = cls(**{name: getattr(args, name) for name in names})
    # linspace may overflow at the ends of the float range; synthesize
    # rejects a grid left non-finite.
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(args.emin, args.emax, args.points)
    curve = synthesize(params, grid, args.noise, args.seed)
    return _csv(curve.meta.items(), zip(curve.energies, curve.sigmas), args.unit_label)


def _parse_guess(raw: str, cls: type):
    try:
        # Integer literals parse as floats, so every JSON number (and
        # nothing else) arrives as a float, however many digits it has.
        data = json.loads(raw, parse_int=float)
    except json.JSONDecodeError as exc:
        raise DomainError(f"--guess is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError("--guess must be a JSON object")
    expected = [f.name for f in fields(cls)]
    if set(data) != set(expected):
        raise DomainError(
            f"--guess for {cls.model} needs exactly the keys {', '.join(expected)}"
        )
    for key in expected:
        if not isinstance(data[key], float):
            raise DomainError(
                f"--guess value of {key} must be a JSON number, got {json.dumps(data[key])}"
            )
    return cls(**data)


def _cmd_profile_fit(args: argparse.Namespace) -> str:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"curve file is not UTF-8 text: {exc}") from exc
    curve = _curve_from_csv(text)
    if args.model == "both":
        if args.guess is not None:
            raise DomainError("--guess needs a single --model, not both")
        return _json(list(map(report_to_json_dict, compare_models(curve))))
    cls = _MODELS[args.model]
    guess = _parse_guess(args.guess, cls) if args.guess is not None else None
    return _json(report_to_json_dict(fit(curve, cls.model, guess)))


def _add_common(p: argparse.ArgumentParser, handler, formats=("csv", "json")) -> None:
    p.set_defaults(handler=handler)
    if formats:
        p.add_argument(
            "--format", choices=formats, default=formats[0],
            help="output format (default: %(default)s)",
        )
    p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    p.add_argument(
        "--unit-label", metavar="LABEL",
        help="annotation copied into output headers; never converted",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="efano",
        description=(
            "Geometric bound-state ladders, square-well scattering, and "
            "Fano/Breit-Wigner resonance profiles."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "dipole-ladder",
        help="bound-state ladder of a supercritical inverse-square attraction",
    )
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--alpha", type=float, help="supercritical index sqrt(a - 1/4)")
    g.add_argument(
        "--strength-a", type=float,
        help="coupling a of the -a/(2 r^2) potential; must exceed 1/4",
    )
    p.add_argument("--n-max", type=int, required=True,
                   help="deepest level is n=0; emit levels through n_max "
                        f"(at most {MAX_LEVELS - 1})")
    p.add_argument("--scale", type=float, default=2.0,
                   help="inverse-length prefactor of kappa (default: %(default)s)")
    _add_common(p, _cmd_dipole_ladder)

    p = sub.add_parser(
        "scattering-length",
        help="square-well scattering length, bound-state count, shallowest binding energy",
    )
    p.add_argument("--depth", type=float, help="well depth V0 > 0")
    p.add_argument("--range", type=float, required=True, help="well range Rw > 0")
    p.add_argument("--mass", type=float, required=True, help="reduced mass mu > 0")
    p.add_argument("--tune-to", type=float,
                   help="adjust the depth so the scattering length equals this value")
    p.add_argument("--branch", type=int, default=0,
                   help="depth branch m for --tune-to: x0 in (m*pi, (m+1)*pi)")
    p.add_argument("--unitarity-tol", type=float,
                   default=DEFAULT_UNITARITY_TOL,
                   help="|cos x0| below this reports a as unitary (default: %(default)s)")
    _add_common(p, _cmd_scattering_length, ("json", "csv"))

    p = sub.add_parser("efimov-count", help="number of three-body states in the window")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--a", type=float, help="two-body scattering length (signed)")
    g.add_argument("--a-infinite", action="store_true",
                   help="resonant limit |a| -> infinity")
    p.add_argument("--r0", type=float, default=1.0,
                   help="interaction range r0 > 0 (default: %(default)s)")
    _add_common(p, _cmd_efimov_count, ("json", "csv"))

    p = sub.add_parser("efimov-ladder", help="geometric tower of three-body energies")
    p.add_argument("--alpha-eff", type=float, required=True,
                   help="strength index of the effective 1/R^2 attraction; "
                        "close to 1 for three identical bosons")
    p.add_argument("--ground-energy", type=float, required=True,
                   help="deepest tower energy (negative)")
    p.add_argument("--count", type=int,
                   help=f"number of levels to emit (at most {MAX_LEVELS})")
    p.add_argument("--a", type=float, help="derive the count from --a and --r0")
    p.add_argument("--r0", type=float, help="interaction range for the derived count")
    p.add_argument("--threshold", type=float,
                   help="two-body binding energy; classifies levels bound/embedded")
    _add_common(p, _cmd_efimov_ladder)

    p = sub.add_parser("profile-gen", help="synthesize a resonance cross-section curve")
    p.add_argument("--model", choices=tuple(_MODELS), required=True)
    # dest names are the parameter classes' field names.
    p.add_argument("--er", dest="E_r", type=float, required=True,
                   help="resonance position E_r")
    p.add_argument("--gamma", dest="Gamma", type=float, required=True,
                   help="full width Gamma > 0")
    p.add_argument("--q", type=float, help="Fano index (fano model only)")
    p.add_argument("--sigma0", type=float, required=True, help="cross-section scale > 0")
    p.add_argument("--emin", type=float, required=True)
    p.add_argument("--emax", type=float, required=True)
    p.add_argument("--points", type=int, required=True,
                   help=f"grid size, {MIN_CURVE_SAMPLES} to {MAX_POINTS}")
    p.add_argument("--noise", type=float, default=0.0,
                   help="relative noise level (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="noise stream seed (default: %(default)s)")
    _add_common(p, _cmd_profile_gen, ())

    p = sub.add_parser("profile-fit", help="fit a curve file to resonance models")
    p.add_argument("--in", dest="input", required=True, metavar="PATH",
                   help="curve CSV produced by profile-gen (or same format)")
    p.add_argument("--model", choices=(*_MODELS, "both"), default="both")
    p.add_argument("--guess", help="JSON object with starting parameters")
    _add_common(p, _cmd_profile_fit, ())

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.handler(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
