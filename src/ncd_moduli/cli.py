"""Command-line frontend.

Subcommands cover the whole pipeline: divisor stratification, building
enumeration, map-type validation, dimension calculus, level systems, and
gluing problems.  ``--json`` switches to a machine envelope
{"version": "ncd-moduli/1", "command": ..., "result": ...}, which one writer
(``_emit``) puts around each subcommand's result.  Exit codes: 0 success,
1 validation failure, 2 malformed input.

Every input file goes through one reader (``_load``): it reads the path, or
standard input for ``-``, parses the JSON object and only then imports the
loader of that kind of file, so a call loads only its own modules.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

FORMAT_VERSION = "ncd-moduli/1"

# each input file kind: the module and the function that load its JSON object
_LOADERS = {
    "divisor": ("divisor", "divisor_from_dict"),
    "map-type": ("maptype", "maptype_from_dict"),
    "gluing": ("levelsys", "gluing_from_dict"),
}


class InputError(Exception):
    pass


def _load(kind: str, path: str):
    """The ``kind`` file at ``path`` (``-`` is standard input), loaded; a file
    that cannot be read, is not UTF-8 JSON with an object at the top level or
    that the loader refuses raises ``InputError``."""
    try:
        if path == "-":
            obj = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # not UTF-8 JSON, nested too deep, or an integer too long
        raise InputError(f"malformed {kind} file: {e}") from e
    if not isinstance(obj, dict):
        raise InputError(f"malformed {kind} file: top level must be a JSON object, not {type(obj).__name__}")
    module, name = _LOADERS[kind]
    load = getattr(importlib.import_module(f".{module}", __package__), name)
    try:
        return load(obj)
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed {kind} file: {e}") from e


def _emit(args, result=None, human_lines=(), *, text: str | None = None) -> None:
    """Print human_lines, or with ``--json`` the envelope of ``args.command``
    around ``text``, the result's JSON text, written from ``result`` unless the
    caller holds it.  The text is indented one step further: a JSON string
    token holds no raw newline."""
    if not args.json:
        for line in human_lines:
            print(line)
        return
    if text is None:
        text = json.dumps(result, indent=2, sort_keys=True)
    text = text.replace("\n", "\n  ")
    print(f'{{\n  "command": "{args.command}",\n  "result": {text},\n  "version": "{FORMAT_VERSION}"\n}}')


# -- subcommands -----------------------------------------------------------------


def _cmd_validate(args) -> int:
    mt = _load("map-type", args.file)
    from dataclasses import asdict

    v = mt.validation
    result = {**asdict(v), "valid": v.valid, "degree_ok": None if v.structure else True}
    lines = [f"valid: {v.valid}"]
    for key in ("structure", "naive", "broken_cylinders"):
        if result[key]:
            lines += [f"{key} violations:"] + [f"  - {x}" for x in result[key]]
    if v.enhanced is not None:
        lines.append(f"enhanced matching: {'satisfiable' if v.enhanced else v.enhanced_failure}")
    if v.relatively_stable is not None:
        lines.append(f"relatively stable: {v.relatively_stable}")
    _emit(args, result, lines)
    return 0 if v.valid else 1


def _cmd_strata(args) -> int:
    d = _load("divisor", args.file)
    from . import divisor as dv

    problems = dv.validate(d)
    if problems:
        _emit(args, {"valid": False, "violations": problems},
              ["invalid divisor:"] + [f"  - {v}" for v in problems])
        return 1
    depths = [args.k] if args.k is not None else sorted({s.depth for s in d.strata if s.depth >= 1})
    table = {}
    lines = []
    for k in depths:
        try:
            c = dv.stratum_counts(d, k)
        except ValueError as e:
            raise InputError(str(e)) from e
        table[str(k)] = {
            "resolution_of_Vk": c.resolution_of_vk,
            "double_resolution": c.double_resolution,
            "resolution_of_Wk1": c.resolution_of_wk1,
        }
        lines.append(
            f"depth {k}: resolution {c.resolution_of_vk}, cover {c.double_resolution}, "
            f"next divisor {c.resolution_of_wk1}"
        )
    _emit(args, {"valid": True, "counts": table}, lines)
    return 0


def _multi_levels(text: str) -> list[int]:
    levels = []
    for x in text.split(","):
        try:
            levels.append(int(x))
        except ValueError:
            raise InputError(f"--multi: entry {x!r} is not an integer") from None
    return levels


def _cmd_building(args) -> int:
    levels = None if args.multi is None else _multi_levels(args.multi)
    d = _load("divisor", args.file)
    from . import building as bd
    from . import divisor as dv

    problems = dv.validate(d)
    if problems:
        raise InputError("invalid divisor: " + "; ".join(problems))
    try:
        b = bd.build(d, args.m) if levels is None else bd.build_multi(d, levels)
    except ValueError as e:
        raise InputError(str(e)) from e
    if args.json:
        _emit(args, text=bd.dumps(b)[:-1])
        return 0
    classes = b.piece_classes()
    lines = [
        f"mode: {b.mode}, m = {b.m}",
        f"pieces: {b.connected_piece_count()} connected "
        f"({len(b.pieces)} orbit records, {len(classes)} classes)",
    ]
    for c in classes:
        lines.append(
            f"  depth {c.depth} levels {list(c.levels)}: {c.connected_pieces} piece(s) "
            f"over {', '.join(c.strata)}"
        )
    lines.append(f"divisor strata: {len(b.divisor_strata)}, attaching pairs: {len(b.attaching)}")
    _emit(args, human_lines=lines)
    return 0


def _cmd_dim(args) -> int:
    if args.file:
        given = [f"--{k}" for k in ("c1A", "chi", "ell", "AV") if getattr(args, k) is not None]
        if given:
            raise InputError(f"the map-type file supplies {', '.join(given)}; give only --dimX with it")
        mt = _load("map-type", args.file)
        if args.dimX is None:
            raise InputError("--dimX is required with a map-type file")
        numbers = (mt.c1a, args.dimX, mt.chi, mt.ell, mt.av)
    else:
        missing = [k for k in ("c1A", "dimX", "chi", "ell", "AV") if getattr(args, k) is None]
        if missing:
            raise InputError(f"missing {', '.join('--' + k for k in missing)} (or give a map-type file)")
        numbers = (args.c1A, args.dimX, args.chi, args.ell, args.AV)
    from . import dimension as dm

    try:
        inp = dm.DimensionInput(*numbers)
    except ValueError as e:
        raise InputError(str(e)) from e
    result = {"expected_dim": dm.expected_dim(inp)}
    lines = [f"expected dimension: {result['expected_dim']}"]
    if args.file:
        from . import levelsys as ls

        try:
            codim = dm.stratum_codim(mt)
        except ls.LevelSystemError as e:
            raise InputError(str(e)) from e
        gap = dm.naive_gap([mt.record(f.start_point).depth for f in mt.fibers if f.kind == "node"])
        result.update(naive_gap=gap, stratum_codim=codim)
        lines += [f"naive matching gap: {gap}", f"stratum codimension: {codim}"]
    _emit(args, result, lines)
    return 0


def _beta_label(key) -> str:
    return f"b{key}" if isinstance(key, int) else f"b({key[0]},{key[1]})"


def _cmd_levels(args) -> int:
    mt = _load("map-type", args.file)
    from . import levelsys as ls

    try:
        sys_ = ls.build_system(mt)
    except ls.LevelSystemError as e:
        print(f"level system cannot be built: {e}", file=sys.stderr)
        return 1
    witness = ls.feasible_positive(sys_)
    dim = ls.torus_dim(sys_)
    rels = ls.beta_relations(sys_)
    result = {
        "alphas": list(sys_.alphas),
        "betas": [b if isinstance(b, int) else list(b) for b in sys_.betas],
        "equations": [
            {
                "base": eq.base,
                "direction": eq.direction,
                "level": eq.level,
                "nodes": list(eq.nodes),
                "multiplicity": eq.multiplicity,
            }
            for eq in sys_.equations
        ],
        "feasible": witness is not None,
        "witness": None
        if witness is None
        else {str(k): str(v) for k, v in witness.items()},
        "torus_dim": dim,
        "beta_relations": [[str(x) for x in rel] for rel in rels],
    }
    lines = ["level system:"] + [f"  {line}" for line in sys_.describe()]
    if witness is None:
        lines.append("no strictly positive solution")
    else:
        lines.append("positive witness: " + ", ".join(f"{k}={v}" for k, v in witness.items()))
    lines.append(f"torus dimension: {dim}")
    for rel in rels:
        terms = " + ".join(
            f"{c}*{_beta_label(b)}" for c, b in zip(rel, sys_.betas) if c
        )
        lines.append(f"relation: {terms} = 0")
    _emit(args, result, lines)
    return 0 if witness is not None else 1


def _cmd_glue(args) -> int:
    gp = _load("gluing", args.file)
    from . import levelsys as ls

    try:
        sol = ls.solve_gluing(gp)
    except KeyError as e:
        raise InputError(str(e)) from e
    # a node of multiplicity s has s branches: build only the form that is printed
    if args.json:
        from .exactnum import coeff_to_json

        result = {
            "consistent": sol.consistent,
            "total_count": sol.total_count,
            "nodes": [
                {
                    "id": n.node,
                    "count": n.count,
                    "solutions": [coeff_to_json(mu) for mu in n.solutions],
                    "failure": n.failure,
                }
                for n in sol.nodes
            ],
        }
        _emit(args, result)
    else:
        lines = []
        for n in sol.nodes:
            if n.failure:
                lines.append(f"{n.node}: inconsistent ({n.failure})")
            else:
                lines.append(f"{n.node}: {n.count} solution(s)")
                for mu in n.solutions:
                    lines.append(f"  {mu}")
        lines.append(f"total branches: {sol.total_count}")
        _emit(args, human_lines=lines)
    return 0 if sol.consistent else 1


def _cmd_example(args) -> int:
    from .fixtures import CATALOG

    if args.name not in CATALOG:
        raise InputError(
            f"unknown fixture {args.name!r}; available: {', '.join(sorted(CATALOG))}"
        )
    entry = CATALOG[args.name]
    text = entry.text()
    if args.emit and args.emit != "-":
        try:
            with open(args.emit, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise InputError(f"cannot write {args.emit}: {e}") from e
        print(f"wrote {entry.kind} fixture {args.name} to {args.emit}", file=sys.stderr)
    elif args.json:
        _emit(args, text=text[:-1])
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncd-moduli",
        description="combinatorics of relatively stable maps over a normal crossings divisor",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run all map-type validators")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("strata", help="stratification counts of a divisor")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(fn=_cmd_strata)

    p = sub.add_parser("building", help="enumerate a level building")
    p.add_argument("file")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--multi", default=None, help="comma-separated levels per component")
    p.set_defaults(fn=_cmd_building)

    p = sub.add_parser("dim", help="expected dimension and codimension")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--c1A", type=int, default=None)
    p.add_argument("--dimX", type=int, default=None)
    p.add_argument("--chi", type=int, default=None)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--AV", type=int, default=None)
    p.set_defaults(fn=_cmd_dim)

    p = sub.add_parser("levels", help="level system, feasibility, torus dimension")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_levels)

    p = sub.add_parser("glue", help="solve a gluing problem")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_glue)

    p = sub.add_parser("example", help="print or write a built-in fixture")
    p.add_argument("name")
    p.add_argument("--emit", default=None, help="write to a file instead of stdout")
    p.set_defaults(fn=_cmd_example)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.fn(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
