"""Command line front end: problem files in, tables or JSON reports out.

Exit codes: 0 the command ran, 1 usage or parse error, 2 the verdict was not
certified-yes although --expect-yes asked for one, 3 a resource limit was
hit: the reducer pool ceiling, or the work budget with no certified highest
corner. Timing goes to stderr so the stdout body is byte-identical across
runs with the same file and flags.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from typing import Callable, NamedTuple, Sequence

from .core import Order, Ring, determinant
from .problemfile import ProblemError, parse_problem
from .standard_basis import PoolLimitExceeded, diagram_of_ideal, standard_basis

# Runners import what they call from determinacy, jet_oracle and demo, and
# renderers import json, when they run, so a process loads only what its
# command uses; a name rebound in its module (as by a tracer) is the one called.

__all__ = ["main", "build_parser", "REPORT_SCHEMA"]

REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "inputs", "seed", "order", "results"],
    "properties": {
        "command": {"type": "string"},
        "inputs": {"type": "object"},
        "seed": {"type": "integer"},
        "order": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "results": {"type": "array", "items": {"type": "object"}},
    },
    "additionalProperties": False,
}

_DEFAULT_SEED = 0
_DEFAULT_TRIALS = 8
_DEFAULT_BOUND = 8


class _UsageError(Exception):
    pass


class _ResourceError(Exception):
    """A resource limit, with the ideal or map that hit it."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _CommandParser(_Parser):
    """A subcommand's parser, which adds its arguments when it first parses.

    Only the command that argv selects parses, so a run builds the arguments
    of one command, not of all of them.
    """

    def __init__(self, *, arguments=(), **kwargs):
        super().__init__(**kwargs)
        self._pending = arguments

    def parse_known_args(self, args=None, namespace=None):
        for flags, options in self._pending:
            self.add_argument(*flags, **options)
        self._pending = ()
        return super().parse_known_args(args, namespace)


_ORDER = (("--order",), {"help": "order weights, comma separated"})
_SEED = (("--seed",), {"type": int, "default": None,
                       "help": "random seed (default 0)"})
_TRIALS = (("--trials",), {"type": int, "default": None,
                           "help": "coordinate-change trials (default 8)"})
_BOUND = (("--bound",), {"type": int, "default": None,
                         "help": "top k of H(0..k) for hilbert, window length "
                                 "for regseq and oracle-check (default 8, "
                                 "except regseq)"})
_JSON = (("--json",), {"action": "store_true", "dest": "as_json",
                       "help": "emit the report as JSON"})
_EXPECT_YES = (("--expect-yes",), {
    "action": "store_true", "dest": "expect_yes",
    "help": "exit 2 unless every verdict is certified-yes"})
# Shared flags lead every command's --help, always in this order.
_SHARED = (_ORDER, _SEED, _TRIALS, _BOUND, _JSON, _EXPECT_YES)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="staircase",
                     description="Staircases of local ideals: diagrams, "
                                 "standard bases, jets, flatness verdicts.")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_CommandParser)
    sub.required = True
    for name, command in COMMANDS.items():
        sub.add_parser(name, help=command.help, arguments=_arguments(command))
    return parser


def _arguments(command) -> list:
    """A command's (flags, options) pairs in the order --help lists them."""
    own = [_ORDER, _SEED, _JSON, *command.arguments]
    if command.failed is not None:
        own.append(_EXPECT_YES)
    file = ([(("file",), {"help": "problem file path"})]
            if command.over is not None else [])
    return (file + [spec for spec in _SHARED if spec in own]
            + [spec for spec in own if spec not in _SHARED])


def _parse_order_flag(text):
    if text is None:
        return None
    try:
        weights = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError("--order needs comma-separated integers") from None
    if any(w < 1 for w in weights):
        raise _UsageError("--order weights must be positive")
    return weights


def _parse_mu_range(text):
    parts = text.split("..")
    try:
        if len(parts) == 1:
            low = high = int(parts[0])
        elif len(parts) == 2:
            low, high = int(parts[0]), int(parts[1])
        else:
            raise ValueError(text)
    except ValueError:
        raise _UsageError(f"--mu expects 'a..b', got {text!r}") from None
    if low < 0 or low > high:
        raise _UsageError("--mu range must be nonnegative and ascending")
    return low, high


def _parse_mu_single(text):
    try:
        value = int(text)
    except ValueError:
        raise _UsageError(
            f"--mu expects a single integer here, got {text!r}") from None
    if value < 0:
        raise _UsageError("--mu must be nonnegative")
    return value


def _points(vertices) -> list[list[int]]:
    return [list(v) for v in vertices]


def _fmt_points(points) -> str:
    if not points:
        return "-"
    return " ".join("(" + ",".join(str(c) for c in p) + ")" for p in points)


def _fmt_flag(value: bool) -> str:
    return "yes" if value else "no"


def _fmt_certificate(verdict: dict) -> str:
    import json
    return json.dumps(verdict["certificate"], sort_keys=True)


def _run_diagram(args, ring, gens):
    sb = standard_basis(gens, ring=ring)
    return {
        "generators": [g.pretty() for g in gens],
        "standard_basis": [g.pretty() for g in sb.basis],
        "vertices": sb.diagram.to_lists(),
        "dimension": sb.diagram.quotient_dimension(),
    }


def _show_diagram(entry):
    lines = [f"ideal {entry['name']}"]
    lines += [f"  generator: {g}" for g in entry["generators"]]
    lines += [f"  basis: {g}" for g in entry["standard_basis"]]
    lines.append(f"  vertices: {_fmt_points(entry['vertices'])}")
    lines.append(f"  dimension: {entry['dimension']}")
    return lines


def _run_vertices(args, ring, gens):
    return {"vertices": diagram_of_ideal(gens, ring=ring).to_lists()}


def _show_vertices(entry):
    return [f"ideal {entry['name']}: {_fmt_points(entry['vertices'])}"]


def _run_hilbert(args, ring, gens):
    top = args.bound if args.bound is not None else _DEFAULT_BOUND
    # Exponents of total degree <= top have weighted length below this cap,
    # and the capped diagram is exact there.
    cap = top * max(ring.order.weights) + 1
    d = standard_basis(gens, ring=ring, length_cap=cap).diagram
    return {"bound": top, "values": d.hilbert_vector(top)}


def _show_hilbert(entry):
    values = " ".join(str(v) for v in entry["values"])
    return [f"ideal {entry['name']}: H(0..{entry['bound']}) = {values}"]


def _run_dim(args, ring, gens):
    return {"dimension": diagram_of_ideal(gens, ring=ring).quotient_dimension()}


def _show_dim(entry):
    return [f"ideal {entry['name']}: dimension {entry['dimension']}"]


def _window_bound(args, bound: int) -> int:
    # hilbert reads H(0..0) at --bound 0, but a window needs length 1.
    if bound < 1:
        raise _UsageError(f"{args.command} --bound requires a positive integer")
    return bound


def _run_regseq(args, ring, gens):
    from .determinacy import regseq_axis_certificate, regular_sequence
    bound = None if args.bound is None else _window_bound(args, args.bound)
    entry = {"verdict": regular_sequence(gens, ring=ring).to_dict()}
    if bound is not None:
        axis = regseq_axis_certificate(gens, trials=args.trials, seed=args.seed,
                                       bound=bound, ring=ring)
        entry["axis_certificate"] = axis.to_dict()
    return entry


def _show_regseq(entry):
    lines = [f"ideal {entry['name']}: {entry['verdict']['kind']}",
             f"  certificate: {_fmt_certificate(entry['verdict'])}"]
    if "axis_certificate" in entry:
        axis = entry["axis_certificate"]
        lines.append(f"  axis certificate: {axis['kind']} "
                     f"{_fmt_certificate(axis)}")
    return lines


def _run_flat_ci(args, ring, spec):
    from .determinacy import SourceNotCompleteIntersection, flat_ci
    try:
        return {"verdict": flat_ci(spec).to_dict()}
    except SourceNotCompleteIntersection as exc:
        return {"error": str(exc)}


def _show_flat_ci(entry):
    if "error" in entry:
        return [f"map {entry['name']}: error: {entry['error']}"]
    return [f"map {entry['name']}: {entry['verdict']['kind']}",
            f"  certificate: {_fmt_certificate(entry['verdict'])}"]


def _not_yes(entry) -> bool:
    return "error" in entry or entry["verdict"]["kind"] != "certified-yes"


def _run_milnor(args, ring, spec):
    from .determinacy import milnor_mu0
    value = milnor_mu0(spec)
    return {"milnor_mu0": value, "finite": value is not None}


def _show_milnor(entry):
    if entry["finite"]:
        return [f"map {entry['name']}: milnor_mu0 = {entry['milnor_mu0']}"]
    return [f"map {entry['name']}: fibre is not finite"]


def _run_jet(args, ring, gens):
    from .determinacy import jet_ideal
    jets = jet_ideal(gens, args.mu)
    return {
        "mu": args.mu,
        "jets": [p.pretty() for p in jets],
        "vertices": diagram_of_ideal(jets, ring=ring).to_lists(),
    }


def _show_jet(entry):
    lines = [f"ideal {entry['name']} at mu={entry['mu']}:"]
    lines += [f"  {p}" for p in entry["jets"]]
    lines.append(f"  vertices: {_fmt_points(entry['vertices'])}")
    return lines


def _run_sweep(args, ring, gens):
    from .determinacy import jet_sweep
    low, high = args.mu
    rep = jet_sweep(gens, low, high, length_bound=args.length, ring=ring)
    return {
        "length_bound": rep.length_bound,
        "base_vertices": _points(rep.base_vertices),
        "base_dimension": rep.base_dimension,
        "rows": [{
            "mu": row.mu,
            "vertices": _points(row.vertices),
            "window_vertices": _points(row.window_vertices),
            "equal": row.equal,
            "equal_upto_bound": row.equal_upto_bound,
            "contains_base": row.contains_base,
            "dimension": row.quotient_dimension,
            "hilbert": list(row.hilbert),
            "new_points": _points(row.new_on_window),
        } for row in rep.rows],
        "stabilized_at": rep.stabilized_at,
        "summary": rep.summary,
    }


def _show_sweep(entry):
    lines = [f"ideal {entry['name']}  [length bound {entry['length_bound']}]",
             f"  base vertices: {_fmt_points(entry['base_vertices'])}"
             f"  dimension {entry['base_dimension']}"]
    for row in entry["rows"]:
        lines.append(
            f"  mu {row['mu']}: slice {_fmt_points(row['window_vertices'])}"
            f" | equal {_fmt_flag(row['equal'])}"
            f" | equal_upto {_fmt_flag(row['equal_upto_bound'])}"
            f" | contains base {_fmt_flag(row['contains_base'])}"
            f" | dim {row['dimension']}"
            f" | new {_fmt_points(row['new_points'])}")
    lines.append(f"  summary: {entry['summary']}")
    return lines


def _run_oracle_check(args, ring, gens):
    from .jet_oracle import oracle_cross_check
    top = _window_bound(args, args.bound if args.bound is not None
                        else _DEFAULT_BOUND)
    rep = oracle_cross_check(gens, top, ring=ring)
    return {
        "bound": top,
        "agree": rep.agree,
        "first_difference": (list(rep.first_difference)
                             if rep.first_difference else None),
        "oracle_vertices": _points(rep.oracle_vertices),
        "basis_vertices": _points(rep.basis_vertices),
    }


def _show_oracle_check(entry):
    if entry["agree"]:
        return [f"ideal {entry['name']}: engines agree "
                f"below length {entry['bound']}"]
    where = ",".join(str(c) for c in entry["first_difference"])
    return [f"ideal {entry['name']}: DISAGREE at ({where}) "
            f"below length {entry['bound']}"]


def _run_det_example(args):
    from .demo import presentation_rows
    low, high = args.mu
    if low < 5:
        raise _UsageError("det-example needs mu at least 5")
    weights = _parse_order_flag(args.order) or (1, 1)
    ring = Ring(("x", "y"), order=Order(weights))
    x = ring.variable("x")
    y = ring.variable("y")
    results = []
    for mu in range(low, high + 1):
        det = determinant(presentation_rows(mu, ring))
        expected = x * y ** (mu + 1)
        results.append({
            "mu": mu,
            "determinant": det.pretty(),
            "expected": expected.pretty(),
            "match": det == expected,
        })
    return {
        "command": "det-example",
        "inputs": {"builtin": "truncated-family", "mu": f"{low}..{high}"},
        "seed": args.seed if args.seed is not None else _DEFAULT_SEED,
        "order": list(weights),
        "results": results,
    }


def _show_det_example(entry):
    status = "ok" if entry["match"] else "MISMATCH"
    return [f"mu {entry['mu']}: det = {entry['determinant']} | "
            f"expected {entry['expected']} | {status}"]


class _Command(NamedTuple):
    """One subcommand: its help, extra arguments, compute and render.

    `compute(args, ring, item)` gives the result entry, less its name, of one
    ideal or map, as `over` says, with the seed, and the trials and bound of
    the commands that take them, in `args` resolved against the file's
    options. With `over` None no file is read and `compute(args)` builds the
    whole report. `render` gives one entry's output lines; a command with
    `failed` takes --expect-yes, which exits 2 when `failed` marks an entry.
    """

    help: str
    compute: Callable
    render: Callable[[dict], list[str]]
    over: str | None = "ideals"
    failed: Callable[[dict], bool] | None = None
    arguments: Sequence = ()  # (flags, options) pairs for add_argument


COMMANDS = {
    "diagram": _Command("standard basis and staircase of each ideal",
                        _run_diagram, _show_diagram),
    "vertices": _Command("staircase vertices of each ideal",
                         _run_vertices, _show_vertices),
    "hilbert": _Command("complement counts of each ideal up to --bound",
                        _run_hilbert, _show_hilbert, arguments=[_BOUND]),
    "dim": _Command("quotient dimension of each ideal", _run_dim, _show_dim),
    "regseq": _Command("regular-sequence verdict per ideal; --bound adds an "
                       "axis certificate",
                       _run_regseq, _show_regseq, failed=_not_yes,
                       arguments=[_TRIALS, _BOUND]),
    "flat-ci": _Command("flatness verdict for each map germ",
                        _run_flat_ci, _show_flat_ci, over="maps",
                        failed=_not_yes),
    "milnor": _Command("fibre length of each map germ when finite",
                       _run_milnor, _show_milnor, over="maps"),
    "jet": _Command(
        "jets of each ideal's generators", _run_jet, _show_jet,
        arguments=[(("--mu",), {"required": True, "type": _parse_mu_single,
                                "help": "jet order (single integer)"})]),
    "sweep": _Command(
        "compare jet staircases against the full staircase",
        _run_sweep, _show_sweep,
        arguments=[
            (("--mu",), {"required": True, "type": _parse_mu_range,
                         "help": "inclusive range a..b"}),
            (("--len",), {"dest": "length", "type": int, "default": None,
                          "help": "slice length bound (default mu_max + 3)"}),
        ]),
    "oracle-check": _Command("cross-validate the two staircase engines",
                             _run_oracle_check, _show_oracle_check,
                             failed=lambda entry: not entry["agree"],
                             arguments=[_BOUND]),
    "det-example": _Command(
        "determinant identity for the built-in family",
        _run_det_example, _show_det_example, over=None,
        failed=lambda entry: not entry["match"],
        arguments=[(("--mu",), {"default": "5..10", "type": _parse_mu_range,
                                "help": "inclusive range a..b"})]),
}


def _file_report(args, command):
    with open(args.file, "rb") as handle:
        data = handle.read()
    digest = hashlib.sha256(data).hexdigest()
    problem = parse_problem(data.decode("utf-8"),
                            order_override=_parse_order_flag(args.order))
    # Flags override the file's options, which override the defaults. A
    # command reads only the options it takes flags for.
    for name, default in (("seed", _DEFAULT_SEED), ("trials", _DEFAULT_TRIALS),
                          ("bound", None)):
        if name in vars(args) and getattr(args, name) is None:
            setattr(args, name, problem.options.get(name, default))
    # Checked once the options are resolved, so flags and option lines agree.
    if getattr(args, "bound", None) is not None and args.bound < 0:
        raise _UsageError("--bound requires a nonnegative integer")
    if getattr(args, "length", None) is not None and args.length < 0:
        raise _UsageError("--len requires a nonnegative integer")
    if getattr(args, "trials", None) is not None and args.trials < 1:
        raise _UsageError("--trials requires a positive integer")
    return {
        "command": args.command,
        "inputs": {
            "file": args.file,
            "sha256": digest,
            "ideals": list(problem.ideals),
            "maps": list(problem.maps),
        },
        "seed": args.seed,
        "order": list(problem.ring.order.weights),
        "results": [_compute(args, command, problem.ring, name, item)
                    for name, item in getattr(problem, command.over).items()],
    }


def _compute(args, command, ring, name, item):
    kind = command.over[:-1]  # "ideals" -> "ideal", "maps" -> "map"
    try:
        return {"name": name, **command.compute(args, ring, item)}
    except PoolLimitExceeded as exc:
        raise _ResourceError(f"{kind} {name}: {exc}") from exc
    except ValueError as exc:  # an exponent past the packed field, say
        raise ValueError(f"{kind} {name}: {exc}") from exc


def _dispatch(args):
    command = COMMANDS[args.command]
    if command.over is None:
        report = command.compute(args)
    else:
        report = _file_report(args, command)
    # Only the commands with `failed` take --expect-yes.
    expect_failed = getattr(args, "expect_yes", False) and any(
        command.failed(entry) for entry in report["results"])
    return report, expect_failed


def _render(report: dict, as_json: bool) -> str:
    if as_json:
        import json
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    lines = [f"command: {report['command']}"]
    inputs = report["inputs"]
    if "file" in inputs:
        lines.append(f"file: {inputs['file']}")
        lines.append(f"sha256: {inputs['sha256']}")
    order = ",".join(str(w) for w in report["order"])
    lines.append(f"seed: {report['seed']}  order: {order}")
    render = COMMANDS[report["command"]].render
    for entry in report["results"]:
        lines.extend(render(entry))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    start = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        report, expect_failed = _dispatch(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ProblemError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 1
    except _ResourceError as exc:
        print(f"resource ceiling: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(_render(report, as_json=args.as_json))
    elapsed = time.perf_counter() - start
    print(f"elapsed {elapsed:.3f}s", file=sys.stderr)
    return 2 if expect_failed else 0


if __name__ == "__main__":
    sys.exit(main())
