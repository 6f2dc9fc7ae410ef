"""Command-line entry point.

One executable, seven subcommands (weights, identities, simulate, moments,
limits, sample, verify), CSV on stdout or --out, key=value config files with
flag override, and a fixed exit-code contract:

    0  success
    1  validation / usage error
    2  numeric or budget failure
    3  a `verify` run whose acceptance condition failed

Every run echoes its effective configuration to stderr as `# key=value`
lines, so CSV output on stdout stays clean while runs remain auditable.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
import time

import numpy as np

from .errors import NumericalError, ValidationError, check_whole
from .gaussian import (
    _FACTOR_ROWS,
    SAMPLE_CSV_HEADER,
    build_grid,
    draws_to_csv_rows,
    sample_blocks,
    whitenoise_blocks,
)
# the whole-array samplers, no longer called here, stay importable for
# perfbench/trace_cli.py
from .gaussian import sample, sample_Z1_whitenoise  # noqa: F401
from .harness import (
    ExperimentConfig,
    _combine,
    _exact,
    _gap_terms,
    _in_order,
    _run_pool,
    _star_terms,
    run_asymptotic_trend,
    run_clt_check,
    run_depoissonization_check,
    run_moment_check,
)
from .kernels import binomial_identity_lhs, convolution_identity
from .limits import closed_cov, comparison_table
from .moments import (
    MomentEstimate,
    cov_K_cross_gen,
    depoissonization_constant,
    mean_K,
    mean_K_binomial,
)
from .scheme import TRAJECTORY_CSV_HEADER, simulate_replicas
from .weights import WeightFamily

MOMENTS_CSV_HEADER = "quantity,j,l,l2,s,t,value,error_bound,boxes"


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1 (not 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _csv_floats(text: str) -> list:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValidationError(f"expected a comma list of numbers, got {text!r}") from None


def _threads(ns) -> int:
    """The worker count: --threads, else NESTED_KARLIN_THREADS, else the
    CPU count.  A --threads of 0 means "not given"."""
    threads = check_whole("--threads", ns.threads, 0)
    if threads:
        return threads
    env = os.environ.get("NESTED_KARLIN_THREADS", "")
    if env.strip():
        try:
            threads = int(env)
        except ValueError as exc:
            raise ValidationError(
                f"NESTED_KARLIN_THREADS must be an integer, got {env!r}"
            ) from exc
        return check_whole("NESTED_KARLIN_THREADS", threads, 1)
    return os.cpu_count() or 1


def _echo_config(ns) -> None:
    skip = {"func"}
    for key in sorted(vars(ns)):
        if key in skip:
            continue
        print(f"# {key}={getattr(ns, key)}", file=sys.stderr)


def _open_out(path: str, mode: str):
    try:
        return open(path, mode)
    except OSError as exc:
        raise ValidationError(f"cannot write --out {path}: {exc.strerror}") from exc


def _output(out: str):
    """The --out file opened for writing, or stdout (left open)."""
    return _open_out(out, "w") if out else contextlib.nullcontext(sys.stdout)


def _emit(lines, out: str) -> None:
    with _output(out) as fh:
        fh.write("\n".join(lines) + "\n")


def _emit_samples(blocks, n: int, labels, out: str, threads: int) -> None:
    """The sample CSV of n samples from ``blocks``, an iterator of blocks of
    _FACTOR_ROWS draws, each formatted and written, in order, as soon as it
    is drawn.  ``_in_order`` formats at most 2 * threads blocks at once, on
    no more workers than blocks (in this process with one), and
    ``writelines`` drops each block's text once it is written, so the draws
    and text held stay bounded whatever --n is."""
    starts = range(0, n, _FACTOR_ROWS)
    calls = ((draws_to_csv_rows, (block, labels, start), {})
             for start, block in zip(starts, blocks))
    with _output(out) as fh:
        fh.write(SAMPLE_CSV_HEADER + "\n")
        fh.writelines(_in_order(calls, threads, min(2 * threads, len(starts))))


def _add_family_flags(p) -> None:
    p.add_argument("--family", choices=("weibull", "geometric", "finite"),
                   default="weibull", help="weight family")
    p.add_argument("--alpha", type=float, default=0.5,
                   help="weibull-like exponent in (0,1)")
    p.add_argument("--p", type=float, default=0.5, help="geometric parameter")
    p.add_argument("--probs", default="", help="finite family probabilities p1,p2,...")


def _add_common(p, *, seed=0) -> None:
    p.add_argument("--config", default="", help="key=value config file (flags override)")
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--out", default="", help="output CSV path (default stdout)")
    p.add_argument("--threads", type=int, default=0,
                   help="worker count (default: NESTED_KARLIN_THREADS or CPU count)")


# ---------------------------------------------------------------------------
# handlers


def _cmd_weights_table(ns) -> int:
    fam = ns.weight_family
    lines = ["k,weight,cumulative"]
    acc = 0.0
    for k in range(1, check_whole("--k-max", ns.k_max, 1) + 1):
        w = float(fam.weight(k))
        acc += w
        lines.append(f"{k},{w!r},{acc!r}")
    _emit(lines, ns.out)
    return 0


def _cmd_weights_rho(ns) -> int:
    fam = ns.weight_family
    lines = ["t,rho"]
    for t in _csv_floats(ns.t):
        lines.append(f"{t!r},{fam.rho(t)}")
    _emit(lines, ns.out)
    return 0


def _cmd_weights_profile(ns) -> int:
    fam = ns.weight_family
    lines = ["lambda,t,ratio"]
    for lam, t, ratio in fam.dehaan_profile(_csv_floats(ns.lambdas), _csv_floats(ns.times)):
        lines.append(f"{lam!r},{t!r},{ratio!r}")
    _emit(lines, ns.out)
    return 0


def _cmd_identities(ns) -> int:
    max_l = check_whole("--max-l", ns.max_l, 1)
    max_n = check_whole("--max-n", ns.max_n, 0)
    cells = 0
    for a in range(max_n + 1):
        for r in range(max_n + 1):
            for n in range(max_n + 1):
                lhs, rhs = convolution_identity(a, r, n, max_value=max_n)
                if lhs != rhs:
                    _emit([f"convolution identity FAILED at a={a} r={r} n={n}"], ns.out)
                    return 2
                cells += 1
    rng = np.random.default_rng(ns.seed)
    worst = 0.0
    checks = 0
    for _ in range(100):
        a, b = rng.uniform(0.0, 10.0, size=2)
        a, b = a or 1e-3, b or 1e-3
        for l in range(1, max_l + 1):
            got = binomial_identity_lhs(l, a, b)
            worst = max(worst, abs(got - 1.0 / l) * l)
            checks += 1
    ok = worst <= 1e-12
    _emit([f"identities {'ok' if ok else 'FAILED'}: convolution_cells={cells} "
           f"binomial_checks={checks} worst_rel={worst:.3e}"], ns.out)
    return 0 if ok else 2


def _cmd_simulate(ns) -> int:
    replicas = check_whole("replicas", ns.replicas, 1)
    n = ns.deterministic_n
    grid = _csv_floats(ns.times) if ns.times else [float(ns.t) if n is None else n]
    trajectories = simulate_replicas(
        ns.weight_family, grid, ns.generations, ns.levels, ns.seed,
        range(replicas), n=n,
    )
    lines = [TRAJECTORY_CSV_HEADER]
    for traj in trajectories:
        lines.extend(traj.to_csv_rows())
    _emit(lines, ns.out)
    return 0


def _moment_row(quantity, j, l, l2, s, t, est) -> str:
    def num(x):
        return "" if x is None else repr(float(x))

    l2txt = "" if l2 is None else str(l2)
    return (
        f"{quantity},{j},{l},{l2txt},{num(s)},{num(t)},"
        f"{est.value!r},{est.error_bound!r},{est.boxes_enumerated}"
    )


def _estimate(ns, terms) -> MomentEstimate:
    """The exact linear combination ``terms`` ``((coef, fn, args), ...)``:
    each distinct moment computed once at --prune in this process by
    ``_run_pool``, read through ``_combine``, with the boxes of all of them."""
    results, _ = _run_pool(ExperimentConfig(prune=ns.prune), ns.weight_family, [terms])
    value, error = _combine(terms, results)
    return MomentEstimate(value, error, sum(e.boxes_enumerated for e in results.values()))


def _cmd_moments_mean(ns) -> int:
    if ns.binomial and ns.star:
        raise ValidationError("--star has no fixed-n form; drop --binomial or --star")
    if ns.binomial:
        quantity, t, terms = ("mean_K_binomial", float(ns.n),
                              _exact(mean_K_binomial, ns.j, ns.l, ns.n))
    elif ns.star:
        quantity, t, terms = "mean_K_star", ns.t, _star_terms(mean_K, (ns.j,), (ns.l,), (ns.t,))
    else:
        quantity, t, terms = "mean_K", ns.t, _exact(mean_K, ns.j, ns.l, ns.t)
    row = _moment_row(quantity, ns.j, ns.l, None, None, t, _estimate(ns, terms))
    _emit([MOMENTS_CSV_HEADER, row], ns.out)
    return 0


def _cmd_moments_cov(ns) -> int:
    j, l, l2, t = ns.j, ns.l, ns.l2, ns.t
    s = ns.s if ns.s is not None else t
    quantity, l2, terms = {
        "same": ("cov_K_same", None, _exact(cov_K_cross_gen, j, j, l, l, s, t)),
        "star": ("cov_K_star_same", None, _star_terms(cov_K_cross_gen, (j, j), (l, l), (s, t))),
        "levels": ("cov_K_cross_level", l2, _exact(cov_K_cross_gen, j, j, l, l2, s, t)),
        "gens": (f"cov_K_cross_gen_{ns.gen_i}_{j}", l2,
                 _exact(cov_K_cross_gen, ns.gen_i, j, l, l2, s, t)),
    }[ns.which]
    _emit([MOMENTS_CSV_HEADER, _moment_row(quantity, j, l, l2, s, t, _estimate(ns, terms))],
          ns.out)
    return 0


def _cmd_moments_gap(ns) -> int:
    est = _estimate(ns, _gap_terms(ns.j, ns.l, ns.t))
    lines = [
        MOMENTS_CSV_HEADER + ",uniform_bound",
        _moment_row("depoissonization_gap", ns.j, ns.l, None, None, ns.t,
                    MomentEstimate(abs(est.value), est.error_bound, est.boxes_enumerated))
        + f",{depoissonization_constant(ns.l)!r}",
    ]
    _emit(lines, ns.out)
    return 0


def _cmd_limits_cov(ns) -> int:
    _emit([repr(closed_cov(ns.kind, ns.l1, ns.l2, ns.delta))], ns.out)
    return 0


def _cmd_limits_table(ns) -> int:
    kinds = [k.strip() for k in ns.kinds.split(",") if k.strip()]
    max_l = check_whole("--max-l", ns.max_l, 1)
    pairs = [(l1, l2) for l1 in range(1, max_l + 1) for l2 in range(1, max_l + 1)]
    rows = comparison_table(kinds, pairs, _csv_floats(ns.deltas))
    lines = ["kind,l1,l2,delta,closed_form,quadrature,abs_diff"]
    for kind, l1, l2, d, closed, quad, diff in rows:
        lines.append(f"{kind},{l1},{l2},{d!r},{closed!r},{quad!r},{diff!r}")
    _emit(lines, ns.out)
    return 0


def _cmd_sample_limit(ns) -> int:
    grid = build_grid(ns.kind, _csv_floats(ns.u_grid), ns.levels)
    blocks = sample_blocks(grid, ns.n, ns.seed)
    _emit_samples(blocks, ns.n, grid.labels(), ns.out, ns.threads)
    return 0


def _cmd_sample_whitenoise(ns) -> int:
    u = _csv_floats(ns.u_grid)
    blocks = whitenoise_blocks(u, ns.x_window, ns.x_step, ns.y_step, ns.n, ns.seed)
    _emit_samples(blocks, ns.n, [(1, float(x)) for x in u], ns.out, ns.threads)
    return 0


def _experiment_config(ns) -> ExperimentConfig:
    """Each ExperimentConfig field from the flag of its name (--family for
    family_kind), tuple fields parsed from comma lists; a field without a
    flag in this subcommand keeps its default."""
    kwargs = {}
    for f in dataclasses.fields(ExperimentConfig):
        flag = "family" if f.name == "family_kind" else f.name
        if hasattr(ns, flag):
            value = getattr(ns, flag)
            if isinstance(f.default, tuple):
                value = tuple(_csv_floats(value))
            kwargs[f.name] = value
    return ExperimentConfig(**kwargs)


_VERIFY_RUNNERS = {
    "moment": run_moment_check,
    "clt": run_clt_check,
    "trend": run_asymptotic_trend,
    "gap": run_depoissonization_check,
}


def _cmd_verify(ns) -> int:
    config = _experiment_config(ns)
    start = time.perf_counter()
    report = _VERIFY_RUNNERS[ns.check](config)
    runtime = time.perf_counter() - start
    if ns.out:
        try:
            report.write(ns.out)
        except OSError as exc:
            raise ValidationError(f"cannot write --out {ns.out}: {exc.strerror}") from exc
    print(
        f"verify {ns.check}: passed={report.passed} "
        f"cells={len(report.cells)} flagged={len(report.flagged)} "
        f"pass_fraction={report.pass_fraction:.4f} runtime={runtime:.1f}s"
    )
    if not ns.out:
        sys.stdout.write(report.to_csv())
    return 0 if report.passed else 3


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    root = _Parser(prog="nested-karlin",
                   description="Nested Karlin occupancy scheme toolkit")
    subs = root.add_subparsers(dest="command", parser_class=_Parser)
    subs.required = True

    w = subs.add_parser("weights", help="inspect a weight family")
    wsubs = w.add_subparsers(dest="action", parser_class=_Parser)
    wsubs.required = True
    wt = wsubs.add_parser("table", help="dump k,weight,cumulative rows")
    _add_family_flags(wt); _add_common(wt)
    wt.add_argument("--k-max", type=int, default=20)
    wt.set_defaults(func=_cmd_weights_table)
    wr = wsubs.add_parser("rho", help="counting function rho(t)")
    _add_family_flags(wr); _add_common(wr)
    wr.add_argument("--t", default="100.0", help="comma-separated times")
    wr.set_defaults(func=_cmd_weights_rho)
    wp = wsubs.add_parser("profile", help="de Haan profile ratios")
    _add_family_flags(wp); _add_common(wp)
    wp.add_argument("--lambdas", default="2.0,8.0")
    wp.add_argument("--times", default="100.0,10000.0")
    wp.set_defaults(func=_cmd_weights_profile)

    idn = subs.add_parser("identities", help="combinatorial identity checks")
    isubs = idn.add_subparsers(dest="action", parser_class=_Parser)
    isubs.required = True
    ic = isubs.add_parser("check")
    _add_common(ic, seed=7)
    ic.add_argument("--max-l", type=int, default=12)
    ic.add_argument("--max-n", type=int, default=30)
    ic.set_defaults(func=_cmd_identities)

    sim = subs.add_parser("simulate", help="simulate occupancy trajectories")
    _add_family_flags(sim); _add_common(sim, seed=1)
    sim.add_argument("--t", type=float, default=100.0, help="single Poissonized time")
    sim.add_argument("--times", default="", help="snapshot grid (comma-separated)")
    sim.add_argument("--deterministic-n", type=int, default=None,
                     help="run the fixed-ball-count scheme with n balls (0 allowed); "
                          "without it the Poissonized scheme runs")
    sim.add_argument("--generations", type=int, default=2)
    sim.add_argument("--levels", type=int, default=3)
    sim.add_argument("--replicas", type=int, default=1)
    sim.set_defaults(func=_cmd_simulate)

    mom = subs.add_parser("moments", help="exact finite-time moments")
    msubs = mom.add_subparsers(dest="action", parser_class=_Parser)
    msubs.required = True

    mm = msubs.add_parser("mean")
    _add_family_flags(mm); _add_common(mm)
    mm.add_argument("--j", type=int, default=1)
    mm.add_argument("--l", type=int, default=1)
    mm.add_argument("--t", type=float, default=100.0)
    mm.add_argument("--n", type=int, default=100, help="ball count for --binomial")
    mm.add_argument("--star", action="store_true", help="exactly-l boxes")
    mm.add_argument("--binomial", action="store_true", help="deterministic scheme")
    mm.add_argument("--prune", type=float, default=1e-9)
    mm.set_defaults(func=_cmd_moments_mean)

    mc = msubs.add_parser("cov")
    _add_family_flags(mc); _add_common(mc)
    mc.add_argument("--which", choices=("same", "star", "levels", "gens"),
                    default="same")
    mc.add_argument("--j", type=int, default=1)
    mc.add_argument("--gen-i", type=int, default=1,
                    help="outer generation for --which gens, 1 <= gen-i <= j")
    mc.add_argument("--l", type=int, default=1)
    mc.add_argument("--l2", type=int, default=2)
    mc.add_argument("--s", type=float, default=None)
    mc.add_argument("--t", type=float, default=100.0)
    mc.add_argument("--prune", type=float, default=1e-9)
    mc.set_defaults(func=_cmd_moments_cov)

    mg = msubs.add_parser("gap")
    _add_family_flags(mg); _add_common(mg)
    mg.add_argument("--j", type=int, default=1)
    mg.add_argument("--l", type=int, default=1)
    mg.add_argument("--t", type=float, default=100.0)
    mg.add_argument("--prune", type=float, default=1e-9)
    mg.set_defaults(func=_cmd_moments_gap)

    lim = subs.add_parser("limits", help="limit covariances")
    lsubs = lim.add_subparsers(dest="action", parser_class=_Parser)
    lsubs.required = True
    lc = lsubs.add_parser("cov")
    _add_common(lc)
    lc.add_argument("--kind", choices=("Z", "X", "Y"), required=True)
    lc.add_argument("--l1", type=int, required=True)
    lc.add_argument("--l2", type=int, required=True)
    lc.add_argument("--delta", type=float, default=0.0)
    lc.set_defaults(func=_cmd_limits_cov)
    lt = lsubs.add_parser("table")
    _add_common(lt)
    lt.add_argument("--kinds", default="Z,X")
    lt.add_argument("--max-l", type=int, default=3)
    lt.add_argument("--deltas", default="-2.0,-1.0,-0.5,0.0,0.5,1.0,2.0")
    lt.set_defaults(func=_cmd_limits_table)

    smp = subs.add_parser("sample", help="draw from the Gaussian limit laws")
    ssubs = smp.add_subparsers(dest="action", parser_class=_Parser)
    ssubs.required = True
    sl = ssubs.add_parser("limit")
    _add_common(sl)
    sl.add_argument("--kind", choices=("Z", "X"), default="Z")
    sl.add_argument("--levels", type=int, default=3)
    sl.add_argument("--u-grid", default="0.0,0.5,1.0")
    sl.add_argument("--n", type=int, default=100)
    sl.set_defaults(func=_cmd_sample_limit)
    sw = ssubs.add_parser("whitenoise")
    _add_common(sw)
    sw.add_argument("--u-grid", default="0.0,1.0")
    sw.add_argument("--x-window", type=float, default=30.0)
    sw.add_argument("--x-step", type=float, default=0.01)
    sw.add_argument("--y-step", type=float, default=0.01)
    sw.add_argument("--n", type=int, default=100)
    sw.set_defaults(func=_cmd_sample_whitenoise)

    ver = subs.add_parser("verify", help="run a verification experiment")
    vsubs = ver.add_subparsers(dest="check", parser_class=_Parser)
    vsubs.required = True
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    for name, own in (("moment", ("t", "deterministic_n")), ("clt", ("T", "u_grid")),
                      ("trend", ("T_grid",)), ("gap", ("t_grid",))):
        vp = vsubs.add_parser(name)
        _add_family_flags(vp)
        _add_common(vp, seed=ExperimentConfig.seed)
        # each flag is the config field of its name, with the field's default
        for key in ("generations", "levels", "replicas", "prune", *own):
            flag, default = "--" + key.replace("_", "-"), defaults[key]
            if isinstance(default, tuple):
                vp.add_argument(flag, dest=key, default=",".join(map(repr, default)))
            else:  # the one field whose default is None takes ball counts
                vp.add_argument(flag, dest=key, default=default,
                                type=int if default is None else type(default))
        if name == "clt":
            vp.set_defaults(replicas=4000)
        vp.set_defaults(func=_cmd_verify, check=name)
    return root


def _expand_config(argv: list) -> list:
    """Insert config-file entries as flags right after the subcommand tokens
    so explicitly passed flags (parsed later) override them."""
    if "--config" not in " ".join(argv):
        return argv
    head = []
    tail = list(argv)
    while tail and not tail[0].startswith("-"):
        head.append(tail.pop(0))
    path = ""
    for i, tok in enumerate(tail):
        if tok == "--config" and i + 1 < len(tail):
            path = tail[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if not path:
        return argv
    try:
        with open(path) as fh:
            entries = []
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValidationError(f"config line without '=': {line!r}")
                key, value = line.split("=", 1)
                entries.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    return head + entries + tail


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _expand_config(argv)
        ns = parser.parse_args(argv)
        if hasattr(ns, "threads"):
            ns.threads = _threads(ns)  # resolve flag/env/cpu before echoing
        _echo_config(ns)
        if getattr(ns, "out", None):
            # refused before any work: appending creates the file and keeps
            # what an existing one holds
            _open_out(ns.out, "a").close()
        if hasattr(ns, "family"):
            ns.weight_family = WeightFamily.from_spec(
                ns.family, alpha=ns.alpha, p=ns.p, probs=_csv_floats(ns.probs)
            )
        return ns.func(ns)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
